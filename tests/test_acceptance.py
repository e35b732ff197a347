"""Release gate: ten numbered end-to-end checks, one test each, so that
``pytest -v`` prints a pass/fail line per criterion.

Criterion 6 is asserted literally and marked as a known failure: its
scripted four-step cycle plays a check action while the model still
expects an advance, walks into the losing sink on the third step, and
earns mean 0, not the claimed 2/3. The two companion tests freeze the
adjacent behavior that does hold, under the same simulation budget: the
advance-interleaved cycle for the same one-letter word lands exactly on
3/5 and clears the one-half threshold, and the shortest check round on
an automaton whose start is already accepting lands exactly on 2/3.
"""

import random
import time
from fractions import Fraction

import pytest

from asmp import (
    SimConfig,
    acceptance_probability,
    almost_reach,
    almost_safe,
    almost_sure_limavg_gt,
    alternating_strategy,
    bscc_mean_payoff,
    chain_dot,
    collapse,
    constant_strategy,
    decide_limavg1,
    emit_model,
    emit_strategy,
    fingerprints,
    interleaved_word_strategy,
    is_belief_observation,
    product_chain,
    projection_dot,
    projection_graph,
    recurrent_classes,
    reduce_pomdp,
    reduce_quantitative,
    restrict_safe,
    simulate,
    uniform_strategy,
    validate_strategy,
    word_strategy,
)
from asmp.gadgets import (
    accepting_start_pfa,
    ring_pomdp,
    ring_pomdp_with_orphan,
    trap_ring_pomdp,
    two_state_pfa,
    unavoidable_zero_pomdp,
)

from helpers import (
    all_words,
    oracle_reach_obs,
    oracle_safe_obs,
    random_belief_obs_pomdp,
    random_pfa,
    reduced_pomdp,
)

RING_STATES = {"X", "X'", "Y", "Y'", "Z", "Z'"}


def base_states(diag) -> set[str]:
    """State names visited by the diagnosed class, memory part stripped."""
    return {label.split("·")[0] for label in diag.class_labels}


def losing_trio(g):
    return (
        constant_strategy(g, 0),
        constant_strategy(g, 1),
        uniform_strategy(g),
    )


def test_criterion_01_ring_synthesis_and_rejections():
    t0 = time.perf_counter()
    g, rewards = ring_pomdp()
    report = decide_limavg1(g, rewards)
    assert report.verdict == "YES"
    ok, diag = validate_strategy(g, rewards, report.witness)
    assert ok, diag
    for sigma in losing_trio(g):
        ok, diag = validate_strategy(g, rewards, sigma)
        assert not ok
        assert diag.kind == "recurrent-class"
        assert base_states(diag) == RING_STATES
    assert time.perf_counter() - t0 < 10


def test_criterion_02_trap_ring_synthesis_and_rejections():
    t0 = time.perf_counter()
    g, rewards = trap_ring_pomdp()
    report = decide_limavg1(g, rewards)
    assert report.verdict == "YES"
    ok, diag = validate_strategy(g, rewards, report.witness)
    assert ok, diag
    for sigma in losing_trio(g):
        ok, diag = validate_strategy(g, rewards, sigma)
        assert not ok
        assert diag.kind == "recurrent-class"
        assert "B" in base_states(diag)
    assert time.perf_counter() - t0 < 30


def test_criterion_03_alternation_recurrent_classes():
    g, rewards = ring_pomdp()
    mc = product_chain(g, rewards, alternating_strategy(g, 0, 1))
    classes = {
        frozenset(mc.label_texts[i] for i in cls)
        for cls in recurrent_classes(mc)
    }
    assert classes == {
        frozenset({"X·a", "X'·b"}),
        frozenset({"Z·b", "Z'·a"}),
    }


def test_criterion_04_collapse_preserves_winning():
    t0 = time.perf_counter()
    g, rewards = ring_pomdp()
    collapsed = collapse(g, rewards, alternating_strategy(g, 0, 1))
    ok, diag = validate_strategy(g, rewards, collapsed)
    assert ok, diag
    assert collapsed.n_memories <= 2 ** (3 * g.n_states + g.n_actions)
    assert collapsed.n_memories == 3
    assert time.perf_counter() - t0 < 60


def test_criterion_05_fixpoints_match_support_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(5050)
    for _ in range(200):
        g, _ = random_belief_obs_pomdp(rng)
        assert g.n_states <= 6 and g.n_actions <= 3
        assert is_belief_observation(g)[0]
        safe = frozenset(s for s in range(g.n_states) if rng.random() < 0.75)
        assert almost_safe(g, safe).y_star == oracle_safe_obs(g, safe)
        targets = frozenset(s for s in range(g.n_states) if rng.random() < 0.3)
        assert almost_reach(g, targets).z_star == oracle_reach_obs(g, targets)
    assert time.perf_counter() - t0 < 300


@pytest.mark.xfail(
    strict=True,
    reason="the four-step cycle checks while an advance is due, falls into"
    " the losing sink on step three, and its only recurrent class pays 0",
)
def test_criterion_06_quantitative_value_of_the_four_step_cycle():
    t0 = time.perf_counter()
    g, rewards = reduce_quantitative(two_state_pfa())
    sigma = word_strategy(g, [], ["adv", "a", "chk", "chk"])
    mc = product_chain(g, rewards, sigma)
    means = {bscc_mean_payoff(mc, cls) for cls in recurrent_classes(mc)}
    assert means == {Fraction(2, 3)}
    assert almost_sure_limavg_gt(mc, Fraction(1, 2))
    res = simulate(g, rewards, sigma, SimConfig(steps=10_000, runs=100))
    assert abs(res.mean - 2 / 3) <= 3 * res.stderr + 1e-9
    assert time.perf_counter() - t0 < 30


def test_criterion_06_companion_interleaved_cycle_reaches_three_fifths():
    t0 = time.perf_counter()
    g, rewards = reduce_quantitative(two_state_pfa())
    sigma = interleaved_word_strategy(g, ["a"])
    mc = product_chain(g, rewards, sigma)
    means = {bscc_mean_payoff(mc, cls) for cls in recurrent_classes(mc)}
    assert means == {Fraction(3, 5)}
    assert almost_sure_limavg_gt(mc, Fraction(1, 2))
    res = simulate(g, rewards, sigma, SimConfig(steps=10_000, runs=100))
    assert abs(res.mean - 3 / 5) <= 3 * res.stderr + 1e-9
    assert time.perf_counter() - t0 < 30


def test_criterion_06_companion_shortest_round_reaches_two_thirds():
    t0 = time.perf_counter()
    g, rewards = reduce_quantitative(accepting_start_pfa())
    sigma = interleaved_word_strategy(g, [])
    mc = product_chain(g, rewards, sigma)
    means = {bscc_mean_payoff(mc, cls) for cls in recurrent_classes(mc)}
    assert means == {Fraction(2, 3)}
    assert almost_sure_limavg_gt(mc, Fraction(1, 2))
    res = simulate(g, rewards, sigma, SimConfig(steps=10_000, runs=100))
    assert abs(res.mean - 2 / 3) <= 3 * res.stderr + 1e-9
    assert time.perf_counter() - t0 < 30


def test_criterion_07_threshold_verdict_matches_acceptance():
    t0 = time.perf_counter()
    rng = random.Random(7070)
    half = Fraction(1, 2)
    for _ in range(50):
        p = random_pfa(rng, max_states=4, max_letters=2)
        g, rewards = reduce_quantitative(p)
        for w in all_words(p.alphabet, 4):
            mc = product_chain(g, rewards, interleaved_word_strategy(g, w))
            assert almost_sure_limavg_gt(mc, half) == (
                acceptance_probability(p, w) > half
            )
    assert time.perf_counter() - t0 < 120


def test_criterion_08_belief_observation_certificates():
    for builder in (ring_pomdp, trap_ring_pomdp):
        g, rewards = builder()
        bg = reduce_pomdp(g, rewards)
        ok, witness = is_belief_observation(bg)
        assert ok and witness is None
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
        ok, witness = is_belief_observation(restricted)
        assert ok and witness is None
    g, _ = ring_pomdp_with_orphan()
    ok, witness = is_belief_observation(g)
    assert not ok
    assert witness == ["start", "a", "u"]


def test_criterion_09_unavoidable_zero_certificate():
    g, rewards = unavoidable_zero_pomdp()
    report = decide_limavg1(g, rewards)
    assert report.verdict == "NO"
    bg = reduce_pomdp(g, rewards)
    safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
    assert bg.obs(bg.initial) in safety.y_star
    restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
    reach = almost_reach(restricted, restricted.wcs_state_ids())
    assert reach.z_star == set()
    assert restricted.obs(restricted.initial) not in reach.z_star


def full_report() -> str:
    """Every kind of rendered output the package produces, concatenated."""
    parts = []
    g, rewards = ring_pomdp()
    report = decide_limavg1(g, rewards)
    parts.append(report.render(trace=True))
    parts.append(emit_strategy(report.witness, g))
    parts.append(chain_dot(product_chain(g, rewards, report.witness), title=g.name))
    zg, zr = unavoidable_zero_pomdp()
    parts.append(decide_limavg1(zg, zr).render(trace=True))
    parts.append(emit_model(*reduced_pomdp(reduce_pomdp(zg, zr), zr, name="reduced")))
    sigma = alternating_strategy(g, 0, 1)
    parts.append(
        simulate(g, rewards, sigma, SimConfig(steps=1500, runs=10)).render()
    )
    parts.append(emit_strategy(collapse(g, rewards, sigma), g))
    pg = projection_graph(g, sigma, fingerprints(g, rewards, sigma))
    parts.append(projection_dot(pg, g))
    return "\n".join(parts)


def test_criterion_10_reports_are_byte_identical_across_runs():
    assert full_report() == full_report()
