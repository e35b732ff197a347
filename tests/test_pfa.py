"""Automaton embeddings: acceptance arithmetic, both blind reductions,
and the periodic strategies that read them.

The closed-form round means asserted here follow from a renewal argument:
the scripted cycle restarts at the split initial state every period, so
the class mean is expected reward per round over round length.
"""

from fractions import Fraction

import pytest

from asmp import (
    Distr,
    ModelError,
    Pfa,
    acceptance_probability,
    almost_sure_limavg_gt,
    bscc_mean_payoff,
    check_loop_strategy,
    decide_limavg1,
    interleaved_word_strategy,
    product_chain,
    recurrent_classes,
    reduce_quantitative,
    reduce_value1,
    validate,
    validate_pfa,
    word_strategy,
)
from asmp.gadgets import accepting_start_pfa, ring_pomdp, two_state_pfa

from helpers import acceptance_by_paths, all_words, random_pfa

import random

HALF = Fraction(1, 2)


def coin_pfa() -> Pfa:
    """Single letter, fair coin into accept or reject: every non-empty word
    is accepted with probability exactly one half."""
    rows = {
        (0, 0): Distr({1: HALF, 2: HALF}),
        (1, 0): Distr.dirac(1),
        (2, 0): Distr.dirac(2),
    }
    return Pfa(
        states=["q0", "yes", "no"],
        alphabet=["a"],
        final=[1],
        initial=0,
        rows=rows,
        name="fair-coin",
    )


def retry_pfa() -> Pfa:
    """Acceptance of a^n is 1 - 2^-n: it climbs toward certainty but no
    single word ever reaches it."""
    rows = {
        (0, 0): Distr({0: HALF, 1: HALF}),
        (1, 0): Distr.dirac(1),
    }
    return Pfa(
        states=["q0", "qf"],
        alphabet=["a"],
        final=[1],
        initial=0,
        rows=rows,
        name="retry",
    )


def single_class_mean(g, rewards, sigma) -> Fraction:
    mc = product_chain(g, rewards, sigma)
    classes = recurrent_classes(mc)
    assert len(classes) == 1, "scripted rounds should renew in one class"
    return bscc_mean_payoff(mc, classes[0])


class TestAcceptanceProbability:
    def test_deterministic_language_membership(self):
        p = two_state_pfa()
        assert acceptance_probability(p, ["a"]) == 1
        assert acceptance_probability(p, ["a", "b"]) == 1
        assert acceptance_probability(p, ["a", "b", "b"]) == 1
        assert acceptance_probability(p, []) == 0
        assert acceptance_probability(p, ["b"]) == 0
        assert acceptance_probability(p, ["a", "a"]) == 0

    def test_probabilistic_values(self):
        assert acceptance_probability(coin_pfa(), ["a"]) == HALF
        p = retry_pfa()
        for n in range(5):
            assert acceptance_probability(p, ["a"] * n) == 1 - HALF**n

    def test_matches_path_expansion_on_random_automata(self):
        rng = random.Random(20260814)
        for _ in range(40):
            p = random_pfa(rng)
            assert validate_pfa(p) == []
            for w in all_words(p.alphabet, 3):
                assert acceptance_probability(p, w) == acceptance_by_paths(p, w)

    def test_unknown_letter_is_an_error(self):
        with pytest.raises(ModelError, match="unknown letter"):
            acceptance_probability(two_state_pfa(), ["z"])


class TestQuantitativeReduction:
    def test_structure(self):
        p = two_state_pfa()
        g, rewards = reduce_quantitative(p)
        assert g.states == [
            "q0_1", "q0_0", "q1_1", "q1_0", "dead_1", "dead_0",
            "good", "bad", "sink",
        ]
        assert g.actions == ["a", "b", "adv", "chk"]
        assert g.observations == ["o"]
        assert g.initial == 0
        assert g.avail(0) == (0, 1, 2, 3)
        assert g.name == "a-then-b-star-halves"
        assert validate(g, require_unique_initial_obs=False) == []
        assert rewards.check(g) == []

    def test_transitions_route_out_of_turn_actions_to_the_sink(self):
        g, _ = reduce_quantitative(two_state_pfa())
        s = {name: i for i, name in enumerate(g.states)}
        a, b, adv, chk = range(4)
        assert g.row(s["q0_1"], adv) == Distr.dirac(s["q0_0"])
        for wrong in (a, b, chk):
            assert g.row(s["q0_1"], wrong) == Distr.dirac(s["sink"])
        assert g.row(s["q0_0"], a) == Distr.dirac(s["q1_1"])
        assert g.row(s["q0_0"], b) == Distr.dirac(s["dead_1"])
        assert g.row(s["q0_0"], adv) == Distr.dirac(s["sink"])
        assert g.row(s["q1_0"], chk) == Distr.dirac(s["good"])
        assert g.row(s["q0_0"], chk) == Distr.dirac(s["bad"])
        assert g.row(s["good"], chk) == Distr.dirac(s["q0_1"])
        assert g.row(s["good"], a) == Distr.dirac(s["sink"])
        assert all(
            g.row(s["sink"], x) == Distr.dirac(s["sink"]) for x in range(4)
        )

    def test_rewards_sit_on_rewarded_copies_and_good(self):
        g, rewards = reduce_quantitative(two_state_pfa())
        paying = {i for i, name in enumerate(g.states)
                  if name.endswith("_1") or name == "good"}
        for s in range(len(g.states)):
            for a in range(4):
                assert rewards.get(s, a) == (1 if s in paying else 0)

    def test_accepted_word_beats_one_half(self):
        g, rewards = reduce_quantitative(two_state_pfa())
        sigma = interleaved_word_strategy(g, ["a"])
        assert single_class_mean(g, rewards, sigma) == Fraction(3, 5)
        assert almost_sure_limavg_gt(product_chain(g, rewards, sigma), HALF)

    def test_rejected_word_falls_below_one_half(self):
        g, rewards = reduce_quantitative(two_state_pfa())
        sigma = interleaved_word_strategy(g, ["b"])
        assert single_class_mean(g, rewards, sigma) == Fraction(2, 5)
        assert not almost_sure_limavg_gt(product_chain(g, rewards, sigma), HALF)

    def test_empty_word_on_an_accepting_start(self):
        g, rewards = reduce_quantitative(accepting_start_pfa())
        sigma = interleaved_word_strategy(g, [])
        assert single_class_mean(g, rewards, sigma) == Fraction(2, 3)
        assert almost_sure_limavg_gt(product_chain(g, rewards, sigma), HALF)

    def test_half_accepted_word_lands_exactly_on_the_threshold(self):
        g, rewards = reduce_quantitative(coin_pfa())
        sigma = interleaved_word_strategy(g, ["a"])
        assert single_class_mean(g, rewards, sigma) == HALF
        assert not almost_sure_limavg_gt(product_chain(g, rewards, sigma), HALF)

    def test_round_mean_reflects_acceptance_on_random_automata(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_pfa(rng, max_states=3, max_letters=2)
            g, rewards = reduce_quantitative(p)
            for w in all_words(p.alphabet, 2):
                m = len(w) + 1
                mu = acceptance_probability(p, w)
                sigma = interleaved_word_strategy(g, w)
                assert single_class_mean(g, rewards, sigma) == Fraction(
                    m + mu, 2 * m + 1
                )

    def test_alphabet_clash_with_new_actions_is_rejected(self):
        p = Pfa(
            states=["q"],
            alphabet=["adv"],
            final=[0],
            initial=0,
            rows={(0, 0): Distr.dirac(0)},
        )
        with pytest.raises(ModelError, match="collide"):
            reduce_quantitative(p)
        with pytest.raises(ModelError, match="collide"):
            reduce_value1(p)


class TestValue1Reduction:
    def test_structure(self):
        p = two_state_pfa()
        g, rewards = reduce_value1(p)
        assert g.states == ["q0", "q1", "dead", "good", "bad", "sink"]
        assert g.actions == ["a", "b", "adv", "chk"]
        assert g.initial == 0
        assert g.name == "a-then-b-star-limit"
        s = {name: i for i, name in enumerate(g.states)}
        a, b, adv, chk = range(4)
        # Letter rows are the automaton's own rows.
        assert g.row(s["q0"], a) == Distr.dirac(s["q1"])
        assert g.row(s["q1"], b) == Distr.dirac(s["q1"])
        assert g.row(s["q1"], adv) == Distr.dirac(s["good"])
        assert g.row(s["q0"], adv) == Distr.dirac(s["bad"])
        assert g.row(s["q0"], chk) == Distr.dirac(s["sink"])
        assert g.row(s["good"], chk) == Distr.dirac(s["good"])
        assert g.row(s["good"], adv) == Distr.dirac(s["q0"])
        assert g.row(s["good"], a) == Distr.dirac(s["sink"])
        assert validate(g, require_unique_initial_obs=False) == []
        assert rewards.check(g) == []
        for st in range(len(g.states)):
            for x in range(4):
                assert rewards.get(st, x) == (1 if st == s["good"] else 0)

    def test_check_loop_means_climb_toward_one(self):
        g, rewards = reduce_value1(two_state_pfa())
        want = {1: Fraction(1, 2), 3: Fraction(2, 3), 10: Fraction(11, 13)}
        for k, value in want.items():
            sigma = check_loop_strategy(g, ["a"], k)
            assert single_class_mean(g, rewards, sigma) == value
        means = [
            single_class_mean(g, rewards, check_loop_strategy(g, ["a"], k))
            for k in range(1, 7)
        ]
        assert means == sorted(set(means)), "longer probes must strictly help"
        assert all(m < 1 for m in means)

    def test_check_loop_threshold_is_strict(self):
        g, rewards = reduce_value1(two_state_pfa())
        at = product_chain(g, rewards, check_loop_strategy(g, ["a"], 1))
        above = product_chain(g, rewards, check_loop_strategy(g, ["a"], 3))
        assert not almost_sure_limavg_gt(at, HALF)
        assert almost_sure_limavg_gt(above, HALF)

    def test_certain_acceptance_allows_parking_on_good(self):
        g, rewards = reduce_value1(two_state_pfa())
        park = word_strategy(g, ["a", "adv"], ["chk"])
        mc = product_chain(g, rewards, park)
        assert almost_sure_limavg_gt(mc, Fraction(99, 100))
        classes = recurrent_classes(mc)
        assert [bscc_mean_payoff(mc, c) for c in classes] == [Fraction(1)]


class TestSolvingTheBlindInstances:
    def test_per_letter_split_never_reaches_average_one(self):
        g, rewards = reduce_quantitative(two_state_pfa())
        report = decide_limavg1(g, rewards)
        assert report.verdict == "NO"

    def test_certain_acceptance_makes_the_check_loop_solvable(self):
        g, rewards = reduce_value1(two_state_pfa())
        report = decide_limavg1(g, rewards)
        assert report.verdict == "YES"
        assert report.validated is True

    def test_acceptance_approaching_one_is_not_enough(self):
        g, rewards = reduce_value1(retry_pfa())
        report = decide_limavg1(g, rewards)
        assert report.verdict == "NO"


class TestWordStrategies:
    def test_positions_wrap_into_the_cycle(self):
        g, _ = ring_pomdp()
        sigma = word_strategy(g, ["a"], ["b", "a"])
        assert sigma.memories == ["step0:a", "step1:b", "step2:a"]
        assert sigma.initial == 0
        a, b = g.action_id("a"), g.action_id("b")
        assert sigma.next_action[0] == Distr.dirac(a)
        for o in range(g.n_observations):
            assert sigma.update_row(0, o, a) == Distr.dirac(1)
            assert sigma.update_row(1, o, b) == Distr.dirac(2)
            # The wrap returns to the cycle start, not the prefix.
            assert sigma.update_row(2, o, a) == Distr.dirac(1)

    def test_empty_cycle_is_rejected(self):
        g, _ = ring_pomdp()
        with pytest.raises(ModelError, match="cycle"):
            word_strategy(g, ["a"], [])

    def test_check_count_must_be_positive(self):
        g, _ = reduce_value1(two_state_pfa())
        with pytest.raises(ModelError, match="checks"):
            check_loop_strategy(g, ["a"], 0)

    def test_interleaving_advances_before_every_letter(self):
        g, _ = reduce_quantitative(two_state_pfa())
        sigma = interleaved_word_strategy(g, ["a", "b"])
        played = [d.support() for d in sigma.next_action]
        adv, chk = g.action_id("adv"), g.action_id("chk")
        a, b = g.action_id("a"), g.action_id("b")
        assert played == [
            (adv,), (a,), (adv,), (b,), (adv,), (chk,), (chk,)
        ]
