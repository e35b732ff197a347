"""End-to-end decision procedure: verdicts, witnesses, diagnoses, bridges.

The pipeline numbers asserted here (reduction sizes, fixpoint iterate
lengths, witness memory counts) were produced once by the implementation,
cross-checked against the fixpoint oracles in test_fixpoint, and frozen.
A change in any of them means the construction changed, not just an
internal detail.
"""

import dataclasses
import hashlib
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from asmp import (
    CapacityError,
    Distr,
    FiniteMemoryStrategy,
    MemorylessStrategy,
    ModelError,
    Pomdp,
    RewardFn,
    StrategyError,
    almost_reach,
    almost_safe,
    alternating_strategy,
    collapse,
    constant_strategy,
    decide_limavg1,
    emit_model,
    emit_strategy,
    limavg1_diagnosis,
    memoryless_to_finite_memory,
    product_chain,
    reduce_pomdp,
    restrict_safe,
    uniform_strategy,
    validate_strategy,
)
from asmp.bits import bits
from asmp.chains import _wins_on_masks
from asmp.cli import main
from asmp.collapse import CollapsedMemory
from asmp.fileformat import strategy_lines
from asmp.fixpoint import _reach
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp

from helpers import (
    finite_memory_to_memoryless,
    hidden_model,
    random_belief_obs_pomdp,
    random_pomdp,
    reduced_pomdp,
)


class TestVerdicts:
    def test_ring_is_yes_with_frozen_pipeline_numbers(self):
        g, r = ring_pomdp()
        report = decide_limavg1(g, r)
        assert report.verdict == "YES"
        assert report.reason == "the initial observation is almost-sure winning"
        assert report.reduction_stats == {
            "states": 1592,
            "observations": 272,
            "rows": 30964,
            "memory_actions": 198,
        }
        assert report.safety_sizes == [271, 127, 75, 39]
        assert report.y_star_size == 39
        assert report.wcs_size == 16
        assert report.z_star_size == 39
        assert report.witness is not None
        assert report.witness.n_memories == 16
        assert report.validated is True

    def test_trap_ring_is_yes(self):
        g, r = trap_ring_pomdp()
        report = decide_limavg1(g, r)
        assert report.verdict == "YES"
        assert report.reduction_stats == {
            "states": 3030,
            "observations": 730,
            "rows": 56126,
            "memory_actions": 204,
        }
        assert report.y_star_size == 110
        assert report.wcs_size == 16
        assert report.z_star_size == 110
        assert report.witness.n_memories == 19
        assert report.validated is True

    def test_unavoidable_zero_is_no_at_the_reach_stage(self):
        g, r = unavoidable_zero_pomdp()
        report = decide_limavg1(g, r)
        assert report.verdict == "NO"
        assert report.reason == (
            "the initial observation cannot almost-surely reach the"
            " winning-recurrent core"
        )
        # Wandering with empty recurrence commitments always dodges the
        # sink, so the refusal shows up as an empty target, never as an
        # unsafe initial observation.
        assert report.y_star_size == 15
        assert report.n_observations == 36
        assert report.wcs_size == 0
        assert report.z_star_size == 0
        assert report.witness is None
        assert report.validated is None

    def test_yes_witness_survives_independent_validation(self):
        g, r = ring_pomdp()
        report = decide_limavg1(g, r)
        ok, diag = validate_strategy(g, r, report.witness)
        assert ok and diag is None
        assert limavg1_diagnosis(product_chain(g, r, report.witness)) is None
        # Start memory is synthetic; every later memory is a collapsed one.
        assert report.witness.memories[0] == "init"
        assert all(
            isinstance(m, CollapsedMemory) for m in report.witness.memories[1:]
        )

    def test_incomplete_rewards_are_rejected_up_front(self):
        g, _ = ring_pomdp()
        with pytest.raises(ModelError, match="missing reward"):
            decide_limavg1(g, RewardFn({(0, 0): Fraction(1)}))

    def test_malformed_model_is_rejected_up_front(self):
        g = Pomdp(
            states=["s", "t"],
            actions=["a"],
            observations=["o", "p"],
            obs_of=[0, 1],
            rows={(0, 0): Distr({1: Fraction(1, 2)}), (1, 0): Distr.dirac(1)},
            initial=0,
        )
        r = RewardFn.from_state_rewards(g, {0: 1, 1: 1})
        with pytest.raises(ModelError) as e:
            decide_limavg1(g, r)
        assert str(e.value) == "state 's', action 'a': weights sum to 1/2, not 1"


def widened_reach(groups, goal, z):
    """The reachability fixpoint made wrong: Z* is the Z it starts from, and
    each of its observations allows every action the store allows there
    at the start."""
    allowed = groups.allow_map(z)
    res = _reach(groups, goal, z)
    return dataclasses.replace(res, z_star=z, allow_map=allowed)


class TestOneCheckPerYes:
    """The witness's validation is the one check before a YES: a wrong
    reachability fixpoint ends in a validated YES or an error, never in an
    unchecked YES."""

    def test_a_widened_fixpoint_yields_no_unvalidated_yes(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr("asmp.solver._reach", widened_reach)
        outcomes = Counter()
        rejected = None
        for k in range(200):
            g, r = random_belief_obs_pomdp(random.Random(k))
            try:
                report = decide_limavg1(g, r)
            except ModelError as err:
                if str(err).startswith("solver witness failed validation"):
                    outcomes["rejected"] += 1
                    rejected = rejected or (g, r)
                else:
                    outcomes["error"] += 1
                continue
            assert report.verdict == "YES" and report.validated, k
            outcomes["YES"] += 1
        # 137 rejected and 63 validated YES today.
        assert outcomes["rejected"] >= 100 and outcomes["YES"] >= 50, outcomes
        path = tmp_path / "rejected.txt"
        path.write_text(emit_model(*rejected), encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "input error: solver witness failed validation" in capsys.readouterr().err


def pipeline_cases():
    """The gadgets, hidden-5..7, 200 seeded belief-observation models and
    200 seeded plain POMDPs with rewards drawn from {0, 1/2, 1}."""
    yield from (ring_pomdp(), trap_ring_pomdp(), unavoidable_zero_pomdp())
    yield from (hidden_model(n, 100 + n) for n in (5, 6, 7))
    for seed in range(200):
        yield random_belief_obs_pomdp(random.Random(seed))
    for seed in range(200):
        rng = random.Random(seed)
        g = random_pomdp(rng)
        table = {pair: Fraction(rng.randint(0, 2), 2) for pair in g.available_pairs()}
        yield g, RewardFn(table)


class TestPipelineInvariants:
    def test_the_initial_observation_is_always_almost_safe(self):
        """Besides abort, only a base action outside the memory's action
        set, or one paying below 1 at a state whose win and recurrence bits
        are both set, leads to the losing sink. A memory with an empty
        recurrence map has no such state and always has an enabled action.
        The initial memory choice offers such memories (r = 0), and so does
        every memory choice after one (no recurrence bit is forced, so
        r2 = 0 stays on the list). Always choosing one never meets the sink,
        so the decision has no safety-NO outcome."""
        n = 0
        for g, rewards in pipeline_cases():
            bg = reduce_pomdp(g, rewards)
            safety = almost_safe(bg, (s for s in range(bg.n_states) if s != bg.sink))
            assert bg.obs(bg.initial) in safety.y_star, g.name
            n += 1
        assert n == 406

    def test_reach_on_the_shared_store_matches_reach_on_the_restriction(self):
        """``decide_limavg1`` runs reach on the reduction, on the store
        safety leaves, with Z starting at the safe core. It gives what
        reach gives on the restriction to that core, with the targets in
        it: equal Z sizes, inner rounds, Z* and allowed actions, matched by
        observation payload. Every allowed action at Z* keeps every state
        of its observation inside Z*, the targets included, which the
        unfolding needs."""
        cases = [ring_pomdp(), trap_ring_pomdp(), unavoidable_zero_pomdp()]
        cases += [hidden_model(n, 100 + n) for n in (5, 6, 7, 8)]
        cases += [random_belief_obs_pomdp(random.Random(seed)) for seed in range(300)]
        def named(model, obs):
            return {model.obs_payloads[o] for o in obs}

        winning = rows = 0
        for g, rewards in cases:
            bg, reach = decide_path_reach(g, rewards)
            safety = almost_safe(bg, (s for s in range(bg.n_states) if s != bg.sink))
            restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
            ref = almost_reach(restricted, restricted.wcs_state_ids())
            assert [named(bg, z) for z in reach.z_iterates] == [
                named(restricted, z) for z in ref.z_iterates
            ], g.name
            assert reach.x_rounds == ref.x_rounds, g.name
            assert {bg.obs_payloads[o]: acts for o, acts in reach.allow_map.items()} == {
                restricted.obs_payloads[o]: acts for o, acts in ref.allow_map.items()
            }, g.name
            z = reach.z_star
            if bg.obs(bg.initial) not in z:
                continue
            winning += 1
            for o in z:
                for a in reach.allow_map[o]:
                    for s in bg.obs_states(o):
                        rows += 1
                        leaving = [t for t in bg.support(s, a) if bg.obs(t) not in z]
                        assert leaving == [], (g.name, o, a, s)
        # 109 winning cases with 2,099,740 rows today.
        assert winning >= 100 and rows >= 2_000_000, (winning, rows)

    def test_the_reduction_is_released_before_validation(self, monkeypatch):
        """The witness is checked after the reduction is freed, so the two
        never sit in memory together at the frontier."""
        refs = []
        alive = []

        def tracked_reduce(*args, **kwargs):
            bg = reduce_pomdp(*args, **kwargs)
            refs.append(weakref.ref(bg))
            return bg

        def checked_validate(*args):
            alive.append(refs[0]() is not None)
            return _wins_on_masks(*args)

        monkeypatch.setattr("asmp.solver.reduce_pomdp", tracked_reduce)
        monkeypatch.setattr("asmp.solver._wins_on_masks", checked_validate)
        report = decide_limavg1(*ring_pomdp())
        assert report.verdict == "YES"
        assert alive == [False]


class TestOutOfMemory:
    """A MemoryError in a phase of the decision ends in a CapacityError that
    names the phase and carries the reduction's counters, raised after the
    frames that held the reduction are gone."""

    def test_in_the_walk_it_carries_the_counters_reached(self, monkeypatch):
        """The seventh memory action fails to allocate. The counters are
        those the walk had reached then, in the form of the cap error's,
        frozen from the first run."""
        made = []

        def failing_memory(*args):
            if len(made) == 6:
                raise MemoryError
            made.append(CollapsedMemory(*args))
            return made[-1]

        monkeypatch.setattr("asmp.reduction.CollapsedMemory", failing_memory)
        with pytest.raises(CapacityError) as err:
            decide_limavg1(*ring_pomdp())
        assert str(err.value) == "out of memory in phase reduce"
        assert err.value.stats == {
            "states": 56,
            "observations": 16,
            "rows": 22,
            "memory_actions": 6,
        }
        assert err.value.__context__ is None

    @pytest.mark.parametrize(
        "phase, name",
        [
            ("safe", "_safe"),
            ("reach", "_reach"),
            ("unfold", "memoryless_to_finite_memory"),
            ("validate", "_wins_on_masks"),
        ],
    )
    def test_after_the_walk_it_names_the_phase(self, monkeypatch, phase, name):
        refs = []

        def tracked_reduce(*args, **kwargs):
            bg = reduce_pomdp(*args, **kwargs)
            refs.append(weakref.ref(bg))
            return bg

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr("asmp.solver.reduce_pomdp", tracked_reduce)
        monkeypatch.setattr(f"asmp.solver.{name}", out_of_memory)
        g, rewards = ring_pomdp()
        with pytest.raises(CapacityError) as err:
            decide_limavg1(g, rewards)
        assert str(err.value) == f"out of memory in phase {phase}"
        assert err.value.stats == reduce_pomdp(g, rewards).stats()
        assert err.value.__context__ is None
        assert refs[0]() is None


class TestWitnessCheck:
    """A YES is proved on state masks over the witness's chain nodes; the
    product chain is built only when that proof fails, to explain it."""

    @pytest.mark.parametrize(
        "make", [ring_pomdp, trap_ring_pomdp, partial(hidden_model, 5, 105)]
    )
    def test_a_yes_builds_no_product_chain(self, make, monkeypatch):
        def refuse(*args):
            raise AssertionError("a YES built the product chain")

        for module in ("asmp.solver", "asmp.chains"):
            monkeypatch.setattr(f"{module}.product_chain", refuse)
            monkeypatch.setattr(f"{module}.limavg1_diagnosis", refuse)
        report = decide_limavg1(*make())
        assert report.verdict == "YES" and report.validated

    def failure(self, monkeypatch, g, r, sigma) -> str:
        """The error of a decision whose unfolding returns ``sigma``."""
        monkeypatch.setattr(
            "asmp.solver.memoryless_to_finite_memory", lambda bg, ml: sigma
        )
        with pytest.raises(ModelError) as err:
            decide_limavg1(g, r)
        return str(err.value)

    def test_a_losing_witness_fails_with_the_chain_diagnosis(self, monkeypatch):
        g, r = ring_pomdp()
        sigma = constant_strategy(g, 0)
        ok, diag = validate_strategy(g, r, sigma)
        assert not ok and diag.kind == "recurrent-class"
        text = self.failure(monkeypatch, g, r, sigma)
        assert text == f"solver witness failed validation: {diag.message}"

    def test_a_missing_update_row_fails_with_the_play_diagnosis(self, monkeypatch):
        g, r = ring_pomdp()
        sigma = FiniteMemoryStrategy(["only"], [Distr.dirac(0)], {}, 0)
        ok, diag = validate_strategy(g, r, sigma)
        assert not ok and diag.kind == "play"
        assert diag.message == (
            "no memory update for memory 'only', observation id 1, action id 0"
        )
        text = self.failure(monkeypatch, g, r, sigma)
        assert text == f"solver witness failed validation: {diag.message}"

    def test_an_unavailable_action_fails_with_the_play_diagnosis(self, monkeypatch):
        g, _ = ring_pomdp()
        # The ring with only 'a' at the start, which keeps it a YES.
        rows = {k: row for k, row in g.rows.items() if k != (g.initial, 1)}
        g = Pomdp(
            g.states, g.actions, g.observations, g.obs_of, rows, g.initial,
            availability={g.obs(g.initial): (0,)}, name="ring-a-first",
        )
        r = RewardFn.from_state_rewards(g, {s: 1 for s in (0, 1, 2, 5, 6)})
        assert decide_limavg1(g, r).verdict == "YES"
        sigma = constant_strategy(g, 1)
        ok, diag = validate_strategy(g, r, sigma)
        assert not ok and diag.kind == "play"
        assert diag.message == (
            "strategy plays 'b' at state 's0', unavailable at observation 'start'"
        )
        text = self.failure(monkeypatch, g, r, sigma)
        assert text == f"solver witness failed validation: {diag.message}"


def solver_output(g, rewards) -> str:
    """The traced report, followed by the witness as a strategy file."""
    report = decide_limavg1(g, rewards)
    text = report.render(trace=True)
    if report.witness is not None:
        text += emit_strategy(report.witness, g)
    return text


class TestFrozenOutputs:
    """Digests of the traced report and the witness file, frozen from the
    solver that stored every memory-selection row of the reduction."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                ring_pomdp,
                "178f89b0ada24c29b3745c4e26746729adb8e79b533886a2fe7fc66d74705193",
            ),
            (
                trap_ring_pomdp,
                "b218edf8ce45a61f2c00a8e650f5b58dc02ff19f9990e564792fcd67d5d713f5",
            ),
            (
                unavoidable_zero_pomdp,
                "058dfd39fb464281c3c74e439927072a4271c3803a37409004336d87724f1d03",
            ),
            pytest.param(
                partial(hidden_model, 5, 105),
                "5d642db376be1b23dd1fa136fc72ac43f8cd0da91bfcc881c94642138489a35c",
                id="hidden-5",
            ),
            pytest.param(
                partial(hidden_model, 6, 106),
                "18fb6e8515bbe4104e1ff53cd7a9d6b8c88c8e992603ea97ed222944f6ee2b62",
                id="hidden-6",
            ),
            pytest.param(
                partial(hidden_model, 7, 107),
                "f007ec061962992296a75ceef0d52f8ae6f253650add53891a31a15996812730",
                id="hidden-7",
            ),
        ],
    )
    def test_frozen_digest_of_the_solver_output(self, make, digest):
        text = solver_output(*make())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_frozen_digest_of_300_seeded_models(self):
        h = hashlib.sha256()
        yes = 0
        for seed in range(300):
            text = solver_output(*random_belief_obs_pomdp(random.Random(seed)))
            yes += text.startswith("verdict: YES")
            h.update(text.encode())
        assert yes == 103
        assert h.hexdigest() == (
            "b2fdfefb38977758bc7deec76ab6bf9eb767fec1d6025c996b83433c70012306"
        )


class TestValidateStrategy:
    def test_accepts_the_alternating_witness(self):
        g, r = ring_pomdp()
        ok, diag = validate_strategy(g, r, alternating_strategy(g, 0, 1))
        assert ok and diag is None

    def test_rejects_constant_play_with_a_recurrent_class_diagnosis(self):
        g, r = ring_pomdp()
        ok, diag = validate_strategy(g, r, constant_strategy(g, 0))
        assert not ok
        assert diag.kind == "recurrent-class"
        labels = {lab.split("·")[0] for lab in diag.class_labels}
        assert labels == {"X", "X'", "Y", "Y'", "Z", "Z'"}
        node, action = diag.pair
        assert action == "a"
        assert node.split("·")[0] in {"Y", "Y'"}
        assert diag.message.startswith("recurrent class {")
        assert diag.message.endswith("for reward below 1")

    def test_rejects_uniform_memoryless_play(self):
        g, r = ring_pomdp()
        ok, diag = validate_strategy(g, r, uniform_strategy(g))
        assert not ok
        assert diag.kind == "recurrent-class"
        # Memoryless chains label nodes by state name alone.
        assert set(diag.class_labels) == {"X", "X'", "Y", "Y'", "Z", "Z'"}

    def test_illegal_moves_come_back_as_play_diagnoses(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        u = g.observations.index("u")
        gaps = dict(sigma.update)
        for a in (0, 1):
            gaps.pop((0, u, a), None)
            gaps.pop((1, u, a), None)
        broken = FiniteMemoryStrategy(
            memories=list(sigma.memories),
            next_action=list(sigma.next_action),
            update=gaps,
            initial=sigma.initial,
        )
        ok, diag = validate_strategy(g, r, broken)
        assert not ok
        assert diag.kind == "play"
        assert "update" in diag.message
        assert diag.class_labels == ()
        assert diag.pair is None


class TestReportRendering:
    def test_equal_inputs_render_byte_equal(self):
        g, r = ring_pomdp()
        first = decide_limavg1(g, r).render(trace=True)
        second = decide_limavg1(g, r).render(trace=True)
        assert first == second
        assert first.endswith("\n")

    def test_wall_time_stays_out_of_the_text(self):
        g, r = ring_pomdp()
        report = decide_limavg1(g, r)
        text = report.render(trace=True)
        assert "wall" not in text
        assert report.stats["wall_s"] > 0
        assert not any(key in text for key in report.stats)
        phases = ["reduce_s", "safe_s", "reach_s", "unfold_s", "validate_s"]
        assert list(report.stats) == phases + ["wall_s"]
        assert all(report.stats[k] > 0 for k in phases)
        assert sum(report.stats[k] for k in phases) <= report.stats["wall_s"]

    def test_stats_time_only_the_phases_that_ran(self):
        g, r = unavoidable_zero_pomdp()
        report = decide_limavg1(g, r)
        assert report.verdict == "NO" and report.z_sizes is not None
        assert list(report.stats) == ["reduce_s", "safe_s", "reach_s", "wall_s"]

    def test_yes_text_carries_the_witness_line(self):
        g, r = ring_pomdp()
        text = decide_limavg1(g, r).render()
        assert text.splitlines()[0] == "verdict: YES"
        assert "witness: finite-memory strategy with 16 memories (validated)" in text

    def test_no_text_has_no_witness_line_and_no_trace_by_default(self):
        g, r = unavoidable_zero_pomdp()
        text = decide_limavg1(g, r).render()
        assert text.splitlines()[0] == "verdict: NO"
        assert "witness" not in text
        assert "trace" not in text


def decide_path_reach(g, r):
    """The reduction and the reach result of ``decide_limavg1`` on (g, r),
    taken from the call itself."""
    seen = []

    def recorded(groups, goal, z):
        res = _reach(groups, goal, z)
        seen.append((groups.g, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("asmp.solver._reach", recorded)
        decide_limavg1(g, r)
    return seen[0]


class TestSharedRows:
    """The witness is unfolded on shared rows: each distinct row of the
    reduction strategy is converted once, and the text does not depend on
    which rows are shared."""

    def test_witness_keeps_one_update_row_per_support(self):
        g, r = hidden_model(6, 106)
        rows = decide_limavg1(g, r).witness.update.values()
        supports = {d.support() for d in rows}
        assert len(rows) > 10 * len(supports)
        assert len({id(d) for d in rows}) <= len(supports)

    @pytest.mark.parametrize(
        "make",
        [
            ring_pomdp,
            trap_ring_pomdp,
            pytest.param(partial(hidden_model, 5, 105), id="hidden-5"),
        ],
    )
    def test_unshared_rows_unfold_to_the_same_text(self, make):
        g, r = make()
        bg, reach = decide_path_reach(g, r)
        allow_map = reach.allow_map
        uniform = {acts: Distr.uniform(acts) for acts in allow_map.values()}
        shared = {o: uniform[acts] for o, acts in allow_map.items()}
        unshared = {o: Distr.uniform(acts) for o, acts in allow_map.items()}
        texts = [
            emit_strategy(
                memoryless_to_finite_memory(bg, MemorylessStrategy(choice)), g
            )
            for choice in (shared, unshared)
        ]
        assert texts[0] == texts[1]
        assert texts[0] == emit_strategy(decide_limavg1(g, r).witness, g)


def moved_to(restricted, bg, sigma):
    """``sigma`` on ``bg`` as a strategy on ``restricted``, matched by
    observation payload."""
    new_id = {p: o for o, p in enumerate(restricted.obs_payloads)}
    return MemorylessStrategy(
        {new_id[bg.obs_payloads[o]]: row for o, row in sigma.choice.items()}
    )


class TestUnfoldFromTheTables:
    """The unfolding reads the observations a strategy steps through off
    the reduction's own tables by position: the memory edges for a memory
    action, the row of a base action found by bisection in the
    availability. A restriction keeps fewer actions, so the positions
    differ, and the text must not."""

    @pytest.mark.parametrize(
        "make",
        [
            ring_pomdp,
            trap_ring_pomdp,
            pytest.param(partial(hidden_model, 5, 105), id="hidden-5"),
            pytest.param(partial(hidden_model, 6, 106), id="hidden-6"),
        ],
    )
    def test_a_restriction_unfolds_to_the_same_text(self, make):
        g, r = make()
        bg, reach = decide_path_reach(g, r)
        # The solver's choice: uniform over the allowed actions.
        sigma = MemorylessStrategy(
            {o: Distr.uniform(acts) for o, acts in reach.allow_map.items()}
        )
        text = list(strategy_lines(memoryless_to_finite_memory(bg, sigma), g))
        assert text == list(strategy_lines(decide_limavg1(g, r).witness, g))
        safety = almost_safe(bg, (s for s in range(bg.n_states) if s != bg.sink))
        restrictions = [
            restrict_safe(bg, safety.y_star, safety.allow_map),
            restrict_safe(bg, reach.z_star, reach.allow_map),
        ]
        # The restriction to Z* drops base actions at some action-selection
        # observation, so its rows sit at other positions.
        assert any(
            len(restrictions[1].avail(o)) < len(bg.avail(o2))
            for o, p in enumerate(restrictions[1].obs_payloads)
            for o2 in [bg.obs_payloads.index(p)]
            if p[0] == "act"
        )
        for restricted in restrictions:
            unfolded = memoryless_to_finite_memory(
                restricted, moved_to(restricted, bg, sigma)
            )
            assert list(strategy_lines(unfolded, g)) == text

    def test_a_base_action_without_a_row_is_one_into_the_sink(self):
        g, r = ring_pomdp()
        bg, reach = decide_path_reach(g, r)
        restricted = restrict_safe(bg, reach.z_star, reach.allow_map)
        init = restricted.obs(restricted.initial)
        # The restriction drops abort: the memory actions are all there is.
        edges = restricted.memory_edges[init]
        assert len(restricted.avail(init)) == len(edges)
        for aid, o in zip(restricted.avail(init), edges):
            missing = sorted(set(range(g.n_actions)) - set(restricted.avail(o)))
            if missing:
                break
        else:
            raise AssertionError("every opening keeps every base action")
        a = missing[0]
        sigma = MemorylessStrategy({init: Distr.dirac(aid), o: Distr.dirac(a)})
        expected = (
            f"plays {restricted.action_name(a)!r} at observation"
            f" {restricted.obs_name(o)!r} into the losing sink"
        )
        with pytest.raises(StrategyError) as err:
            memoryless_to_finite_memory(restricted, sigma)
        assert expected in str(err.value)

    def test_an_unavailable_memory_action_is_rejected(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        init = bg.obs(bg.initial)
        absent = max(bg.avail(init)) + 1
        sigma = MemorylessStrategy({init: Distr.dirac(absent)})
        with pytest.raises(
            StrategyError,
            match=f"plays 'mem{absent - bg.abort_action - 1}' at observation"
            " 'init', where it is not available",
        ):
            memoryless_to_finite_memory(bg, sigma)
        aid, o, a = TestStrategyBridges.opening(bg, live=True)
        choice = {init: Distr.dirac(aid), o: Distr.dirac(a)}
        for o2, p in enumerate(bg.obs_payloads):
            if p[0] == "mem":
                choice[o2] = Distr.dirac(
                    min(set(range(bg.abort_action + 1, bg.n_actions)) - set(bg.avail(o2)))
                )
        with pytest.raises(
            StrategyError, match=r"at observation .upd\[.*, where it is not available"
        ):
            memoryless_to_finite_memory(bg, MemorylessStrategy(choice))


class TestTargetMasks:
    def test_the_target_masks_name_the_winning_recurrent_states(self):
        """The reach target of a decision is, per action-selection
        observation, the places of the states whose own win and recurrence
        bits are set, and ``wcs_size`` counts those in the safe core."""
        counted = 0
        for g, rewards in pipeline_cases():
            seen = []

            def recorded(groups, goal, z):
                seen.append((groups.g, goal, z))
                return _reach(groups, goal, z)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("asmp.solver._reach", recorded)
                report = decide_limavg1(g, rewards)
            ((bg, goal, y_star),) = seen
            expected = []
            for s in range(bg.n_states):
                p = bg.state_payload(s)
                if p[0] == "act":
                    fp = bg.memory(p[2]).fp
                    if (fp.win & fp.rec) >> p[1] & 1:
                        expected.append(s)
            masks = bg.wcs_place_masks()
            assert all(masks.values()), g.name
            named = sorted(bg.obs_states(o)[i] for o, m in masks.items() for i in bits(m))
            assert named == expected == bg.wcs_state_ids(), g.name
            assert goal == {o: m for o, m in masks.items() if o in y_star}, g.name
            kept = [s for s in expected if bg.obs(s) in y_star]
            assert report.wcs_size == len(kept), g.name
            counted += len(kept)
        # The sum of wcs_size over the 406 cases, as the state lists gave it.
        assert counted == 3829, counted


class TestStrategyBridges:
    def test_collapsed_winner_projects_to_a_winning_reduction_strategy(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        ml = finite_memory_to_memoryless(bg, collapsed)
        mc = product_chain(*reduced_pomdp(bg, r), ml)
        assert limavg1_diagnosis(mc) is None

    def test_collapsed_loser_projects_to_a_losing_reduction_strategy(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        collapsed = collapse(g, r, constant_strategy(g, 0))
        ml = finite_memory_to_memoryless(bg, collapsed)
        mc = product_chain(*reduced_pomdp(bg, r), ml)
        assert limavg1_diagnosis(mc) is not None

    def test_projection_and_unfolding_agree_on_the_verdict(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        back = memoryless_to_finite_memory(
            bg, finite_memory_to_memoryless(bg, collapsed)
        )
        ok, diag = validate_strategy(g, r, back)
        assert ok, diag

    def test_unfolding_requires_a_memory_opening(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        init_obs = bg.obs(bg.initial)
        for bad in (bg.abort_action, 0):
            sigma = MemorylessStrategy({init_obs: Distr.dirac(bad)})
            with pytest.raises(StrategyError, match="open with a memory action"):
                memoryless_to_finite_memory(bg, sigma)

    @staticmethod
    def opening(bg, live: bool):
        """The first initial memory action, and a base action at its
        observation whose rows stay out of the sink (``live``) or all go
        there."""
        for aid in bg.avail(bg.obs(bg.initial))[1:]:
            o = bg.obs_payloads.index(("act", aid))
            s = bg.obs_states(o)[0]
            for a in bg.avail(o):
                if (bg.support(s, a) != (bg.sink,)) == live:
                    return aid, o, a
        raise AssertionError("no such opening")

    def test_unfolding_rejects_abort_at_a_memory_choice(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        aid, o, a = self.opening(bg, live=True)
        choice = {bg.obs(bg.initial): Distr.dirac(aid), o: Distr.dirac(a)}
        for o2, p in enumerate(bg.obs_payloads):
            if p[0] == "mem":
                choice[o2] = Distr.dirac(bg.abort_action)
        with pytest.raises(
            StrategyError, match=r"chooses no memory action at observation .upd\["
        ):
            memoryless_to_finite_memory(bg, MemorylessStrategy(choice))

    def test_unfolding_rejects_a_base_action_into_the_sink(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        aid, o, a = self.opening(bg, live=False)
        choice = {bg.obs(bg.initial): Distr.dirac(aid), o: Distr.dirac(a)}
        expected = (
            f"plays {bg.action_name(a)!r} at observation {bg.obs_name(o)!r}"
            " into the losing sink"
        )
        with pytest.raises(StrategyError) as err:
            memoryless_to_finite_memory(bg, MemorylessStrategy(choice))
        assert expected in str(err.value)

    def test_projection_requires_collapsed_memory_labels(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        with pytest.raises(StrategyError, match="collapse it first"):
            finite_memory_to_memoryless(bg, alternating_strategy(g, 0, 1))

    def test_projection_rejects_colliding_memories_with_different_rows(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        label = collapsed.memories[0]
        twins = FiniteMemoryStrategy(
            memories=[label, label],
            next_action=[Distr.dirac(0), Distr.dirac(1)],
            update={},
            initial=0,
        )
        with pytest.raises(StrategyError, match="conflicting rows"):
            finite_memory_to_memoryless(bg, twins)

    def test_projection_tolerates_redundant_copies_with_equal_rows(self):
        g, r = ring_pomdp()
        bg = reduce_pomdp(g, r)
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        copy = len(collapsed.memories)
        update = dict(collapsed.update)
        for (m, o, a), row in collapsed.update.items():
            if m == 0:
                update[(copy, o, a)] = row
        doubled = FiniteMemoryStrategy(
            memories=list(collapsed.memories) + [collapsed.memories[0]],
            next_action=list(collapsed.next_action)
            + [collapsed.next_action[0]],
            update=update,
            initial=collapsed.initial,
        )
        ml_a = finite_memory_to_memoryless(bg, collapsed)
        ml_b = finite_memory_to_memoryless(bg, doubled)
        assert ml_a.choice == ml_b.choice
