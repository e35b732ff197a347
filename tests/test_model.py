"""Core model types: distributions, validation, beliefs, rewards."""

import itertools
import random
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from asmp import (
    Distr,
    ModelError,
    Pomdp,
    RewardFn,
    almost_safe,
    is_belief_observation,
    reduce_pomdp,
    restrict_safe,
    validate,
    validate_pfa,
)
from asmp.bits import bits, mask_of
from asmp.gadgets import (
    ring_pomdp,
    ring_pomdp_with_orphan,
    trap_ring_pomdp,
    two_state_pfa,
    unavoidable_zero_pomdp,
)
from asmp.model import ObservedModel, belief_obs, belief_successors

from helpers import (
    hidden_model,
    random_belief_obs_pomdp,
    random_pomdp,
    reference_is_belief_observation,
    reference_state_index,
)


class TestDistr:
    def test_zero_weights_dropped(self):
        d = Distr({0: Fraction(1), 1: 0})
        assert d.support() == (0,)
        assert d[1] == 0

    def test_string_fractions_accepted(self):
        d = Distr({0: "1/3", 1: "2/3"})
        assert d[0] == Fraction(1, 3)

    def test_floats_rejected(self):
        with pytest.raises(ModelError):
            Distr({0: 0.5})

    def test_uniform(self):
        d = Distr.uniform([2, 5, 7])
        assert all(d[k] == Fraction(1, 3) for k in (2, 5, 7))

    def test_check_reports_bad_total(self):
        assert Distr({0: "1/2"}).check() == ["weights sum to 1/2, not 1"]
        assert Distr({}).check() == ["empty distribution"]
        assert Distr.dirac(4).check() == []

    def test_hash_and_eq(self):
        assert Distr({0: 1}) == Distr.dirac(0)
        assert hash(Distr({0: 1})) == hash(Distr.dirac(0))


class TestValidation:
    def test_fixtures_are_well_formed(self):
        for build in (ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp):
            g, rewards = build()
            assert validate(g) == []
            assert rewards.check(g) == []

    def test_missing_row_reported(self):
        g, _ = ring_pomdp()
        rows = dict(g.rows)
        del rows[(1, 0)]
        broken = Pomdp(
            g.states, g.actions, g.observations, g.obs_of, rows, g.initial
        )
        assert any("missing transition row" in p for p in validate(broken))

    def test_shared_initial_observation_is_profile_dependent(self):
        g, _ = ring_pomdp()
        obs_of = [1] * g.n_states
        blind = Pomdp(
            g.states, g.actions, ["start", "u"], obs_of, g.rows, g.initial
        )
        assert any("initial" in p for p in validate(blind))
        assert validate(blind, require_unique_initial_obs=False) == []

    def test_row_outside_availability_reported(self):
        g, _ = ring_pomdp()
        restricted = Pomdp(
            g.states,
            g.actions,
            g.observations,
            g.obs_of,
            g.rows,
            g.initial,
            availability={0: (0,), 1: (0, 1)},
        )
        assert any("unavailable" in p for p in validate(restricted))

    @pytest.mark.parametrize(
        "classes, bad",
        [([(0, -1), (1,)], -1), ([(0, 1), (1,)], 1), ([(0, 3), (1,)], 3)],
        ids=["gap", "duplicate", "out-of-range"],
    )
    def test_classes_must_partition_the_states(self, classes, bad):
        """A slot left empty, a state listed twice and an id past the last
        state are each rejected, never stored under a wrong state."""
        with pytest.raises(ValueError) as err:
            ObservedModel(classes, {})
        assert str(err.value) == (
            "the classes do not partition states 0..2:"
            f" state id {bad} is out of range or listed twice"
        )

    def test_reward_check_reports_gaps_and_range(self):
        g, _ = ring_pomdp()
        r = RewardFn({(0, 0): 1, (0, 1): 2})
        problems = r.check(g)
        assert any("outside [0, 1]" in p for p in problems)
        assert any("missing reward" in p for p in problems)


class TestBeliefs:
    def test_initial_belief_is_the_start_state(self):
        g, _ = ring_pomdp()
        b = 1 << g.initial
        assert list(bits(b)) == [g.initial]
        assert belief_obs(g, b) == g.obs(g.initial)

    def test_one_step_scatter_covers_the_ring(self):
        g, _ = ring_pomdp()
        u = g.obs_id("u")
        nxt = dict(belief_successors(g, 1 << g.initial, 0))
        assert nxt[u] == mask_of(g.obs_states(u))

    def test_successor_beliefs_group_by_observation(self):
        g, _ = trap_ring_pomdp()
        u = g.obs_id("u")
        grouped = dict(belief_successors(g, mask_of(g.obs_states(u)), 0))
        assert set(grouped) == {u, g.obs_id("b")}
        assert grouped[u] == mask_of(g.obs_states(u))
        assert grouped[g.obs_id("b")] == 1 << g.state_id("B")

        rng = random.Random(12)
        for _ in range(40):
            g = random_pomdp(rng)
            for o in range(g.n_observations):
                cls = g.obs_states(o)
                supports = [
                    c for k in range(1, len(cls) + 1) for c in itertools.combinations(cls, k)
                ]
                for support, a in itertools.product(supports, g.avail(o)):
                    union = {t for s in support for t in g.support(s, a)}
                    expected = {
                        o2: frozenset(t for t in union if g.obs(t) == o2)
                        for o2 in sorted({g.obs(t) for t in union})
                    }
                    got = belief_successors(g, mask_of(support), a)
                    assert got == [(o2, mask_of(ts)) for o2, ts in expected.items()]


class TestObservationRows:
    def test_place_masks_match_the_rows(self):
        """``obs_rows[o][i]`` holds, for the i-th action of o, one place map
        per target observation, ascending; the mask at each place holds
        exactly the places of the row's successors in that observation."""
        rng = random.Random(17)
        for _ in range(60):
            g = random_pomdp(rng)
            assert len(g.obs_rows) == g.n_observations
            for o, table in enumerate(g.obs_rows):
                cls = g.obs_states(o)
                assert len(table) == len(g.avail(o))
                for a, entries in zip(g.avail(o), table):
                    targets = [o2 for o2, _ in entries]
                    assert targets == sorted(set(targets))
                    for o2, m in entries:
                        assert len(m) == len(cls)
                        assert any(m)
                    for p, s in enumerate(cls):
                        reached = [
                            g.obs_states(o2)[q] for o2, m in entries for q in bits(m[p])
                        ]
                        assert sorted(reached) == list(g.row(s, a).support())


class TestBeliefObservationCheck:
    def test_ring_fixtures_qualify(self):
        for build in (ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp):
            g, _ = build()
            ok, witness = is_belief_observation(g)
            assert ok and witness is None

    def test_orphan_breaks_it_with_a_shortest_witness(self):
        g, _ = ring_pomdp_with_orphan()
        ok, witness = is_belief_observation(g)
        assert not ok
        assert witness is not None
        assert witness[0] == "start" and witness[-1] == "u"
        assert len(witness) == 3

    def test_masks_agree_with_the_frozenset_reference(self):
        """Verdict and witness of the mask search equal those of the
        search over (support, observation) pairs of frozensets."""
        rng = random.Random(61)
        verdicts = Counter()
        for _ in range(300):
            g = random_pomdp(rng)
            got = is_belief_observation(g)
            assert got == reference_is_belief_observation(g)
            verdicts[got[0]] += 1
        assert set(verdicts) == {True, False}
        builds = (ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp)
        models = [build()[0] for build in builds + (ring_pomdp_with_orphan,)]
        for build in builds:
            bg = reduce_pomdp(*build())
            safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
            models += [bg, restrict_safe(bg, safety.y_star, safety.allow_map)]
        for g in models:
            assert is_belief_observation(g) == reference_is_belief_observation(g)


def flat_classes(classes):
    """The flat constructor input of ``ObservedModel`` holding ``classes``,
    with every state's observation and place left at 0."""
    members = array("I", itertools.chain.from_iterable(classes))
    offsets = array("I", itertools.accumulate(map(len, classes), initial=0))
    blank = array("I", [0]) * len(members)
    return members, offsets, blank, array("I", blank)


def models_for_the_class_oracle():
    """The gadgets, hidden-5..7 and seeded random POMDPs, with the
    reductions of all but the last and of 60 seeded belief-observation
    models, and the safe restrictions of those reductions."""
    bases = [make() for make in (ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp)]
    bases += [hidden_model(n, 100 + n) for n in (5, 6, 7)]
    rng = random.Random(47)
    bases += [random_belief_obs_pomdp(rng) for _ in range(60)]
    rng = random.Random(71)
    models = [g for g, _ in bases] + [random_pomdp(rng) for _ in range(40)]
    for g, rewards in bases:
        bg = reduce_pomdp(g, rewards)
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        models += [bg, restrict_safe(bg, safety.y_star, safety.allow_map)]
    return models


class TestClassStorage:
    """Classes kept flat against the list-based derivation they replaced."""

    def test_classes_and_index_match_the_list_reference(self):
        """Every model's classes are tuples, and each state's observation and
        place equal the reference derived from them; the same classes given
        as a list build the same model."""
        for m in models_for_the_class_oracle():
            classes = [m.obs_states(o) for o in range(m.n_observations)]
            assert all(type(cls) is tuple for cls in classes)
            want = reference_state_index(classes)
            assert (list(m.obs_of), list(m.obs_index)) == want
            assert m.n_states == len(want[0])
            assert m.obs_sizes() == [len(cls) for cls in classes]
            twin = ObservedModel(classes, m.availability)
            assert (list(twin.obs_of), list(twin.obs_index)) == want
            assert [twin.obs_states(o) for o in range(m.n_observations)] == classes

    @pytest.mark.parametrize(
        "classes",
        [[(0, 1), (1,)], [(2, 0), (0,)], [(0, 3), (1,)], [(0,), (1, 7, 2)]],
        ids=["duplicate", "duplicate-first", "out-of-range", "out-of-range-late"],
    )
    @pytest.mark.parametrize("flat", [False, True], ids=["list", "flat"])
    def test_partition_errors_match_the_reference(self, classes, flat):
        with pytest.raises(ValueError) as want:
            reference_state_index(classes)
        with pytest.raises(ValueError) as got:
            ObservedModel(flat_classes(classes) if flat else classes, {})
        assert str(got.value) == str(want.value)


class TestRewardFn:
    def test_from_state_rewards_is_total(self):
        g, _ = ring_pomdp()
        r = RewardFn.from_state_rewards(g, {0: 1})
        assert r.check(g) == []
        assert r.get(0, 1) == 1
        assert r.get(3, 0) == 0

    def test_get_missing_raises(self):
        with pytest.raises(ModelError):
            RewardFn({}).get(0, 0)


class TestPfaBasics:
    def test_fixture_validates(self):
        assert validate_pfa(two_state_pfa()) == []

    def test_unknown_letter_raises(self):
        with pytest.raises(ModelError):
            two_state_pfa().letter_id("z")
