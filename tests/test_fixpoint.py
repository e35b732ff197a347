"""Observation-level fixpoints against enumeration oracles and against the
plain reference fixpoints of the helpers."""

import random
from functools import partial

import pytest

from asmp import (
    ModelError,
    almost_reach,
    almost_safe,
    reduce_pomdp,
    restrict_safe,
)
from asmp.fixpoint import _reversed
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp
from asmp.model import Pomdp
from asmp.reduction import BeliefObsPomdp

from helpers import (
    hidden_model,
    oracle_allow,
    oracle_reach_obs,
    oracle_safe_obs,
    random_belief_obs_pomdp,
    random_pomdp,
    reference_almost_reach,
    reference_almost_safe,
    reference_certify_reach,
)


def safety_fields(res):
    return res.iterates, list(res.allow_map.items()), res.y_star


def reach_fields(fixpoint, g, targets):
    """Every traced field of a reachability result, or the error it raised.
    Only the reference certifies its play, so a play of the library's
    fixpoint that fails certification shows as a difference."""
    try:
        res = fixpoint(g, targets)
    except ModelError as err:
        return str(err)
    return (
        res.z_iterates,
        res.x_rounds,
        list(res.allow_map.items()),
        res.z_star,
    )


class TestAlmostSafe:
    def test_matches_enumeration_on_random_models(self):
        rng = random.Random(31)
        for _ in range(60):
            g, _ = random_belief_obs_pomdp(rng)
            safe = frozenset(
                s for s in range(g.n_states) if rng.random() < 0.75
            )
            res = almost_safe(g, safe)
            assert res.y_star == oracle_safe_obs(g, safe)
            assert almost_safe(g, (s for s in safe)) == res

    def test_iterates_shrink_to_the_fixpoint(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        safe = [s for s in range(bg.n_states) if s != bg.sink]
        res = almost_safe(bg, safe)
        sizes = [len(it) for it in res.iterates]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes == [271, 127, 75, 39]
        assert len(res.y_star) == 39
        for o in res.y_star:
            assert res.allow_map[o] == oracle_allow(bg, o, res.y_star)
            assert res.allow_map[o]


class TestAlmostReach:
    def test_matches_enumeration_on_random_models(self):
        rng = random.Random(32)
        for _ in range(60):
            g, _ = random_belief_obs_pomdp(rng)
            targets = frozenset(
                s for s in range(g.n_states) if rng.random() < 0.3
            )
            res = almost_reach(g, targets)
            assert res.z_star == oracle_reach_obs(g, targets)

    def test_empty_target_gives_empty_result(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
        # Once the losing sink is carved away no surviving memory claims its
        # own state winning and recurrent, so the reach target is empty.
        assert restricted.wcs_state_ids() == []
        res = almost_reach(restricted, restricted.wcs_state_ids())
        assert res.z_star == frozenset()

    def test_trace_sizes_are_monotone(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
        res = almost_reach(restricted, restricted.wcs_state_ids())
        z_sizes = [len(it) for it in res.z_iterates]
        assert z_sizes == sorted(z_sizes, reverse=True)
        assert len(res.z_star) == 39
        for sizes in res.x_rounds:
            assert sizes == sorted(sizes)


class TestSharedAllowTuples:
    @pytest.mark.parametrize(
        "n, observations, distinct", [(6, 1019, 40), (7, 3048, 113)]
    )
    def test_one_tuple_object_per_distinct_value(self, n, observations, distinct):
        """Both fixpoints hand out one allow tuple object per distinct value,
        on the reduction and on its restriction."""
        bg = reduce_pomdp(*hidden_model(n, 100 + n))
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
        reach = almost_reach(restricted, restricted.wcs_state_ids())
        for res in (safety, reach):
            values = res.allow_map.values()
            assert len(values) == observations
            assert len({id(v) for v in values}) == len(set(values)) == distinct


class TestReversal:
    @pytest.mark.parametrize(
        "make",
        [ring_pomdp, partial(hidden_model, 5, 105)]
        + [partial(random_pomdp, random.Random(seed)) for seed in range(20)],
    )
    def test_matches_the_spelled_out_reversal(self, make):
        """Each place map reversed into its target class: the places of the
        map that reach each target place, and those that reach any. One
        object per (map, class size), on reductions, which share their maps,
        and on plain POMDPs, which do not."""
        g = make()
        models = [g] if isinstance(g, Pomdp) else [reduce_pomdp(*g)]
        for g in models:
            cache = {}
            got = {}
            for table in g.obs_rows:
                for entries in table:
                    for o2, m in entries:
                        n = len(g.obs_states(o2))
                        back, reaching = rev = _reversed(m, n, cache)
                        assert back == tuple(
                            sum(1 << p for p, t in enumerate(m) if t >> q & 1)
                            for q in range(n)
                        )
                        assert reaching == sum(1 << p for p, t in enumerate(m) if t)
                        got.setdefault((id(m), n), set()).add(id(rev))
            assert all(len(ids) == 1 for ids in got.values())
            assert len({i for ids in got.values() for i in ids}) == len(got) == len(cache)


def with_obs_rows(bg, obs_rows):
    """A copy of the reduction ``bg`` with its observation-level table replaced."""
    return BeliefObsPomdp(
        base=bg.base,
        obs_payloads=bg.obs_payloads,
        classes=[bg.obs_states(o) for o in range(bg.n_observations)],
        obs_rows=obs_rows,
        memory_edges=bg.memory_edges,
        availability=bg.availability,
        memory_actions=bg.memory_actions,
    )


class TestRowLayout:
    @pytest.mark.parametrize("extra", [1, -1], ids=["one-row-more", "one-row-less"])
    def test_a_state_whose_rows_miss_its_actions_is_rejected(self, extra):
        """Each observation's edge rows are read against its explicit
        actions one for one. The initial state, alone in its observation,
        with a row too many or too few must stop the fixpoint, not shift the
        rows of the observations after it into the wrong groups."""
        bg = reduce_pomdp(*ring_pomdp())
        o = bg.obs(bg.initial)
        obs_rows = list(bg.obs_rows)
        rows = obs_rows[o]
        obs_rows[o] = rows + rows[:1] if extra > 0 else rows[:-1]
        broken = with_obs_rows(bg, obs_rows)
        with pytest.raises(ValueError):
            almost_safe(broken, range(broken.n_states))

    @pytest.mark.parametrize("extra", [1, -1], ids=["one-place-more", "one-place-less"])
    def test_a_place_map_that_misses_its_class_is_rejected(self, extra):
        """A place map has one entry per state of its source class. One entry
        more or less on a shared map must stop the fixpoint, not read the
        places of another state."""
        bg = reduce_pomdp(*ring_pomdp())
        o = next(
            o
            for o in range(bg.n_observations)
            if bg.obs_payloads[o][0] == "act"
            and len(bg.obs_states(o)) > 1
            and any(o2 != bg.obs(bg.sink) for o2, _ in bg.obs_rows[o][0])
        )
        obs_rows = list(bg.obs_rows)
        (o2, m), *rest = obs_rows[o][0]
        m = m + m[:1] if extra > 0 else m[:-1]
        obs_rows[o] = (((o2, m), *rest), *obs_rows[o][1:])
        broken = with_obs_rows(bg, obs_rows)
        with pytest.raises(ValueError):
            almost_safe(broken, range(broken.n_states))


class TestRestrictSafe:
    def test_unsafe_start_is_an_error(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        # Declare the start state unsafe; its observation falls out of the
        # safe set and restriction must refuse.
        res = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.initial])
        assert bg.obs(bg.initial) not in res.y_star
        with pytest.raises(ModelError):
            restrict_safe(bg, res.y_star, res.allow_map)

    def test_restriction_keeps_exactly_the_safe_classes(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
        assert restricted.stats() == {
            "states": 214,
            "observations": 39,
            "rows": 1063,
            "memory_actions": 198,
        }
        assert restricted.initial == 0
        kept = {bg.obs_payloads[o] for o in safety.y_star}
        assert {p for p in restricted.obs_payloads} == kept


class TestAgainstTheReferenceFixpoints:
    """The row-numbered fixpoints agree field by field with the pair-keyed
    safety worklist and the rescanning reachability fixpoint."""

    def test_random_models(self):
        rng = random.Random(44)
        for _ in range(200):
            g, _ = random_belief_obs_pomdp(rng)
            safe = frozenset(
                s for s in range(g.n_states) if rng.random() < 0.75
            )
            assert safety_fields(almost_safe(g, safe)) == safety_fields(
                reference_almost_safe(g, safe)
            )
            targets = frozenset(
                s for s in range(g.n_states) if rng.random() < 0.3
            )
            assert reach_fields(almost_reach, g, targets) == reach_fields(
                reference_almost_reach, g, targets
            )

    @pytest.mark.parametrize(
        "make",
        [ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp]
        + [
            pytest.param(partial(hidden_model, n, 100 + n), id=f"hidden-{n}")
            for n in (5, 6)
        ]
        + [
            pytest.param(
                partial(random_belief_obs_pomdp, random.Random(seed)),
                id=f"random-{seed}",
            )
            for seed in range(30)
        ],
    )
    def test_gadget_reductions(self, make):
        """On reductions, whose memory-selection rows the library reads as
        memory edges and the references derive one by one from
        ``support``: safety on the reduction and on its restriction,
        reachability on both."""
        bg = reduce_pomdp(*make())
        safe = [s for s in range(bg.n_states) if s != bg.sink]
        safety = almost_safe(bg, safe)
        assert safety_fields(safety) == safety_fields(
            reference_almost_safe(bg, safe)
        )
        models = [bg]
        if bg.obs(bg.initial) in safety.y_star:
            restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
            models.append(restricted)
            everything = range(restricted.n_states)
            assert safety_fields(almost_safe(restricted, everything)) == (
                safety_fields(reference_almost_safe(restricted, everything))
            )
        for g in models:
            # The solver's target, and whole observations of every kind:
            # absorbing memory-selection states stand for no memory edge.
            wcs = g.wcs_state_ids()
            classes = [s for o in range(0, g.n_observations, 3) for s in g.obs_states(o)]
            for targets in (wcs, classes):
                assert reach_fields(almost_reach, g, targets) == reach_fields(
                    reference_almost_reach, g, targets
                )


class TestCertification:
    """The uniform play over the fixpoint's own allowed actions, certified
    on the product chain of the absorbing view."""

    @staticmethod
    def certifies(g, targets) -> int:
        res = almost_reach(g, targets)
        if g.obs(g.initial) not in res.z_star:
            return 0
        reference_certify_reach(g, targets, res.allow_map)
        return 1

    def test_agrees_with_the_product_chain_reference(self):
        certified = 0
        for seed in range(45, 55):
            rng = random.Random(seed)
            for k in range(400):
                g = random_belief_obs_pomdp(rng)[0] if k % 2 else random_pomdp(rng)
                targets = frozenset(
                    s for s in range(g.n_states) if rng.random() < 0.3
                )
                certified += self.certifies(g, targets)
        # 2,725 of the 4,000 cases today.
        assert certified >= 2500, certified

    def test_agrees_on_reductions(self):
        # Reductions, where memory edges stand for most rows, and their
        # restrictions to the safe core.
        certified = 0
        for seed in range(46, 52):
            rng = random.Random(seed)
            for _ in range(60):
                bg = reduce_pomdp(*random_belief_obs_pomdp(rng))
                safe = [s for s in range(bg.n_states) if s != bg.sink]
                safety = almost_safe(bg, safe)
                g = bg
                if bg.obs(bg.initial) in safety.y_star:
                    g = restrict_safe(bg, safety.y_star, safety.allow_map)
                certified += self.certifies(g, frozenset(g.wcs_state_ids()))
        # 112 of the 360 cases today.
        assert certified >= 100, certified
