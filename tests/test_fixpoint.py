"""Observation-level fixpoints against enumeration oracles."""

import random

import pytest

from asmp import (
    ModelError,
    allow,
    almost_reach,
    almost_safe,
    reduce_pomdp,
    restrict_safe,
)
from asmp.gadgets import ring_pomdp, unavoidable_zero_pomdp

from helpers import (
    oracle_reach_obs,
    oracle_safe_obs,
    random_belief_obs_pomdp,
    random_pomdp,
)


def oracle_allow(g, o, obs_set):
    """Actions keeping every state of o's class inside obs_set, spelled out."""
    out = []
    for a in g.avail(o):
        if all(
            g.obs(t) in obs_set
            for s in g.obs_states(o)
            for t in g.support(s, a)
        ):
            out.append(a)
    return tuple(out)


class TestPrimitives:
    def test_allow_matches_its_definition(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_pomdp(rng)
            for trial in range(4):
                obs_set = frozenset(
                    o for o in range(g.n_observations) if rng.random() < 0.6
                )
                for o in obs_set:
                    assert allow(g, o, obs_set) == oracle_allow(g, o, obs_set)


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
            assert res.allow_map[o] == allow(bg, o, res.y_star)
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
        assert res.witness is None

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
