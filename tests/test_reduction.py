"""The belief-observation reduction: predicates, structure, invariants."""

import hashlib
import inspect
import itertools
import random
from functools import partial

import pytest

from asmp import (
    CapacityError,
    CollapsedMemory,
    MemoryFingerprint,
    ModelError,
    almost_safe,
    decide_limavg1,
    is_belief_observation,
    reduce_pomdp,
    restrict_safe,
    validate,
)
from asmp.bits import bits, mask_of
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp
from asmp.cli import build_parser
from asmp.reduction import DEFAULT_MAX_STATES, INIT, SINK, enabled_action

from helpers import (
    enabled_memory_action,
    hidden_model,
    random_belief_obs_pomdp,
    reduced_pomdp,
    reference_supports,
)


def rows_of(bg):
    """Every row of a reduced model as ((state, action), support) pairs."""
    return [((s, a), bg.support(s, a)) for s, a in bg.available_pairs()]


def payloads_of(bg):
    """The payload of every state of a reduced model, by state id."""
    return [bg.state_payload(s) for s in range(bg.n_states)]


def random_memory(rng, state_universe, action_universe):
    belief = 0
    while not belief:
        belief = rng.randrange(1, 1 << len(state_universe))
    win = rng.randrange(1 << len(state_universe)) & belief
    rec = rng.randrange(1 << len(state_universe)) & belief
    acts = 0
    while not acts:
        acts = rng.randrange(1, 1 << len(action_universe))
    return CollapsedMemory(belief, MemoryFingerprint(win, rec, acts))


class TestPredicates:
    def test_enabled_action_matches_set_arithmetic(self):
        g, rewards = ring_pomdp()
        rng = random.Random(11)
        reward1 = {
            a: {s for s in range(g.n_states)
                if a in g.avail(g.obs(s)) and rewards.get(s, a) == 1}
            for a in range(g.n_actions)
        }
        for _ in range(300):
            cm = random_memory(rng, range(g.n_states), range(g.n_actions))
            for a in range(g.n_actions):
                critical = (
                    set(bits(cm.belief)) & set(bits(cm.fp.win)) & set(bits(cm.fp.rec))
                )
                expected = bool((cm.fp.acts >> a) & 1) and critical <= reward1[a]
                got = enabled_action(cm, a, mask_of(reward1[a]))
                assert got == expected

    def test_enabled_memory_update_matches_set_arithmetic(self):
        g, _ = ring_pomdp()
        rng = random.Random(23)
        checked = 0
        for _ in range(400):
            cm = random_memory(rng, range(g.n_states), range(g.n_actions))
            a = rng.randrange(g.n_actions)
            post = {t for s in bits(cm.belief) for t in g.support(s, a)}
            by_obs = {}
            for t in post:
                by_obs.setdefault(g.obs(t), set()).add(t)
            for targets in by_obs.values():
                belief2 = mask_of(targets)
                cm2 = random_memory(rng, range(g.n_states), range(g.n_actions))
                if rng.random() < 0.5:
                    cm2 = CollapsedMemory(belief2, cm2.fp)

                ok = True
                if cm2.belief != belief2:
                    ok = False
                else:
                    for src, dst in (
                        (cm.fp.win, cm2.fp.win),
                        (cm.fp.rec, cm2.fp.rec),
                    ):
                        for s in set(bits(cm.belief)) & set(bits(src)):
                            forced = set(g.support(s, a)) & targets
                            if not forced <= set(bits(dst)):
                                ok = False
                assert enabled_memory_action(g, cm2, belief2, a, cm) == ok
                checked += 1
        assert checked > 200

    def test_memory_selection_offers_exactly_the_enabled_updates(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        checked = 0
        for o, payload in enumerate(bg.obs_payloads):
            if payload[0] != "mem":
                continue
            _, belief2, a, aid = payload
            cm = bg.memory(aid)
            within = [m for m in range(belief2 + 1) if m & ~belief2 == 0]
            acts2 = g.avail(g.obs(next(bits(belief2))))
            candidates = (
                CollapsedMemory(belief2, MemoryFingerprint(w, r, mask_of(acts)))
                for w in within
                for r in within
                for k in range(1, len(acts2) + 1)
                for acts in itertools.combinations(acts2, k)
            )
            expected = {
                cm2 for cm2 in candidates if enabled_memory_action(g, cm2, belief2, a, cm)
            }
            offered = {
                bg.memory(aid2) for aid2 in bg.avail(o) if aid2 != bg.abort_action
            }
            assert offered == expected
            checked += 1
        assert checked == 16


class TestReductionStructure:
    def test_frozen_size_on_the_ring(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        assert bg.stats() == {
            "states": 1592,
            "observations": 272,
            "rows": 30964,
            "memory_actions": 198,
        }

    @pytest.mark.parametrize(
        "make",
        [ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp]
        + [
            pytest.param(
                partial(random_belief_obs_pomdp, random.Random(seed)),
                id=f"random-{seed}",
            )
            for seed in range(10)
        ],
    )
    def test_rows_are_counted_from_availability(self, make):
        """Memory-selection rows are not stored, but each available pair
        still counts as one row, in the reduction and in its restriction."""
        bg = reduce_pomdp(*make())
        safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
        models = [bg]
        if bg.obs(bg.initial) in safety.y_star:
            models.append(restrict_safe(bg, safety.y_star, safety.allow_map))
        for g in models:
            rows = g.stats()["rows"]
            assert rows == sum(len(g.avail(g.obs(s))) for s in range(g.n_states))
            assert rows == len(rows_of(g))

    def test_start_and_sink_are_pinned(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        assert bg.state_payload(0) == INIT
        assert bg.state_payload(1) == SINK
        assert bg.initial == 0 and bg.sink == 1
        for a in range(bg.n_actions):
            assert bg.support(1, a) == (1,)

    def test_observation_classes_carry_whole_beliefs(self):
        """On the gadgets, hidden-5..7 and 60 seeded reductions, each with
        its restriction."""
        makes = [ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp]
        makes += [partial(hidden_model, n, 100 + n) for n in (5, 6, 7)]
        rng = random.Random(47)
        makes += [partial(random_belief_obs_pomdp, rng)] * 60
        for make in makes:
            check_classes(*make())

    def test_availability_by_state_kind(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        for s, payload in enumerate(payloads_of(bg)):
            acts = bg.avail(bg.obs(s))
            if payload[0] == "act":
                assert acts == tuple(range(g.n_actions))
            elif payload[0] == "mem" or payload == INIT:
                assert bg.abort_action in acts
                assert all(a > g.n_actions or a == bg.abort_action for a in acts)

    def test_rewards_follow_the_payload_kind(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        _, rp = reduced_pomdp(bg, rewards)
        seen_kinds = set()
        for s, payload in enumerate(payloads_of(bg)):
            for a in bg.avail(bg.obs(s)):
                r = rp.get(s, a)
                if payload == SINK:
                    assert r == 0
                elif payload == INIT or payload[0] == "mem":
                    assert r == 1
                else:
                    assert r == rewards.get(payload[1], a)
                seen_kinds.add(payload[0] if payload[0] in ("act", "mem") else payload)
        assert {"act", "mem", INIT, SINK} <= seen_kinds

    def test_reduction_is_belief_observation(self):
        for build in (unavoidable_zero_pomdp, trap_ring_pomdp):
            g, rewards = build()
            bg = reduce_pomdp(g, rewards)
            gp, rp = reduced_pomdp(bg, rewards, name="reduced")
            assert validate(gp) == []
            assert rp.check(gp) == []
            ok, witness = is_belief_observation(bg)
            assert ok, witness

    def test_random_reductions_are_belief_observation(self):
        rng = random.Random(7)
        done = 0
        for _ in range(12):
            g, rewards = random_belief_obs_pomdp(rng)
            try:
                bg = reduce_pomdp(g, rewards, max_states=40_000)
            except CapacityError:
                continue
            ok, witness = is_belief_observation(bg)
            assert ok, witness
            done += 1
        assert done >= 8

    def test_wcs_states_match_their_definition(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        expected = [
            s
            for s, p in enumerate(payloads_of(bg))
            if p[0] == "act"
            and bg.memory(p[2]).fp.win & (1 << p[1])
            and bg.memory(p[2]).fp.rec & (1 << p[1])
        ]
        assert bg.wcs_state_ids() == expected
        assert len(expected) > 0

    def test_disabled_actions_route_to_the_sink(self):
        g, rewards = ring_pomdp()
        bg = reduce_pomdp(g, rewards)
        reward1 = {a: 0 for a in range(g.n_actions)}
        for s, a in g.available_pairs():
            if rewards.get(s, a) == 1:
                reward1[a] |= 1 << s
        checked_sink = checked_live = 0
        for s, p in enumerate(payloads_of(bg)):
            if p[0] != "act":
                continue
            for a in range(g.n_actions):
                if enabled_action(bg.memory(p[2]), a, reward1[a]):
                    assert bg.sink not in bg.support(s, a)
                    checked_live += 1
                else:
                    assert bg.support(s, a) == (bg.sink,)
                    checked_sink += 1
        assert checked_sink and checked_live

    def test_two_runs_build_identical_models(self):
        g, rewards = trap_ring_pomdp()
        one = reduce_pomdp(g, rewards)
        two = reduce_pomdp(g, rewards)
        assert payloads_of(one) == payloads_of(two)
        assert one.obs_payloads == two.obs_payloads
        assert rows_of(one) == rows_of(two)
        assert one.availability == two.availability
        assert one.memory_actions == two.memory_actions

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                ring_pomdp,
                "c0e07f544e5278105fb9f2cd8263b84da06cd843a82ca7f1d83dda9f75ab1f76",
            ),
            (
                trap_ring_pomdp,
                "c4225666e7fef4ecb6727bb8a5ca42cf63dbe4b3f7b2ba1223f6e470ce63eddd",
            ),
            (
                unavoidable_zero_pomdp,
                "d7c4e111a23417425a115128daedab61663e3bcedcc55b341399ac300e3457e9",
            ),
        ],
    )
    def test_frozen_digest_of_the_gadget_reductions(self, make, digest):
        """Payload names, rows, availability and memory-action order, frozen
        from the reduction that looked states up by their payload tuples and
        kept its rows in a dict keyed by (state, action)."""
        bg = reduce_pomdp(*make())
        text = repr(
            (
                [bg.state_name(s) for s in range(bg.n_states)],
                [bg.obs_name(o) for o in range(bg.n_observations)],
                rows_of(bg),
                list(bg.availability.items()),
                [
                    (cm.belief, cm.fp.win, cm.fp.rec, cm.fp.acts)
                    for cm in bg.memory_actions
                ],
            )
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unavailable_pairs_have_no_row(self):
        """The row table answers only available pairs; the error text is the
        one the (state, action)-keyed store gave."""
        bg = reduce_pomdp(*ring_pomdp())
        act = "s0·(Y=s0 W=s0 R=- A=a)"
        for s, a, text in [
            (0, 0, "state 'init' and action 'a'"),
            (2, bg.abort_action, f"state {act!r} and action 'abort'"),
            (2, bg.n_actions - 1, f"state {act!r} and action 'mem197'"),
        ]:
            with pytest.raises(ModelError) as err:
                bg.support(s, a)
            assert str(err.value) == f"no transition row for {text}"

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_a_model_error(self, cap):
        with pytest.raises(ModelError) as err:
            reduce_pomdp(*ring_pomdp(), max_states=cap)
        assert str(err.value) == f"max_states must be at least 1, not {cap}"

    def test_one_default_cap_for_the_library_and_the_command_line(self):
        defaults = [
            inspect.signature(f).parameters["max_states"].default
            for f in (reduce_pomdp, decide_limavg1)
        ]
        defaults.append(build_parser().parse_args(["solve", "m.txt"]).max_states)
        assert defaults == [DEFAULT_MAX_STATES] * 3

    def test_capacity_error_reports_progress(self):
        """Message and counters frozen from the reduction that stored its
        rows in a dict, so rows are counted one at a time mid-expansion."""
        keys = ("states", "observations", "rows", "memory_actions")
        reached = {
            50: (50, 16, 21, 6),
            100: (100, 61, 67, 198),
            1000: (1000, 208, 971, 198),
        }
        for make in (ring_pomdp, trap_ring_pomdp):
            for cap, counts in reached.items():
                with pytest.raises(CapacityError) as err:
                    reduce_pomdp(*make(), max_states=cap)
                assert str(err.value) == f"reduction exceeded the cap of {cap} states"
                assert err.value.stats == dict(zip(keys, counts))


def check_classes(g, rewards):
    """Each class of the reduction of (g, rewards) and of its restriction
    lists one state per state of its belief, by hidden state, and the
    state payloads are pairwise distinct. The restriction keeps every
    kept state's payload and place."""
    bg = reduce_pomdp(g, rewards)
    safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
    models = [bg]
    if bg.obs(bg.initial) in safety.y_star:
        models.append(restrict_safe(bg, safety.y_star, safety.allow_map))
    for m in models:
        payloads = payloads_of(m)
        assert len(set(payloads)) == len(payloads)
        for o in range(m.n_observations):
            payload = m.obs_payloads[o]
            members = m.obs_states(o)
            if payload in (INIT, SINK):
                assert [payloads[s] for s in members] == [payload]
                continue
            if payload[0] == "act":
                belief = m.memory(payload[1]).belief
            else:
                _, belief, _, _ = payload
            assert [payloads[s][1] for s in members] == list(bits(belief))
    if len(models) == 2:
        kept = sorted(s for o in safety.y_star for s in bg.obs_states(o))
        restricted = models[1]
        assert restricted.n_states == len(kept)
        for s2, s in enumerate(kept):
            assert restricted.state_payload(s2) == bg.state_payload(s)
            assert restricted.obs_index[s2] == bg.obs_index[s]


def check_derived_rows(g, rewards):
    """``support`` of every available pair of the reduction of (g, rewards)
    and of its restriction against the per-state reference rows, and the
    error text of an unavailable pair at every state."""
    bg = reduce_pomdp(g, rewards)
    safety = almost_safe(bg, [s for s in range(bg.n_states) if s != bg.sink])
    models = [bg]
    if bg.obs(bg.initial) in safety.y_star:
        models.append(restrict_safe(bg, safety.y_star, safety.allow_map))
    for m in models:
        want = reference_supports(m, rewards)
        for s in range(m.n_states):
            acts = m.avail(m.obs(s))
            assert [m.support(s, a) for a in acts] == want[s]
            present = set(acts)
            every = range(m.n_actions)
            first = next((a for a in every if a not in present), None)
            last = next((a for a in reversed(every) if a not in present), None)
            for a in {first, last} - {None}:
                with pytest.raises(ModelError) as err:
                    m.support(s, a)
                assert str(err.value) == (
                    f"no transition row for state {m.state_name(s)!r}"
                    f" and action {m.action_name(a)!r}"
                )


class TestDerivedRows:
    """``support`` derives each row from the observation-level table: the
    shared place maps of the explicit actions and the memory edges."""

    @pytest.mark.parametrize(
        "make",
        [ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp]
        + [
            pytest.param(partial(hidden_model, n, 100 + n), id=f"hidden-{n}")
            for n in (5, 6, 7)
        ],
    )
    def test_rows_match_the_per_state_reference(self, make):
        check_derived_rows(*make())

    def test_rows_match_on_seeded_reductions(self):
        rng = random.Random(47)
        for _ in range(60):
            check_derived_rows(*random_belief_obs_pomdp(rng))


class TestReducedRewardAdapter:
    def test_adapter_reads_through(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        gp, _ = reduced_pomdp(bg, rewards)
        assert (gp.n_states, gp.n_observations) == (bg.n_states, bg.n_observations)
        assert list(gp.available_pairs()) == list(bg.available_pairs())
        for s, a in bg.available_pairs():
            assert gp.obs(s) == bg.obs(s)
            assert gp.support(s, a) == bg.support(s, a)

    def test_memory_counts_stay_within_the_quotient_bound(self):
        g, rewards = unavoidable_zero_pomdp()
        bg = reduce_pomdp(g, rewards)
        per_belief = {}
        for cm in bg.memory_actions:
            per_belief.setdefault(cm.belief, 0)
            per_belief[cm.belief] += 1
        for belief, count in per_belief.items():
            n = len(list(bits(belief)))
            assert count <= 4**n * (2**g.n_actions - 1)
