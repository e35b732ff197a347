"""Belief-observation reduction: fold candidate memories into the state space.

The reduced POMDP alternates action-selection states (s, cm) and
memory-selection states (s', Y', a, cm), where cm ranges over collapsed
memories (belief, win map, recurrence map, action support). The hidden part
of a state is only the concrete POMDP state; belief and memory sit in the
observation, so every reachable belief equals its observation class and
memoryless strategies suffice. Actions that a winning quotient strategy
could never take route to an absorbing losing sink instead.

Memories are kept canonical (win/rec masked to the belief). Every predicate
here and in the fixpoint solver reads the maps only at belief states, so
canonicalization quotients the construction by a bisimulation that respects
observations, availability, and rewards. It is what makes the construction
feasible: free map bits outside the belief would square the fan-out twice.

Each state and observation is named by its payload, a kind tag followed by
integers, which is also its lookup key. Memories appear by memory-action id:

* action-selection state ``("act", s, aid)``, observation ``("act", aid)``;
* memory-selection state ``("mem", t, ymask2, a, aid)``, observation
  ``("mem", ymask2, a, aid)``: the hidden state t, the belief ``ymask2``
  reached after base action ``a``, and the memory ``aid`` that played it;
* the initial state and the losing sink, ``INIT`` and ``SINK``, which are
  also their own observations.

An observation's payload is its states' payload without the hidden state.
The CollapsedMemory objects live only in ``memory_actions``, interned by
their (belief, win, rec, acts) masks; ``BeliefObsPomdp.memory(aid)`` reads
them back. The breadth-first walk fixes the order in which payloads are
first met, and with it every id.

The successors are one table per state, filled as the walk expands the
state: ``supports[s][i]`` is the support of state s under the i-th action
of ``avail(obs(s))``. Availability tuples are sorted, so ``support(s, a)``
finds a's position by bisection; the fixpoints read the table directly.
"""

from __future__ import annotations

from bisect import bisect_left

from .bits import bits, mask_of, submasks, supermasks_within
from .collapse import CollapsedMemory, MemoryFingerprint
from .model import (
    CapacityError,
    ModelError,
    ObservedModel,
    Pomdp,
    RewardFn,
    belief_obs,
    belief_successors,
)

StatePayload = tuple
ObsPayload = tuple

INIT = ("init",)
SINK = ("sink",)
SINK_ROW = (1,)  # the losing sink is state 1


def enabled_action(cm: CollapsedMemory, a: int, reward1_mask: int) -> bool:
    """Is base action ``a`` playable at a memory without breaking the win?

    Requires ``a`` in the memory's action support and reward 1 at every
    belief state whose win and recurrence bits are both set.
    ``reward1_mask`` is the precomputed mask of states paying 1 under ``a``.
    """
    if not (cm.fp.acts >> a) & 1:
        return False
    critical = cm.belief & cm.fp.win & cm.fp.rec
    return critical & ~reward1_mask == 0


class BeliefObsPomdp(ObservedModel):
    """Reduced POMDP over action-selection and memory-selection states.

    Shares Pomdp's observation read side, and adds the rest of what the
    fixpoints, the belief-observation checker and support-only chain
    construction read: names, ``support`` and the row table ``supports``,
    which holds, at ``supports[s][i]``, the support of state s under the
    i-th action of ``avail(obs(s))``. There are no ``rows``: the reduction
    is a support graph and carries no probabilities or rewards. State 0 is
    the initial state, state 1 the losing sink. Base actions keep their ids
    from the source POMDP, then comes the abort action, then the interned
    memory actions.

    ``state_payloads`` and ``obs_payloads`` hold the integer payloads of the
    module docstring, which name memories by memory-action id;
    ``memory(aid)`` is the CollapsedMemory behind such an id.
    """

    def __init__(
        self,
        base: Pomdp,
        state_payloads: list[StatePayload],
        obs_payloads: list[ObsPayload],
        obs_of: list[int],
        supports: list[list[tuple[int, ...]]],
        availability: dict[int, tuple[int, ...]],
        memory_actions: list[CollapsedMemory],
    ):
        self.base = base
        self.state_payloads = state_payloads
        self.obs_payloads = obs_payloads
        self.supports = supports
        self.memory_actions = memory_actions
        self.initial = 0
        # Safety restriction prunes the sink together with its observation.
        self.sink = 1 if len(state_payloads) > 1 and state_payloads[1] == SINK else None
        super().__init__(obs_of, len(obs_payloads), availability)

    @property
    def n_actions(self) -> int:
        return self.base.n_actions + 1 + len(self.memory_actions)

    @property
    def abort_action(self) -> int:
        return self.base.n_actions

    def support(self, s: int, a: int) -> tuple[int, ...]:
        acts = self.availability[self.obs_of[s]]
        i = bisect_left(acts, a)
        if i < len(acts) and acts[i] == a:
            return self.supports[s][i]
        raise ModelError(
            f"no transition row for state {self.state_name(s)!r}"
            f" and action {self.action_name(a)!r}"
        )

    def memory(self, aid: int) -> CollapsedMemory:
        """The collapsed memory behind memory action ``aid``."""
        return self.memory_actions[aid - self.base.n_actions - 1]

    def state_name(self, s: int) -> str:
        p = self.state_payloads[s]
        if p == INIT:
            return "init"
        if p == SINK:
            return "sink"
        if p[0] == "act":
            cm = self.memory(p[2])
            return f"{self.base.state_name(p[1])}·{cm.pretty(self.base)}"
        return f"{self.base.state_name(p[1])}·{self.obs_name(self.obs_of[s])}"

    def action_name(self, a: int) -> str:
        if a < self.base.n_actions:
            return self.base.action_name(a)
        if a == self.abort_action:
            return "abort"
        return f"mem{a - self.base.n_actions - 1}"

    def obs_name(self, o: int) -> str:
        p = self.obs_payloads[o]
        if p == INIT:
            return "init"
        if p == SINK:
            return "sink"
        if p[0] == "act":
            return f"act{self.memory(p[1]).pretty(self.base)}"
        _, ymask, a, aid = p
        names = ",".join(self.base.state_name(t) for t in bits(ymask))
        return (
            f"upd[{names}|{self.base.action_name(a)}"
            f"|{self.memory(aid).pretty(self.base)}]"
        )

    def wcs_state_ids(self) -> list[int]:
        """Action-selection states whose own win and recurrence bits are set:
        the reachability target of the top-level decision procedure."""
        out = []
        for s, p in enumerate(self.state_payloads):
            if p[0] == "act":
                bit = 1 << p[1]
                fp = self.memory(p[2]).fp
                if fp.win & bit and fp.rec & bit:
                    out.append(s)
        return out

    def stats(self) -> dict[str, int]:
        return {
            "states": self.n_states,
            "observations": self.n_observations,
            "rows": sum(map(len, self.supports)),
            "memory_actions": len(self.memory_actions),
        }


def reduce_pomdp(
    g: Pomdp, rewards: RewardFn, max_states: int = 250_000
) -> BeliefObsPomdp:
    """Build the reachable fragment of the belief-observation reduction.

    Breadth-first from the initial state; exceeding ``max_states`` raises
    CapacityError with the partial counters, never a truncated model, and a
    cap below 1 is a ModelError.
    Enumeration order is fixed (lexicographic on bit patterns), so state
    numbering is reproducible.

    Lookups use integer keys only: a memory action by its four masks, and
    a state or observation by its payload.
    """
    if max_states < 1:
        raise ModelError(f"max_states must be at least 1, not {max_states}")
    n_base = g.n_actions
    abort = n_base
    reward1 = [0] * n_base
    for s, a in g.available_pairs():
        if rewards.get(s, a) == 1:
            reward1[a] |= 1 << s
    avail_mask = {
        o: mask_of(g.avail(o)) for o in range(g.n_observations)
    }

    state_payloads: list[StatePayload] = [INIT, SINK]
    obs_payloads: list[ObsPayload] = [INIT, SINK]
    obs_of: list[int] = [0, 1]
    # One row list per state, appended when the state is expanded and
    # filled in place, so a CapacityError counts the rows built so far.
    # The losing sink self-loops under the base actions and abort; its rows
    # for the memory actions are added once those are all known.
    init_row: list[tuple[int, ...]] = []
    supports: list[list[tuple[int, ...]]] = [init_row, [SINK_ROW] * (n_base + 1)]
    availability: dict[int, tuple[int, ...]] = {}
    memory_actions: list[CollapsedMemory] = []
    mid_by_masks: dict[tuple[int, int, int, int], int] = {}
    # Each state is kept as the singleton row into it: every row into an
    # action-selection state is one, and they share it.
    state_rows: dict[StatePayload, tuple[int]] = {}
    obs_ids: dict[ObsPayload, int] = {}

    def intern_memory_action(belief: int, win: int, rec: int, acts: int) -> int:
        key = (belief, win, rec, acts)
        got = mid_by_masks.get(key)
        if got is None:
            got = mid_by_masks[key] = n_base + 1 + len(memory_actions)
            memory_actions.append(
                CollapsedMemory(belief, MemoryFingerprint(win, rec, acts))
            )
        return got

    def intern(payload: StatePayload) -> tuple[int]:
        """Add a state its caller did not find, with its observation when
        that is new too, and return the singleton row into it."""
        obs_payload = (payload[0], *payload[2:])
        o = obs_ids.get(obs_payload)
        if o is None:
            o = obs_ids[obs_payload] = len(obs_payloads)
            obs_payloads.append(obs_payload)
        if len(state_payloads) >= max_states:
            built = BeliefObsPomdp(
                g,
                state_payloads,
                obs_payloads,
                obs_of,
                supports,
                availability,
                memory_actions,
            )
            raise CapacityError(
                f"reduction exceeded the cap of {max_states} states", built.stats()
            )
        got = state_rows[payload] = (len(state_payloads),)
        state_payloads.append(payload)
        obs_of.append(o)
        return got

    def memory_candidates(ymask2: int, a: int, cm: CollapsedMemory) -> list[int]:
        """Ids of the next memories enabled after ``a`` led to ``ymask2``,
        in CollapsedMemory order."""
        forced_w = 0
        for s in bits(cm.belief & cm.fp.win):
            forced_w |= mask_of(g.support(s, a))
        forced_w &= ymask2
        forced_r = 0
        for s in bits(cm.belief & cm.fp.rec):
            forced_r |= mask_of(g.support(s, a))
        forced_r &= ymask2
        acts2 = avail_mask[belief_obs(g, ymask2)]
        found = sorted(
            (w2, r2, a2)
            for w2 in supermasks_within(forced_w, ymask2)
            for r2 in supermasks_within(forced_r, ymask2)
            for a2 in submasks(acts2)
            if a2
        )
        return [intern_memory_action(ymask2, w2, r2, a2) for w2, r2, a2 in found]

    # Successor beliefs by observation per (belief, action), shared across
    # memories.
    post_cache: dict[tuple[int, int], dict[int, int]] = {}

    def posts(ymask: int, a: int) -> dict[int, int]:
        got = post_cache.get((ymask, a))
        if got is None:
            got = post_cache[(ymask, a)] = dict(belief_successors(g, ymask, a))
        return got

    y0 = 1 << g.initial
    init_actions = []
    for r, acts in sorted(
        (r, acts)
        for r in (0, y0)
        for acts in submasks(avail_mask[g.obs(g.initial)])
        if acts
    ):
        aid = intern_memory_action(y0, y0, r, acts)
        init_row.append(intern(("act", g.initial, aid)))
        init_actions.append(aid)
    # The initial memory actions are the first interned, so their ids
    # ascend and all exceed abort's.
    availability[0] = (abort, *init_actions)
    init_row.insert(0, SINK_ROW)

    # States are expanded in id order: the next one to expand is the first
    # without a row list, and its row list lands at its id.
    while len(supports) < len(state_payloads):
        payload = state_payloads[len(supports)]
        o = obs_of[len(supports)]
        row: list[tuple[int, ...]] = []
        supports.append(row)
        if payload[0] == "act":
            _, s, aid = payload
            cm = memory_actions[aid - abort - 1]
            if o not in availability:
                availability[o] = tuple(range(n_base))
            for a in range(n_base):
                if not enabled_action(cm, a, reward1[a]):
                    row.append(SINK_ROW)
                    continue
                grouped = posts(cm.belief, a)
                targets = set()
                for t in g.support(s, a):
                    key = ("mem", t, grouped[g.obs(t)], a, aid)
                    got = state_rows.get(key)
                    if got is None:
                        got = intern(key)
                    targets.add(got[0])
                row.append(tuple(sorted(targets)))
        else:
            _, s2, ymask2, a, aid = payload
            if o not in availability:
                cm = memory_actions[aid - abort - 1]
                acts = [abort] + memory_candidates(ymask2, a, cm)
                availability[o] = tuple(sorted(acts))
            # abort sorts first: memory-action ids exceed it.
            row.append(SINK_ROW)
            for aid2 in availability[o][1:]:
                key = ("act", s2, aid2)
                got = state_rows.get(key)
                if got is None:
                    got = intern(key)
                row.append(got)

    all_actions = tuple(range(n_base + 1 + len(memory_actions)))
    availability[1] = all_actions
    supports[1] = [SINK_ROW] * len(all_actions)

    return BeliefObsPomdp(
        base=g,
        state_payloads=state_payloads,
        obs_payloads=obs_payloads,
        obs_of=obs_of,
        supports=supports,
        availability=availability,
        memory_actions=memory_actions,
    )
