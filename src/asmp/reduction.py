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

Each state and observation is named by a payload, a kind tag followed by
integers. Memories appear by memory-action id:

* action-selection state ``("act", s, aid)``, observation ``("act", aid)``;
* memory-selection state ``("mem", t, ymask2, a, aid)``, observation
  ``("mem", ymask2, a, aid)``: the hidden state t, the belief ``ymask2``
  reached after base action ``a``, and the memory ``aid`` that played it;
* the initial state and the losing sink, ``INIT`` and ``SINK``, which are
  also their own observations.

An observation's payload is its states' payload without the hidden state,
and the only one stored: a state is its observation and its place, the
rank of its hidden state in the belief, where the walk puts it. The
payloads name observations for the reader; the walk and the solver find
an observation by id, never by payload. The CollapsedMemory objects live
only in ``memory_actions``, interned by their (belief, win, rec, acts)
masks; ``BeliefObsPomdp.memory(aid)`` reads them back. The breadth-first
walk fixes the order in which payloads are first met, and with it every id.

Successors come in the two observation-level tables of
``model.ObservedModel``; no state has a row of its own. A memory-selection
state (t, Y', a, aid) under memory action ``aid2`` moves to the
action-selection state (t, aid2), whose observation ``("act", aid2)`` does
not depend on t; the initial state, whose hidden state is the initial one,
moves the same way. These rows are nearly all of the reduction's rows:
``memory_edges[o]`` names the observation each memory action of o leads
to, and since both classes hold one state per state of the same belief,
ordering each class by hidden state pairs the states up. ``obs_rows``
holds the rest. Under an enabled base action a, ``("act", aid)`` leads to
one observation ``("mem", Y', a, aid)`` per successor belief Y', through a
place map that depends on (belief, a, Y') alone and is shared by every
memory of the belief: a mask per place of the belief, of the places of Y'
its state reaches. Abort, the base actions ``enabled_action`` rules
out and every action of the sink lead to the sink. ``support(s, a)`` finds
a's position by bisection in the sorted availability tuple and reads
either table.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, islice

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
# Reduced states built before the reduction gives up, unless told otherwise.
DEFAULT_MAX_STATES = 250_000


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
    construction read: names, ``support`` and the two successor tables of
    the module docstring. ``obs_rows[o]`` holds the (target observation,
    place map) pairs of o's explicit actions; ``memory_edges[o]`` the
    target observations of o's memory actions, which follow abort in its
    availability. There are no ``rows``: the reduction is a support graph
    and carries no probabilities or rewards. State 0 is the initial state,
    state 1 the losing sink. Base actions keep their ids from the source
    POMDP, then comes the abort action, then the interned memory actions.

    ``classes[o]`` holds one state per state of o's belief, by hidden state,
    so a state is named by its observation and place. ``obs_payloads`` holds
    the integer payloads of the module docstring, which name memories by
    memory-action id; ``memory(aid)`` is the CollapsedMemory behind such an
    id. ``state_payload`` derives a state's payload from its observation's.
    """

    def __init__(
        self,
        base: Pomdp,
        obs_payloads: list[ObsPayload],
        classes: list[tuple[int, ...]],
        obs_rows: list[tuple],
        memory_edges: dict[int, tuple[int, ...]],
        availability: dict[int, tuple[int, ...]],
        memory_actions: list[CollapsedMemory],
    ):
        self.base = base
        self.obs_payloads = obs_payloads
        self.obs_rows = obs_rows
        self.memory_edges = memory_edges
        self.memory_actions = memory_actions
        self.initial = 0
        # Safety restriction prunes the sink together with its observation.
        self.sink = 1 if len(obs_payloads) > 1 and obs_payloads[1] == SINK else None
        super().__init__(classes, availability)

    @property
    def n_actions(self) -> int:
        return self.base.n_actions + 1 + len(self.memory_actions)

    @property
    def abort_action(self) -> int:
        return self.base.n_actions

    def support(self, s: int, a: int) -> tuple[int, ...]:
        """The successors of an explicit action, ascending, read off the
        masks of its place maps at s's place; or the one state a memory edge
        moves s to, at s's place in the target's class."""
        o, p = self.obs_of[s], self.obs_index[s]
        acts = self.availability[o]
        i = bisect_left(acts, a)
        if i < len(acts) and acts[i] == a:
            n = len(self.obs_rows[o])
            if i < n:
                row = self.obs_rows[o][i]
                ts = [self.obs_states(o2)[j] for o2, m in row for j in bits(m[p])]
                return tuple(sorted(ts))
            return (self.obs_states(self.memory_edges[o][i - n])[p],)
        raise ModelError(
            f"no transition row for state {self.state_name(s)!r}"
            f" and action {self.action_name(a)!r}"
        )

    def memory(self, aid: int) -> CollapsedMemory:
        """The collapsed memory behind memory action ``aid``."""
        return self.memory_actions[aid - self.base.n_actions - 1]

    def state_payload(self, s: int) -> StatePayload:
        """The payload of state s, derived from its observation's and its place."""
        p = self.obs_payloads[self.obs_of[s]]
        if len(p) == 1:
            return p
        belief = p[1] if p[0] == "mem" else self.memory(p[1]).belief
        t = next(islice(bits(belief), self.obs_index[s], None))
        return (p[0], t, *p[1:])

    def state_name(self, s: int) -> str:
        p = self.state_payload(s)
        if len(p) == 1:
            return p[0]
        if p[0] == "act":
            return f"{self.base.state_name(p[1])}·{self.memory(p[2]).pretty(self.base)}"
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

    def wcs_place_masks(self) -> dict[int, int]:
        """The reachability target of the top-level decision procedure, the
        action-selection states whose own win and recurrence bits are set,
        as the mask of their places per observation that holds any."""
        places: dict[tuple[int, int], int] = {}
        out = {}
        for o, p in enumerate(self.obs_payloads):
            if p[0] == "act":
                cm = self.memory(p[1])
                key = (cm.belief, cm.fp.win & cm.fp.rec)
                m = places.get(key)
                if m is None:
                    m = places[key] = mask_of(
                        i for i, t in enumerate(bits(cm.belief)) if key[1] >> t & 1
                    )
                if m:
                    out[o] = m
        return out

    def wcs_state_ids(self) -> list[int]:
        """The states of `wcs_place_masks`, ascending."""
        return sorted(
            self.obs_states(o)[i]
            for o, m in self.wcs_place_masks().items()
            for i in bits(m)
        )

    def stats(self) -> dict[str, int]:
        return {
            "states": self.n_states,
            "observations": self.n_observations,
            "rows": sum(
                len(self.avail(o)) * len(self.obs_states(o))
                for o in range(self.n_observations)
            ),
            "memory_actions": len(self.memory_actions),
        }


def reduce_pomdp(
    g: Pomdp, rewards: RewardFn, max_states: int = DEFAULT_MAX_STATES
) -> BeliefObsPomdp:
    """Build the reachable fragment of the belief-observation reduction.

    Breadth-first from the initial state; exceeding ``max_states`` raises
    CapacityError with the partial counters, never a truncated model, and a
    cap below 1 is a ModelError.
    Enumeration order is fixed (lexicographic on bit patterns), so state
    numbering is reproducible.

    Lookups use integer keys only, and no payload is hashed: a memory
    action by its four masks; the observation ``("act", aid)`` in a list by
    memory-action id; a memory-selection observation in the plan of the
    action-selection observation it follows, which keeps one id slot per
    successor belief of each base action; and an action-selection state
    (t, aid) by whether aid is in ``made[t]``. The memory-selection states
    made from an action-selection observation under each base action are a
    mask of hidden states. A memory-selection state whose availability and
    hidden state were met together before has nothing left to make.
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

    obs_payloads: list[ObsPayload] = [INIT, SINK]
    # A slot per state of each class's belief, -1 until filled; and for the
    # walk only, each state's hidden state (none for INIT, SINK) and observation.
    classes: list[list[int]] = [[0], [1]]
    hidden, obs_of = [-1, -1], [0, 1]
    # Filled once per observation: the initial and memory-selection ones
    # when met, the action-selection ones and the sink's after the walk.
    obs_rows: list[tuple] = [(), ()]
    availability: dict[int, tuple[int, ...]] = {}
    memory_edges: dict[int, tuple[int, ...]] = {}
    memory_actions: list[CollapsedMemory] = []
    mid_by_masks: dict[tuple[int, int, int, int], int] = {}
    # made[t]: abort and each memory action aid such that the
    # action-selection state ("act", t, aid) exists.
    made: list[set[int]] = [{abort} for _ in range(g.n_states)]
    # act_obs[aid - abort - 1]: the observation ("act", aid), -1 until met.
    act_obs: list[int] = []

    def intern_memory_action(belief: int, win: int, rec: int, acts: int) -> int:
        key = (belief, win, rec, acts)
        got = mid_by_masks.get(key)
        if got is None:
            got = mid_by_masks[key] = n_base + 1 + len(memory_actions)
            memory_actions.append(
                CollapsedMemory(belief, MemoryFingerprint(win, rec, acts))
            )
            act_obs.append(-1)
        return got

    def new_obs(obs_payload: ObsPayload, belief: int) -> int:
        """Add an observation with an empty class of ``belief``; its id."""
        obs_payloads.append(obs_payload)
        obs_rows.append(())
        classes.append([-1] * belief.bit_count())
        return len(obs_payloads) - 1

    def act_obs_of(aid: int, belief: int) -> int:
        o = act_obs[aid - abort - 1]
        if o < 0:
            o = act_obs[aid - abort - 1] = new_obs(("act", aid), belief)
        return o

    def intern(o: int, belief: int, t: int, rows: int) -> None:
        """Add the state of hidden state t, which its caller did not find, at
        its place in the class of observation o, whose belief is ``belief``.
        ``rows`` counts the rows built so far, for the CapacityError."""
        if len(hidden) >= max_states:
            raise CapacityError(
                f"reduction exceeded the cap of {max_states} states",
                {
                    "states": len(hidden),
                    "observations": len(obs_payloads),
                    "rows": rows,
                    "memory_actions": len(memory_actions),
                },
            )
        classes[o][(belief & ((1 << t) - 1)).bit_count()] = len(hidden)
        hidden.append(t)
        obs_of.append(o)

    # Per (belief, base action): each state's successors as a mask, the
    # position of the successor belief holding each state they reach, and
    # each successor belief with its place map. Equal place maps share one
    # object.
    maps: dict[tuple, tuple] = {}
    post_cache: dict[tuple[int, int], tuple[dict, dict, list]] = {}

    def posts(ymask: int, a: int) -> tuple[dict, dict, list]:
        got = post_cache.get((ymask, a))
        if got is None:
            succ = {s: mask_of(g.support(s, a)) for s in bits(ymask)}
            belief_of, beliefs = {}, []
            for _, ymask2 in belief_successors(g, ymask, a):
                place = {t: j for j, t in enumerate(bits(ymask2))}
                belief_of.update(dict.fromkeys(place, len(beliefs)))
                m = tuple(
                    mask_of([place[t] for t in bits(succ[s] & ymask2)])
                    for s in bits(ymask)
                )
                beliefs.append((ymask2, maps.setdefault(m, m)))
            got = post_cache[(ymask, a)] = (succ, belief_of, beliefs)
        return got

    # Many memory-selection observations force the same win and recurrence
    # bits on the same belief, and so share their availability.
    choices_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def memory_choices(ymask2: int, a: int, cm: CollapsedMemory) -> tuple[int, ...]:
        """Availability after ``a`` led ``cm`` to ``ymask2``: abort, then
        the ids of the enabled next memories, ascending. New memories are
        interned in CollapsedMemory order."""
        succ = posts(cm.belief, a)[0]
        forced_w = 0
        for s in bits(cm.belief & cm.fp.win):
            forced_w |= succ[s]
        forced_w &= ymask2
        forced_r = 0
        for s in bits(cm.belief & cm.fp.rec):
            forced_r |= succ[s]
        forced_r &= ymask2
        key = (ymask2, forced_w, forced_r)
        got = choices_cache.get(key)
        if got is None:
            acts2 = avail_mask[belief_obs(g, ymask2)]
            found = sorted(
                (w2, r2, a2)
                for w2 in supermasks_within(forced_w, ymask2)
                for r2 in supermasks_within(forced_r, ymask2)
                for a2 in submasks(acts2)
                if a2
            )
            got = choices_cache[key] = tuple(
                sorted(
                    [abort]
                    + [intern_memory_action(ymask2, w2, r2, a2) for w2, r2, a2 in found]
                )
            )
        return got

    # Target observations by availability: those of ("act", aid2) for each
    # memory action aid2.
    edges_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    # An action into the losing sink, by the size of its source class.
    sinks: dict[int, tuple] = {}

    def to_sink(n: int) -> tuple:
        got = sinks.get(n)
        if got is None:
            got = sinks[n] = ((1, (1,) * n),)
        return got

    # Per (belief, enabled base actions) of an action-selection observation:
    # per base action, the posts of the belief or None for the sink; and per
    # base action, where its slots start in the observation's plan.
    layouts: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}
    # plans[o]: the layout of the action-selection observation o and one
    # list holding, per base action, the mask of hidden states t whose
    # memory-selection state after the action exists, and then per base
    # action one slot per successor belief, for the id of its observation,
    # -1 until met.
    plans: dict[int, tuple[tuple, list[int]]] = {}
    base_actions = tuple(range(n_base))
    # The (availability, hidden state) pairs of the memory-selection states
    # expanded so far, the availability by identity: a pair met again has
    # made every action-selection state its availability names.
    expanded: set[tuple[int, int]] = set()

    y0 = 1 << g.initial
    init_actions: list[int] = []
    for r, acts in sorted(
        (r, acts)
        for r in (0, y0)
        for acts in submasks(avail_mask[g.obs(g.initial)])
        if acts
    ):
        aid = intern_memory_action(y0, y0, r, acts)
        intern(act_obs_of(aid, y0), y0, g.initial, len(init_actions) + n_base + 1)
        init_actions.append(aid)
    made[g.initial].update(init_actions)
    # The initial memory actions are the first interned, so their ids
    # ascend and all exceed abort's.
    availability[0] = (abort, *init_actions)
    memory_edges[0] = tuple(act_obs[aid - abort - 1] for aid in init_actions)
    obs_rows[0] = (to_sink(1),)

    # Rows of the states expanded so far, the sink's base and abort rows
    # included: the CapacityError counts them as if every row were stored.
    rows = len(availability[0]) + n_base + 1
    # States are expanded in id order, h their hidden state; both lists grow.
    for h, o in islice(zip(hidden, obs_of), 2, None):
        payload = obs_payloads[o]
        if payload[0] == "act":
            aid = payload[1]
            plan = plans.get(o)
            if plan is None:
                cm = memory_actions[aid - abort - 1]
                availability[o] = base_actions
                enabled = tuple(enabled_action(cm, a, reward1[a]) for a in base_actions)
                layout = layouts.get((cm.belief, enabled))
                if layout is None:
                    post_of = tuple(
                        posts(cm.belief, a) if on else None
                        for a, on in zip(base_actions, enabled)
                    )
                    sizes = (len(post[2]) if post else 0 for post in post_of)
                    starts = tuple(accumulate(sizes, initial=n_base))
                    layout = layouts[(cm.belief, enabled)] = (post_of, starts)
                n_slots = layout[1][-1] - n_base
                plan = plans[o] = (layout, [0] * n_base + [-1] * n_slots)
            (post_of, starts), slots = plan
            for a, post in enumerate(post_of):
                if post is not None:
                    new = post[0][h] & ~slots[a]
                    slots[a] |= new
                    for t in bits(new):
                        j = post[1][t]
                        ymask2 = post[2][j][0]
                        o2 = slots[starts[a] + j]
                        if o2 < 0:
                            o2 = slots[starts[a] + j] = new_obs(
                                ("mem", ymask2, a, aid), ymask2
                            )
                        intern(o2, ymask2, t, rows + a)
        else:
            _, ymask2, a, aid = payload
            acts = availability.get(o)
            first_met = acts is None
            if first_met:
                cm = memory_actions[aid - abort - 1]
                acts = availability[o] = memory_choices(ymask2, a, cm)
            # abort sorts first: memory-action ids exceed it. Each missing
            # (h, aid2) is interned in availability order, at its row.
            pair = (id(acts), h)
            if pair not in expanded:
                expanded.add(pair)
                made_h = made[h]
                if not made_h.issuperset(acts):
                    for i, aid2 in enumerate(acts):
                        if aid2 not in made_h:
                            intern(act_obs_of(aid2, ymask2), ymask2, h, rows + i)
                            made_h.add(aid2)
            if first_met:
                targets = edges_cache.get(acts)
                if targets is None:
                    targets = edges_cache[acts] = tuple(
                        act_obs[aid2 - abort - 1] for aid2 in acts[1:]
                    )
                memory_edges[o] = targets
                obs_rows[o] = (to_sink(ymask2.bit_count()),)
        rows += len(availability[o])

    # Every target of an action-selection observation has been met by now.
    for o, ((post_of, starts), slots) in plans.items():
        n = len(classes[o])
        obs_rows[o] = tuple(
            to_sink(n)
            if post is None
            else tuple([(slots[starts[a] + j], m) for j, (_, m) in enumerate(post[2])])
            for a, post in enumerate(post_of)
        )
    all_actions = tuple(range(n_base + 1 + len(memory_actions)))
    availability[1] = all_actions
    obs_rows[1] = (to_sink(1),) * len(all_actions)

    return BeliefObsPomdp(
        base=g,
        obs_payloads=obs_payloads,
        classes=[tuple(cls) for cls in classes],
        obs_rows=obs_rows,
        memory_edges=memory_edges,
        availability=availability,
        memory_actions=memory_actions,
    )
