"""Observation-level fixpoints for almost-sure safety and reachability.

Everything here works on observation sets rather than belief supports; the
models these run on are belief-observation POMDPs, where the two coincide.
Plain POMDPs and reduced ones share the observation read side of
``model.ObservedModel``, and with it the two successor tables: the
explicit rows ``supports[s]``, for the first actions of ``avail(obs(s))``,
and the memory edges ``memory_edges[o]``, for the rest, which move each
state of o to the state at the same place in the target observation's
class. A plain POMDP has only explicit rows; in a reduction the memory
edges stand for the memory-selection rows, nearly all of its rows. The
same solver drives both. The restriction to the safe core takes the
reduced model only, and builds the restricted tables from the allowed
positions of each observation.

Both fixpoints keep their bookkeeping in one store of (observation,
action) groups, one allowed flag each. Each state lists the explicit rows
that can enter it as (state, group) pairs. A memory group has no rows:
each observation lists the memory groups that lead into it. One rule
serves both fixpoints: when observations leave, every group that can lead
into one of them is disallowed. The iterates are sets, so the order of the
groups does not show in any result.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. The inner fixpoint is a
worklist too: a pass only visits the rows entering the states that joined
in the previous pass, which gives the same levels as rescanning every
pending state. The memory predecessors of a state are the states at its
place in the observations whose memory groups lead into its own, and the
observations of one target tuple let theirs join together. Allowed
actions are updated when observations leave the outer set. Reachability
results are certified before being returned, on the allowed rows
themselves: the states the witness reaches from the initial state, with
the target absorbing, must stay in the winning observations, and every
bottom class of that graph must meet the target. States with the same
memory successors reach them through one shared node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Sequence

from .model import ModelError
from .chains import bottom_classes
from .reduction import BeliefObsPomdp


@dataclass(frozen=True)
class SafetyResult:
    y_star: frozenset[int]
    allow_map: dict[int, tuple[int, ...]]
    iterates: list[frozenset[int]]


@dataclass(frozen=True)
class ReachResult:
    z_star: frozenset[int]
    allow_map: dict[int, tuple[int, ...]]
    z_iterates: list[frozenset[int]]
    x_rounds: list[list[int]]


class _Groups:
    """The (observation, action) groups of ``g`` with their ``allowed``
    flags, which only ``remove`` clears, indexed by the states they can
    enter. The rows of the states in ``skip`` are left out; a state whose
    rows do not match its observation's explicit actions raises ValueError.

    The group of (o, a) is ``first[o] + i`` for the i-th action of
    ``g.avail(o)``. ``pred[t]`` lists the explicit rows entering state t
    flat, as ``s0, k0, s1, k1, ...``: a row of state s in group k.
    Observations with one tuple of memory-edge targets share its entry u:
    ``users[u]`` lists them, and ``into[o2]`` holds (u, j) when position j
    of the tuple is o2. The memory group of o at position j is
    ``mem_first[o] + j``. An observation's memory groups are indexed when
    it has a state outside ``skip``, the states whose rows they stand for.
    """

    def __init__(self, g, skip: frozenset[int] = frozenset()):
        self.g = g
        n_obs = g.n_observations
        first = self.first = [0, *accumulate(len(g.avail(o)) for o in range(n_obs))]
        edges = g.memory_edges
        mem_first = self.mem_first = [
            first[o + 1] - len(edges.get(o, ())) for o in range(n_obs)
        ]
        pred = self.pred = [[] for _ in range(g.n_states)]
        for o in range(n_obs):
            # One int object per group, shared by the entries of o's states.
            groups = list(range(first[o], mem_first[o]))
            for s in g.obs_states(o):
                if s in skip:
                    continue
                for k, ts in zip(groups, g.supports[s], strict=True):
                    for t in ts:
                        p = pred[t]
                        p.append(s)
                        p.append(k)
        shared: dict[tuple[int, ...], int] = {}
        users = self.users = []
        into = self.into = [[] for _ in range(n_obs)]
        for o, targets in edges.items():
            if all(s in skip for s in g.obs_states(o)):
                continue
            u = shared.get(targets)
            if u is None:
                u = shared[targets] = len(users)
                users.append([])
                for j, o2 in enumerate(targets):
                    into[o2].append((u, j))
            users[u].append(o)
        self.allowed = bytearray(b"\x01") * first[n_obs]
        self.count = [first[o + 1] - first[o] for o in range(n_obs)]

    def remove(self, leaving: Iterable[int]) -> list[int]:
        """Disallow every group that can lead into an observation of ``leaving``;
        return the observations left with none allowed, in the order they emptied."""
        allowed, count, pred = self.allowed, self.count, self.pred
        obs_of, states = self.g.obs_of, self.g.obs_states
        into, users, mem_first = self.into, self.users, self.mem_first
        emptied = []
        def drop(k: int, o2: int) -> None:
            allowed[k] = 0
            count[o2] -= 1
            if not count[o2]:
                emptied.append(o2)

        for o in leaving:
            for t in states(o):
                # pred[t] alternates states and groups: next(it) is s's group.
                it = iter(pred[t])
                for s in it:
                    k = next(it)
                    if allowed[k]:
                        drop(k, obs_of[s])
            for u, j in into[o]:
                for o2 in users[u]:
                    if allowed[mem_first[o2] + j]:
                        drop(mem_first[o2] + j, o2)
        return emptied

    def allow_map(self, obs: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """The allowed actions of each observation of ``obs``, keyed in order."""
        first, avail = self.first, self.g.avail
        return {
            o: tuple(compress(avail(o), self.allowed[first[o] : first[o + 1]]))
            for o in obs
        }


def almost_safe(g, safe_states: Iterable[int]) -> SafetyResult:
    """Largest observation set the controller can keep the play inside
    ``safe_states`` with probability one, with the actions allowed there.

    Worklist formulation: start from the observations fully covered by the
    safe states and repeatedly drop observations with no allowed action
    left. An action breaks at an observation once a row of the pair has a
    successor that left; a memory group breaks when its target observation
    leaves. Each level of removals equals one synchronous iteration,
    recorded in ``iterates`` for tracing.
    """
    safe = frozenset(safe_states)
    groups = _Groups(g)
    n_obs = g.n_observations
    y = set(range(n_obs))
    level = [o for o in range(n_obs) if any(s not in safe for s in g.obs_states(o))]
    iterates: list[frozenset[int]] = []
    while True:
        # An observation can empty after it left, through its own rows.
        level = [o for o in level if o in y]
        # One by one: a bulk removal can resize y and reorder the allow map.
        for o in level:
            y.discard(o)
        level = groups.remove(level)
        iterates.append(frozenset(y))
        if not level:
            break
    y_star = frozenset(y)
    return SafetyResult(y_star, groups.allow_map(y_star), iterates)


def _allowed_shape(
    g, o: int, acts: Iterable[int], cache: dict
) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """The actions of ``acts`` at observation o, in the order of
    ``g.avail(o)``: the positions of the explicit ones in the rows of o's
    states, all of them, and the target observations of the memory edges
    among them. Observations with equal actions, memory edges and allowed
    actions share one shape, which ``cache`` keeps."""
    key = (g.avail(o), g.memory_edges.get(o, ()), tuple(acts))
    shape = cache.get(key)
    if shape is None:
        avail, targets, acts = key
        allowed = set(acts)
        pos = [i for i, a in enumerate(avail) if a in allowed]
        # The memory edges follow the explicit actions.
        n = len(avail) - len(targets)
        shape = cache[key] = (
            [i for i in pos if i < n],
            tuple([avail[i] for i in pos]),
            tuple([targets[i - n] for i in pos if i >= n]),
        )
    return shape


def _certify_reach(
    g, targets: frozenset[int], allow_map: dict[int, tuple[int, ...]]
) -> None:
    """Certify the uniform play over ``allow_map`` on the copy of ``g``
    where ``targets`` are absorbing, or raise ModelError.

    Walks the allowed rows from the initial state. Every state reached must
    lie in an observation of ``allow_map``, and every bottom class of the
    reached graph must contain a target: then the play stays in those
    observations and reaches the target with probability one.
    """
    # By observation: the allowed explicit positions, the observations the
    # allowed memory edges lead to, and their classes.
    moves: dict[int, tuple[list[int], tuple[int, ...], list[tuple[int, ...]]]] = {}
    shapes: dict = {}
    # The states at place i of observations whose allowed memory edges lead
    # to the same observations share their memory successors, the states at
    # place i of those classes. The walk routes them through one hub node
    # per (targets, place), which keeps the graph observation-sized. A hub
    # is no target, and a path through one is a path between states, so the
    # bottom classes keep their states and their targets.
    hub_ids: dict[tuple[tuple[int, ...], int], int] = {}
    hubs: dict[int, tuple[list[tuple[int, ...]], int]] = {}
    # index[s]: s's node in the reached graph, -1 until s is reached.
    index = [-1] * g.n_states
    index[g.initial] = 0
    # The state of each node, -1 for a hub.
    order = [g.initial]
    succ: list[Sequence[int]] = []
    # order grows during the walk, so nodes are expanded in discovery order.
    for v, s in enumerate(order):
        hub = None
        if s < 0:
            classes, place = hubs[v]
            ts = [cls[place] for cls in classes]
        else:
            o = g.obs(s)
            got = moves.get(o)
            if got is None:
                if o not in allow_map:
                    raise ModelError(
                        "reachability witness failed certification: its chain"
                        f" reaches observation {g.obs_name(o)!r} outside the"
                        " winning set"
                    )
                pos, _, moved = _allowed_shape(g, o, allow_map[o], shapes)
                got = moves[o] = (pos, moved, [g.obs_states(o2) for o2 in moved])
            if s in targets:
                succ.append((v,))
                continue
            pos, moved, classes = got
            row = g.supports[s]
            ts = [t for i in pos for t in row[i]]
            if moved:
                hub = (moved, g.obs_index[s])
        for t in ts:
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
        # Repeated successors are harmless to the component search.
        ts[:] = map(index.__getitem__, ts)
        if hub is not None:
            h = hub_ids.get(hub)
            if h is None:
                h = hub_ids[hub] = len(order)
                hubs[h] = (classes, hub[1])
                order.append(-1)
            ts.append(h)
        succ.append(ts)
    for cls in bottom_classes(succ):
        if not any(order[i] in targets for i in cls):
            raise ModelError(
                "reachability witness failed certification: a recurrent"
                " class of its chain avoids the target"
            )


def almost_reach(g, target_states: Iterable[int]) -> ReachResult:
    """Largest observation set from which the target is reached almost
    surely, on the copy of ``g`` where the target is absorbing.

    The outer iteration shrinks an observation set Z; the inner one grows
    the states that can be forced toward the target while staying in Z,
    one level per pass. An action is allowed at an observation of Z while
    every successor of every state of its class stays in Z; the absorbing
    target rows never leave, so they are not indexed. Z stabilizes once it
    is exactly the cover of the inner fixpoint. When Z holds the initial
    observation, the uniform play over the allowed actions at Z is
    certified on its allowed rows before returning (see ``_certify_reach``).
    """
    targets = frozenset(target_states)
    groups = _Groups(g, skip=targets)
    pred, into, users = groups.pred, groups.into, groups.users
    mem_first, allowed = groups.mem_first, groups.allowed
    obs_of = g.obs_of
    obs_index = g.obs_index
    classes = [g.obs_states(o) for o in range(g.n_observations)]
    z = frozenset(range(g.n_observations))
    z_iterates = [z]
    x_rounds: list[list[int]] = []
    while True:
        in_x = bytearray(g.n_states)
        fired: set[tuple[int, int]] = set()
        level = [s for s in targets if g.obs(s) in z]
        for s in level:
            in_x[s] = 1
        sizes = [len(level)]
        # Each pass visits only the rows into the states that joined in the
        # previous one: a pending state with an allowed row into an older
        # member would have joined then. Passes thus match the synchronous
        # rescans, the last one (which adds nothing) included.
        while True:
            entered = []
            for t in level:
                # A state of pred[t], then the group of its row.
                it = iter(pred[t])
                for s in it:
                    if allowed[next(it)] and not in_x[s]:
                        in_x[s] = 1
                        entered.append(s)
                # The observations of one target tuple share their memory
                # successors place by place, and the flags of their groups
                # (``remove`` clears them together), so their states at t's
                # place join together, once per round.
                i = obs_index[t]
                for u, j in into[obs_of[t]]:
                    if (u, i) in fired or not allowed[mem_first[users[u][0]] + j]:
                        continue
                    fired.add((u, i))
                    for o in users[u]:
                        s = classes[o][i]
                        if not in_x[s]:
                            in_x[s] = 1
                            entered.append(s)
            sizes.append(sizes[-1] + len(entered))
            if not entered:
                break
            level = entered
        x_rounds.append(sizes)
        new_z = frozenset(
            o for o in z if all(in_x[s] for s in g.obs_states(o))
        )
        if new_z == z:
            break
        # Every action that can lead into a leaving observation is lost.
        # That covers the leaving observation's own actions: its state
        # outside X has, under each allowed action, successors only in
        # leaving observations, since every state of a staying one is in X.
        groups.remove(z - new_z)
        z = new_z
        z_iterates.append(z)
    allow_map = groups.allow_map(z)
    if g.obs(g.initial) in z:
        _certify_reach(g, targets, allow_map)
    return ReachResult(z, allow_map, z_iterates, x_rounds)


def restrict_safe(
    g: BeliefObsPomdp, y_star: frozenset[int], allow_map: dict[int, tuple[int, ...]]
) -> BeliefObsPomdp:
    """Restrict a reduced model to the observations of ``y_star`` and their
    allowed actions. States keep their relative order; ids are re-packed.

    Raises ModelError when the initial observation is not almost-safe, since
    the restriction would not contain the initial state.
    """
    if g.obs(g.initial) not in y_star:
        raise ModelError(
            "initial observation is not almost-safe; no safe strategy exists"
        )
    kept_obs = sorted(y_star)
    kept_states = sorted(s for o in kept_obs for s in g.obs_states(o))
    obs_map = {o: i for i, o in enumerate(kept_obs)}
    state_map = {s: i for i, s in enumerate(kept_states)}
    # Observations of one shape share their restricted availability and
    # memory edges, as observations of the reduction share theirs.
    shapes: dict = {}
    renamed: dict[tuple[int, ...], tuple[int, ...]] = {}
    positions = {}
    availability = {}
    memory_edges = {}
    for o in kept_obs:
        pos, acts, targets = _allowed_shape(g, o, allow_map[o], shapes)
        positions[o] = pos
        availability[obs_map[o]] = acts
        if targets:
            kept = renamed.get(targets)
            if kept is None:
                kept = renamed[targets] = tuple([obs_map[o2] for o2 in targets])
            memory_edges[obs_map[o]] = kept
    # Most rows are single successors: share one tuple per kept state.
    single = {s: (i,) for s, i in state_map.items()}
    supports = []
    for s in kept_states:
        row = g.supports[s]
        packed = []
        for i in positions[g.obs(s)]:
            ts = row[i]
            if len(ts) == 1:
                packed.append(single[ts[0]])
            else:
                packed.append(tuple([state_map[t] for t in ts]))
        supports.append(tuple(packed))
    return BeliefObsPomdp(
        base=g.base,
        state_payloads=[g.state_payloads[s] for s in kept_states],
        obs_payloads=[g.obs_payloads[o] for o in kept_obs],
        obs_of=[obs_map[g.obs(s)] for s in kept_states],
        supports=supports,
        memory_edges=memory_edges,
        availability=availability,
        memory_actions=g.memory_actions,
    )
