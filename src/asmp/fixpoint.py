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

Both fixpoints first number the explicit rows once, observation by
observation, and then work on row ids: each state keeps the ids of the
rows that can enter it, and each row knows its (observation, action)
group. A memory group has no rows: each observation lists the memory
groups that lead into it. Flags per group replace dicts keyed by pairs.
The iterates are sets, so the order of the numbering does not show in any
result.

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
from itertools import compress
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


def _numbered_rows(g, skip: frozenset[int] = frozenset()):
    """Number the explicit rows of ``g`` observation by observation,
    leaving out the rows of the states in ``skip``, and index the memory
    groups by target.

    Returns ``pred``, ``row_state``, ``row_group``, ``first``, ``into``,
    ``users`` and ``mem_first``. ``pred[t]`` holds the ids of the rows
    entering state t, and row r belongs to state ``row_state[r]`` and group
    ``row_group[r]``. The group of (o, a) is ``first[o] + i`` for the i-th
    action of ``g.avail(o)``, and ``first[n_observations]`` counts the
    groups. Observations with one tuple of memory-edge targets share its
    entry u: ``users[u]`` lists them, and ``into[o2]`` holds (u, j) when
    position j of the tuple is o2. The memory group of o at position j is
    ``mem_first[o] + j``. An observation's memory groups are indexed when
    it has a state outside ``skip``, the states whose rows they stand for.
    """
    n_obs = g.n_observations
    first = [0]
    for o in range(n_obs):
        first.append(first[-1] + len(g.avail(o)))
    edges = g.memory_edges
    mem_first = [first[o + 1] - len(edges.get(o, ())) for o in range(n_obs)]
    pred: list[list[int]] = [[] for _ in range(g.n_states)]
    row_state: list[int] = []
    row_group: list[int] = []
    for o in range(n_obs):
        groups = range(first[o], mem_first[o])
        for s in g.obs_states(o):
            if s in skip:
                continue
            for r, ts in enumerate(g.supports[s], len(row_state)):
                for t in ts:
                    pred[t].append(r)
            row_state += [s] * len(groups)
            row_group += groups
    shared: dict[tuple[int, ...], int] = {}
    users: list[list[int]] = []
    into: list[list[tuple[int, int]]] = [[] for _ in range(n_obs)]
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
    return pred, row_state, row_group, first, into, users, mem_first


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
    n_obs = g.n_observations
    obs_of = g.obs_of
    pred, row_state, row_group, first, into, users, mem_first = _numbered_rows(g)
    allowed = bytearray(b"\x01") * first[n_obs]
    allowed_count = [first[o + 1] - first[o] for o in range(n_obs)]

    in_y = [True] * n_obs
    y = set(range(n_obs))
    level = [
        o
        for o in range(n_obs)
        if any(s not in safe for s in g.obs_states(o))
    ]
    iterates: list[frozenset[int]] = []
    while True:
        next_level: list[int] = []
        for o in level:
            if not in_y[o]:
                continue
            in_y[o] = False
            y.discard(o)
            hits = [
                (row_group[r], obs_of[row_state[r]])
                for gone in g.obs_states(o)
                for r in pred[gone]
            ]
            hits += [(mem_first[o2] + j, o2) for u, j in into[o] for o2 in users[u]]
            for k, o2 in hits:
                if not allowed[k]:
                    continue
                allowed[k] = 0
                allowed_count[o2] -= 1
                if allowed_count[o2] == 0:
                    next_level.append(o2)
        iterates.append(frozenset(y))
        if not next_level:
            break
        level = next_level

    y_star = frozenset(y)
    allow_map = {
        o: tuple(compress(g.avail(o), allowed[first[o] : first[o + 1]]))
        for o in y_star
    }
    return SafetyResult(y_star, allow_map, iterates)


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
    target rows never leave, so they are not numbered. Z stabilizes once it
    is exactly the cover of the inner fixpoint. When Z holds the initial
    observation, the uniform play over the allowed actions at Z is
    certified on its allowed rows before returning (see ``_certify_reach``).
    """
    targets = frozenset(target_states)
    pred, row_state, row_group, first, into, users, mem_first = _numbered_rows(
        g, skip=targets
    )
    obs_of = g.obs_of
    obs_index = g.obs_index
    classes = [g.obs_states(o) for o in range(g.n_observations)]
    allowed = bytearray(b"\x01") * first[g.n_observations]
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
                for r in pred[t]:
                    if allowed[row_group[r]]:
                        s = row_state[r]
                        if not in_x[s]:
                            in_x[s] = 1
                            entered.append(s)
                # The observations of one target tuple share their memory
                # successors place by place, and the flags of their groups
                # (an outer round clears them together), so their states
                # at t's place join together, once per round.
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
        for o in z - new_z:
            for t in g.obs_states(o):
                for r in pred[t]:
                    allowed[row_group[r]] = 0
            for u, j in into[o]:
                for o2 in users[u]:
                    allowed[mem_first[o2] + j] = 0
        z = new_z
        z_iterates.append(z)
    allow_map = {
        o: tuple(compress(g.avail(o), allowed[first[o] : first[o + 1]]))
        for o in z
    }
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
