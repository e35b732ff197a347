"""Observation-level fixpoints for almost-sure safety and reachability.

Everything here works on observation sets rather than belief supports; the
models these run on are belief-observation POMDPs, where the two coincide.
Plain POMDPs and reduced ones share the observation read side of
``model.ObservedModel``, and both expose the row table ``supports``, where
``supports[s][i]`` is the support of state s under the i-th action of
``avail(obs(s))``, so the same solver drives both.
The restriction to the safe core takes the reduced model only, and builds
the restricted table from the allowed positions of each observation.

Both fixpoints first number the rows once, state by state from the table,
and then work on row ids: each state keeps the ids of the rows that can
enter it, and each row knows its (observation, action) group. Flags per
group replace dicts keyed by pairs. The iterates are sets, so the order of
the numbering does not show in any result.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. The inner fixpoint is a
worklist too: a pass only visits the rows entering the states that joined
in the previous pass, which gives the same levels as rescanning every
pending state. Allowed actions are updated when observations leave the
outer set. Reachability results are certified before being returned, on
the allowed rows themselves: the states the witness reaches from the
initial state, with the target absorbing, must stay in the winning
observations, and every bottom class of that graph must meet the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """Number the rows of ``g`` state by state from ``g.supports``, leaving
    out the rows of the states in ``skip``.

    Returns the ids of the rows entering each state, the state of each row,
    the group of each row, and the first group of each observation: the
    group of (o, a) is ``first[o] + i`` for the i-th action of
    ``g.avail(o)``, and ``first[n_observations]`` counts the groups.
    """
    first = [0]
    for o in range(g.n_observations):
        first.append(first[-1] + len(g.avail(o)))
    pred: list[list[int]] = [[] for _ in range(g.n_states)]
    row_state: list[int] = []
    row_group: list[int] = []
    for s, rows in enumerate(g.supports):
        if s in skip:
            continue
        for r, ts in enumerate(rows, len(row_state)):
            for t in ts:
                pred[t].append(r)
        k = first[g.obs(s)]
        row_state += [s] * len(rows)
        row_group += range(k, k + len(rows))
    return pred, row_state, row_group, first


def almost_safe(g, safe_states: Iterable[int]) -> SafetyResult:
    """Largest observation set the controller can keep the play inside
    ``safe_states`` with probability one, with the actions allowed there.

    Worklist formulation: start from the observations fully covered by the
    safe states and repeatedly drop observations with no allowed action
    left. An action breaks at an observation once a row of the pair has a
    successor that left. Each level of removals equals one synchronous
    iteration, recorded in ``iterates`` for tracing.
    """
    safe = frozenset(safe_states)
    n_obs = g.n_observations
    pred, row_state, row_group, first = _numbered_rows(g)
    broken = bytearray(first[n_obs])
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
            for gone in g.obs_states(o):
                for r in pred[gone]:
                    k = row_group[r]
                    if broken[k]:
                        continue
                    broken[k] = 1
                    o2 = g.obs(row_state[r])
                    allowed_count[o2] -= 1
                    if allowed_count[o2] == 0:
                        next_level.append(o2)
        iterates.append(frozenset(y))
        if not next_level:
            break
        level = next_level

    y_star = frozenset(y)
    allow_map = {
        o: tuple(a for k, a in enumerate(g.avail(o), first[o]) if not broken[k])
        for o in y_star
    }
    return SafetyResult(y_star, allow_map, iterates)


def _allowed_positions(g, o: int, acts: Iterable[int]) -> list[int]:
    """Positions in ``g.avail(o)``, and so in each row list of o's states,
    of the actions in ``acts``."""
    allowed = set(acts)
    return [i for i, a in enumerate(g.avail(o)) if a in allowed]


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
    supports = g.supports
    positions: dict[int, list[int]] = {}
    # index[s]: s's node in the reached graph, -1 until s is reached.
    index = [-1] * g.n_states
    index[g.initial] = 0
    order = [g.initial]
    succ: list[tuple[int, ...]] = []
    # order grows during the walk, so states are expanded in discovery order.
    for s in order:
        o = g.obs(s)
        pos = positions.get(o)
        if pos is None:
            if o not in allow_map:
                raise ModelError(
                    "reachability witness failed certification: its chain"
                    f" reaches observation {g.obs_name(o)!r} outside the"
                    " winning set"
                )
            pos = positions[o] = _allowed_positions(g, o, allow_map[o])
        if s in targets:
            succ.append((index[s],))
            continue
        row = supports[s]
        nxt: set[int] = set()
        for i in pos:
            for t in row[i]:
                j = index[t]
                if j < 0:
                    j = index[t] = len(order)
                    order.append(t)
                nxt.add(j)
        succ.append(tuple(nxt))
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
    pred, row_state, row_group, first = _numbered_rows(g, skip=targets)
    allowed = bytearray(b"\x01") * first[g.n_observations]
    z = frozenset(range(g.n_observations))
    z_iterates = [z]
    x_rounds: list[list[int]] = []
    while True:
        in_x = bytearray(g.n_states)
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
        z = new_z
        z_iterates.append(z)
    allow_map = {
        o: tuple(a for k, a in enumerate(g.avail(o), first[o]) if allowed[k])
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
    # Most rows are single successors: share one tuple per kept state.
    single = {s: (i,) for s, i in state_map.items()}
    positions = {o: _allowed_positions(g, o, allow_map[o]) for o in kept_obs}
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
        supports.append(packed)
    return BeliefObsPomdp(
        base=g.base,
        state_payloads=[g.state_payloads[s] for s in kept_states],
        obs_payloads=[g.obs_payloads[o] for o in kept_obs],
        obs_of=[obs_map[g.obs(s)] for s in kept_states],
        supports=supports,
        availability={
            obs_map[o]: tuple(g.avail(o)[i] for i in positions[o])
            for o in kept_obs
        },
        memory_actions=g.memory_actions,
    )
