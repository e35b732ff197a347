"""Observation-level fixpoints for almost-sure safety and reachability.

Everything here works on observation sets rather than belief supports; the
models these run on are belief-observation POMDPs, where the two coincide.
The fixpoints are duck-typed (plain POMDPs and reduced ones share the read
interface), so the same solver drives both; the restriction to the safe
core takes the reduced model only.

Both fixpoints first number the rows (s, a) once, observation by
observation, and then work on row ids: each state keeps the ids of the rows
that can enter it, and each row knows its (observation, action) group.
Flags per group replace dicts keyed by pairs.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. The inner fixpoint is a
worklist too: a pass only visits the rows entering the states that joined
in the previous pass, which gives the same levels as rescanning every
pending state. Allowed actions are updated when observations leave the
outer set. Reachability results are certified before being returned: the
recurrent classes of the witness chain must all meet the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Distr, ModelError
from .chains import MemorylessStrategy, product_chain, recurrent_classes
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
    witness: MemorylessStrategy | None
    z_iterates: list[frozenset[int]]
    x_rounds: list[list[int]]


def _numbered_rows(g, skip: frozenset[int] = frozenset()):
    """Number the rows (s, a) of ``g`` observation by observation, leaving
    out the rows of the states in ``skip``.

    Returns the ids of the rows entering each state, the state of each row,
    the group of each row, and the first group of each observation: the
    group of (o, a) is ``first[o] + i`` for the i-th action of
    ``g.avail(o)``, and ``first[n_observations]`` counts the groups.
    """
    pred: list[list[int]] = [[] for _ in range(g.n_states)]
    row_state: list[int] = []
    row_group: list[int] = []
    first: list[int] = []
    support = g.support
    k = 0
    for o in range(g.n_observations):
        first.append(k)
        states = [s for s in g.obs_states(o) if s not in skip]
        for a in g.avail(o):
            r = len(row_state)
            row_state += states
            row_group += [k] * len(states)
            for s in states:
                for t in support(s, a):
                    pred[t].append(r)
                r += 1
            k += 1
    first.append(k)
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


class _AbsorbingView:
    """Read-only view of a model with a state set made absorbing."""

    def __init__(self, g, absorbing: Iterable[int]):
        self._g = g
        self.absorbing = frozenset(absorbing)
        self.obs = g.obs
        self.avail = g.avail

    def __getattr__(self, name):
        return getattr(self._g, name)

    def support(self, s: int, a: int) -> tuple[int, ...]:
        if s in self.absorbing:
            return (s,)
        return self._g.support(s, a)

    def row(self, s: int, a: int) -> Distr:
        if s in self.absorbing:
            return Distr.dirac(s)
        return self._g.row(s, a)


def almost_reach(g, target_states: Iterable[int]) -> ReachResult:
    """Largest observation set from which the target is reached almost
    surely, on the copy of ``g`` where the target is absorbing.

    The outer iteration shrinks an observation set Z; the inner one grows
    the states that can be forced toward the target while staying in Z,
    one level per pass. An action is allowed at an observation of Z while
    every successor of every state of its class stays in Z; the absorbing
    target rows never leave, so they are not numbered. Z stabilizes once it
    is exactly the cover of the inner fixpoint. The witness plays uniformly
    over the allowed actions at Z; before returning it is certified on the
    absorbing copy: every recurrent class of the witness chain must contain
    a target state.
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

    witness = None
    if z and g.obs(g.initial) in z:
        witness = MemorylessStrategy(
            {o: Distr.uniform(allow_map[o]) for o in z}
        )
        mc = product_chain(_AbsorbingView(g, targets), None, witness)
        for cls in recurrent_classes(mc):
            if not any(mc.labels[i][0] in targets for i in cls):
                raise ModelError(
                    "reachability witness failed certification: a recurrent"
                    " class of its chain avoids the target"
                )
    return ReachResult(z, allow_map, witness, z_iterates, x_rounds)


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
    kept_states = sorted(s for o in y_star for s in g.obs_states(o))
    kept_obs = sorted(y_star)
    state_map = {s: i for i, s in enumerate(kept_states)}
    obs_map = {o: i for i, o in enumerate(kept_obs)}
    succ = {}
    for s in kept_states:
        for a in allow_map[g.obs(s)]:
            succ[(state_map[s], a)] = tuple(state_map[t] for t in g.support(s, a))
    return BeliefObsPomdp(
        base=g.base,
        rewards=g.base_rewards,
        state_payloads=[g.state_payloads[s] for s in kept_states],
        obs_payloads=[g.obs_payloads[o] for o in kept_obs],
        obs_of=[obs_map[g.obs(s)] for s in kept_states],
        succ=succ,
        availability={obs_map[o]: tuple(allow_map[o]) for o in kept_obs},
        memory_actions=g.memory_actions,
    )
