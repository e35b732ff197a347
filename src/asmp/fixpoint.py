"""Observation-level fixpoints for almost-sure safety and reachability.

Everything here works on observation sets rather than belief supports; the
models these run on are belief-observation POMDPs, where the two coincide.
The fixpoints are duck-typed (plain POMDPs and reduced ones share the read
interface), so the same solver drives both; the restriction to the safe
core takes the reduced model only.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. Reachability results are
certified before being returned: the recurrent classes of the witness chain
must all meet the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Distr, ModelError
from .chains import MemorylessStrategy, product_chain, recurrent_classes
from .reduction import BeliefObsPomdp


def allow(g, o: int, obs_set: frozenset[int]) -> tuple[int, ...]:
    """Actions at ``o`` under which every successor observation stays in
    ``obs_set``, no matter which state of the class we are really in."""
    out = []
    for a in g.avail(o):
        if all(
            g.obs(t) in obs_set
            for s in g.obs_states(o)
            for t in g.support(s, a)
        ):
            out.append(a)
    return tuple(out)


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


def almost_safe(g, safe_states: Iterable[int]) -> SafetyResult:
    """Largest observation set the controller can keep the play inside
    ``safe_states`` with probability one, with the actions allowed there.

    Worklist formulation: start from the observations fully covered by the
    safe states and repeatedly drop observations with no allowed action
    left. Each level of removals equals one synchronous iteration, recorded
    in ``iterates`` for tracing.
    """
    safe = frozenset(safe_states)
    n_obs = g.n_observations
    pred: dict[int, list[tuple[int, int]]] = {}
    n_out: dict[tuple[int, int], int] = {}
    broken: dict[tuple[int, int], int] = {}
    allowed_count = [0] * n_obs
    for o in range(n_obs):
        acts = g.avail(o)
        allowed_count[o] = len(acts)
        for a in acts:
            broken[(o, a)] = 0
            for s in g.obs_states(o):
                n_out[(s, a)] = 0
                for t in g.support(s, a):
                    pred.setdefault(t, []).append((s, a))

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
                for s, a in pred.get(gone, ()):
                    n_out[(s, a)] += 1
                    if n_out[(s, a)] == 1:
                        o2 = g.obs(s)
                        broken[(o2, a)] += 1
                        if broken[(o2, a)] == 1:
                            allowed_count[o2] -= 1
                            if allowed_count[o2] == 0:
                                next_level.append(o2)
        iterates.append(frozenset(y))
        if not next_level:
            break
        level = next_level

    y_star = frozenset(y)
    allow_map = {
        o: tuple(a for a in g.avail(o) if broken[(o, a)] == 0) for o in y_star
    }
    return SafetyResult(y_star, allow_map, iterates)


class _AbsorbingView:
    """Read-only view of a model with a state set made absorbing."""

    def __init__(self, g, absorbing: Iterable[int]):
        self._g = g
        self.absorbing = frozenset(absorbing)

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
    the states that can be forced toward the target while staying in Z.
    Z stabilizes once it is exactly the cover of the inner fixpoint. The
    witness plays uniformly over the allowed actions at Z; before returning
    it is certified on the absorbing copy: every recurrent class of the
    witness chain must contain a target state.
    """
    targets = frozenset(target_states)
    view = _AbsorbingView(g, targets)
    z = frozenset(range(g.n_observations))
    z_iterates = [z]
    x_rounds: list[list[int]] = []
    allow_map: dict[int, tuple[int, ...]] = {}
    while True:
        allow_map = {o: allow(view, o, z) for o in z}
        x = {s for s in targets if g.obs(s) in z}
        sizes = [len(x)]
        pending = {s for o in z for s in g.obs_states(o)} - x
        changed = True
        while changed:
            changed = False
            entered = []
            for s in pending:
                acts = allow_map[g.obs(s)]
                if any(
                    any(t in x for t in view.support(s, a)) for a in acts
                ):
                    entered.append(s)
            if entered:
                x.update(entered)
                pending.difference_update(entered)
                changed = True
            sizes.append(len(x))
        x_rounds.append(sizes)
        new_z = frozenset(
            o for o in z if all(s in x for s in g.obs_states(o))
        )
        if new_z == z:
            break
        z = new_z
        z_iterates.append(z)

    witness = None
    if z and g.obs(g.initial) in z:
        witness = MemorylessStrategy(
            {o: Distr.uniform(allow_map[o]) for o in z}
        )
        mc = product_chain(view, None, witness)
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
