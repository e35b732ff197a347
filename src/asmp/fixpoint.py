"""Observation-level fixpoints for almost-sure safety and reachability.

Everything here works on observation sets rather than belief supports; the
models these run on are belief-observation POMDPs, where the two coincide.
Plain POMDPs and reduced ones share the observation read side of
``model.ObservedModel``, and with it the one observation-level successor
table: ``obs_rows[o]`` holds (target observation, place map) pairs for the
first actions of ``avail(o)``, and the memory edges ``memory_edges[o]``,
for the rest, move each state of o to the state at the same place in the
target observation's class. A plain POMDP has no memory edges; in a
reduction they stand for nearly all of its rows, and one place map serves
every memory of a belief. The same solver drives both.

Sets of states are int masks of places per observation (see `bits`), and
a place map holds one per source place: it carries a mask forward as it
is, and backward through its reversal, memoized per map and target class
size. Both fixpoints keep their bookkeeping in a store of (observation,
action) groups, `_Groups`, with one rule: when observations leave, every
group that can lead into one of them is disallowed. The iterates are sets,
so the order of the groups does not show in any result. The decision runs
both fixpoints on one store: reach starts from the flags safety leaves,
with Z at the safe core.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. The inner fixpoint is a
worklist of place masks too: a pass only visits the groups entering the
places that joined in the previous pass, which gives the same levels as
rescanning every pending state. Allowed actions are updated when
observations leave the outer set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress
from operator import or_
from typing import Iterable

from .bits import bits
from .model import ModelError
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


def _place_masks(g, states: Iterable[int]) -> dict[int, int]:
    """The places of ``states``, as a mask per observation that holds any."""
    obs_of, obs_index = g.obs_of, g.obs_index
    out: dict[int, int] = {}
    for s in states:
        o = obs_of[s]
        out[o] = out.get(o, 0) | 1 << obs_index[s]
    return out


def _reversed(m: tuple[int, ...], n: int, cache: dict) -> tuple[tuple[int, ...], int]:
    """The place map m into a class of n places, reversed: for each place of
    that class, the mask of the places of m that reach it; and the mask of
    the places that reach any. ``cache`` keeps one per (map, class size),
    keyed by the identity of the map, which its model keeps alive."""
    key = (id(m), n)
    got = cache.get(key)
    if got is None:
        back = [0] * n
        for p, t in enumerate(m):
            for q in bits(t):
                back[q] |= 1 << p
        got = cache[key] = (tuple(back), reduce(or_, back, 0))
    return got


class _Groups:
    """The (observation, action) groups of ``g`` with their ``allowed``
    flags, which only ``remove`` clears, indexed by the observations they
    can enter. The rows at the places of ``skip``, a mask per observation,
    are left out; a table that does not match an observation's explicit
    actions or class raises ValueError.

    The explicit group of (o, a) is ``first[o] + i`` for the i-th action of
    ``g.avail(o)``. ``pred[o2]`` lists the explicit groups entering o2 as
    (o, k, back): group k of observation o, and its place map reversed,
    which holds for each place of o2 the mask of the places of o that
    reach it, skipped ones included. A group whose only places reaching o2
    are skipped is not listed. The observations with one tuple of
    memory-edge targets, ``users[u]``, share its entry u: the flag of
    position j is ``mem_first[o] + j`` for each of them, ``into[o2]`` holds
    (u, that flag) when the position leads to o2, and ``mem_count[u]``
    counts the allowed positions. ``entry[o]`` is 0, an entry without
    positions, for an observation without memory edges. One whose places
    are all in ``skip`` has memory flags of its own, which stay set.
    """

    def __init__(self, g, skip: dict[int, int]):
        self.g = g
        n_obs = g.n_observations
        sizes = [len(g.obs_states(o)) for o in range(n_obs)]
        edges = g.memory_edges
        first = self.first = [
            0,
            *accumulate(len(g.avail(o)) - len(edges.get(o, ())) for o in range(n_obs)),
        ]
        # Observations nothing enters share one empty tuple.
        pred = self.pred = [()] * n_obs
        cache: dict = {}
        for o, table in enumerate(g.obs_rows):
            n = sizes[o]
            kept = ~skip.get(o, 0)
            for k, entries in zip(range(first[o], first[o + 1]), table, strict=True):
                for o2, m in entries:
                    if len(m) != n:
                        raise ValueError(
                            f"observation {o}: a place map of {len(m)} for {n} states"
                        )
                    back, reaching = _reversed(m, sizes[o2], cache)
                    if reaching & kept:
                        if not pred[o2]:
                            pred[o2] = []
                        pred[o2].append((o, k, back))
        shared: dict[tuple[int, ...], int] = {}
        users = self.users = [[]]
        mem_count = self.mem_count = [0]
        starts = [0]
        into = self.into = [()] * n_obs
        entry = self.entry = [0] * n_obs
        mem_first = self.mem_first = [0] * n_obs
        size = first[n_obs]
        for o, targets in edges.items():
            if skip.get(o, 0) == (1 << sizes[o]) - 1:
                mem_first[o] = size
                size += len(targets)
                continue
            u = shared.get(targets)
            if u is None:
                u = shared[targets] = len(users)
                users.append([])
                mem_count.append(len(targets))
                starts.append(size)
                for j, o2 in enumerate(targets):
                    if not into[o2]:
                        into[o2] = []
                    into[o2].append((u, size + j))
                size += len(targets)
            users[u].append(o)
            entry[o] = u
            mem_first[o] = starts[u]
        self.allowed = bytearray(b"\x01") * size
        self.count = [first[o + 1] - first[o] for o in range(n_obs)]

    def remove(self, leaving: Iterable[int]) -> list[int]:
        """Disallow every group that can lead into an observation of ``leaving``;
        return the observations left with none allowed, in the order they emptied."""
        allowed, count, pred = self.allowed, self.count, self.pred
        into, users = self.into, self.users
        entry, mem_count = self.entry, self.mem_count
        emptied = []
        for o in leaving:
            for o1, k, _ in pred[o]:
                if allowed[k]:
                    allowed[k] = 0
                    count[o1] -= 1
                    if not count[o1] and not mem_count[entry[o1]]:
                        emptied.append(o1)
            for u, f in into[o]:
                if allowed[f]:
                    allowed[f] = 0
                    mem_count[u] -= 1
                    if not mem_count[u]:
                        emptied += [o1 for o1 in users[u] if not count[o1]]
        return emptied

    def allow_map(self, obs: Iterable[int]) -> dict[int, tuple[int, ...]]:
        """The allowed actions of each observation of ``obs``, keyed by
        ascending id; equal values are one tuple object."""
        first, mem_first, allowed = self.first, self.mem_first, self.allowed
        avail = self.g.avail
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        out = {}
        for o in sorted(obs):
            acts = avail(o)
            flags = allowed[first[o] : first[o + 1]]
            n = len(acts) - len(flags)
            if n:
                flags += allowed[mem_first[o] : mem_first[o] + n]
            got = tuple(compress(acts, flags))
            out[o] = shared.setdefault(got, got)
        return out


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
    safe = _place_masks(g, safe_states)
    whole = [(1 << len(g.obs_states(o))) - 1 for o in range(g.n_observations)]
    # An observation enters the first level when a place of it is unsafe.
    level = [o for o, m in enumerate(whole) if safe.get(o, 0) != m]
    groups = _Groups(g, {})
    iterates = _safe(groups, level)
    return SafetyResult(iterates[-1], groups.allow_map(iterates[-1]), iterates)


def _safe(groups: _Groups, level: list[int]) -> list[frozenset[int]]:
    """The iterates of `almost_safe` on the store ``groups``, from the first
    level ``level``; the store keeps the allowed flags they leave."""
    y = set(range(groups.g.n_observations))
    iterates: list[frozenset[int]] = []
    while True:
        # An observation can empty after it left, through its own rows.
        level = [o for o in level if o in y]
        y.difference_update(level)
        level = groups.remove(level)
        iterates.append(frozenset(y))
        if not level:
            return iterates


def almost_reach(g, target_states: Iterable[int]) -> ReachResult:
    """Largest observation set from which the target is reached almost
    surely, on the copy of ``g`` where the target is absorbing.

    The outer iteration shrinks an observation set Z; the inner one grows
    the states that can be forced toward the target while staying in Z,
    as a mask of places per observation, one level per pass. An action is
    allowed at an observation of Z while every successor of every state of
    its class stays in Z; the absorbing target rows never leave, so they
    are not indexed. Z stabilizes once it is exactly the cover of the
    inner fixpoint.
    """
    goal = _place_masks(g, target_states)
    return _reach(_Groups(g, goal), goal, frozenset(range(g.n_observations)))


def _reach(groups: _Groups, goal: dict[int, int], z: frozenset[int]) -> ReachResult:
    """`almost_reach` on the store ``groups``, for the target places ``goal``,
    with Z starting at ``z``. The store must allow no group outside ``z``, as
    `_safe` leaves it when only the sink, which enters only itself, is unsafe."""
    g = groups.g
    pred, into, users, allowed = groups.pred, groups.into, groups.users, groups.allowed
    n_obs = g.n_observations
    z_iterates = [z]
    x_rounds: list[list[int]] = []
    while True:
        level = {o: m for o, m in goal.items() if o in z}
        # X by observation, and the places whose memory predecessors joined
        # this round, by target tuple.
        x = [level.get(o, 0) for o in range(n_obs)]
        fired = [0] * len(users)
        sizes = [sum(m.bit_count() for m in level.values())]
        # Each pass visits only the groups into the places that joined in
        # the previous one: a pending state with an allowed row into an
        # older member would have joined then. Passes thus match the
        # synchronous rescans, the last one (which adds nothing) included.
        while True:
            hit: dict[int, int] = {}
            for o2, new in level.items():
                ps = list(bits(new))
                # The places of o whose row in group k enters a new place,
                # but for the absorbing targets.
                for o, k, back in pred[o2]:
                    if allowed[k]:
                        got = reduce(or_, map(back.__getitem__, ps))
                        hit[o] = hit.get(o, 0) | got & ~goal.get(o, 0)
                # The observations of one target tuple share their memory
                # successors place by place, and the flags of their groups,
                # so their states at a new place join together, once per round.
                for u, f in into[o2]:
                    fresh = new & ~fired[u]
                    if fresh and allowed[f]:
                        fired[u] |= fresh
                        for o in users[u]:
                            hit[o] = hit.get(o, 0) | fresh
            level = {o: m & ~x[o] for o, m in hit.items() if m & ~x[o]}
            for o, m in level.items():
                x[o] |= m
            sizes.append(sizes[-1] + sum(m.bit_count() for m in level.values()))
            if not level:
                break
        x_rounds.append(sizes)
        new_z = frozenset(o for o in z if x[o] == (1 << len(g.obs_states(o))) - 1)
        if new_z == z:
            break
        # Every action that can lead into a leaving observation is lost.
        # That covers the leaving observation's own actions: its state
        # outside X has, under each allowed action, successors only in
        # leaving observations, since every state of a staying one is in X.
        groups.remove(z - new_z)
        z = new_z
        z_iterates.append(z)
    return ReachResult(z, groups.allow_map(z), z_iterates, x_rounds)


def restrict_safe(
    g: BeliefObsPomdp, y_star: frozenset[int], allow_map: dict[int, tuple[int, ...]]
) -> BeliefObsPomdp:
    """Restrict a reduced model to the observations of ``y_star`` and their
    allowed actions. States keep their relative order and places; ids are re-packed.

    The decision does not use it: reach runs on the reduction itself. It
    stays as a reference for the tests and the benchmark's traced solve.
    Raises ModelError when the initial observation is not almost-safe, since
    the restriction would not contain the initial state.
    """
    if g.obs(g.initial) not in y_star:
        raise ModelError(
            "initial observation is not almost-safe; no safe strategy exists"
        )
    kept_obs = sorted(y_star)
    new_id = [-1] * g.n_states
    for i, s in enumerate(sorted(s for o in kept_obs for s in g.obs_states(o))):
        new_id[s] = i
    obs_map = {o: i for i, o in enumerate(kept_obs)}
    # Kept classes are whole, so the place maps stay as they are. The
    # memory edges follow the explicit actions.
    availability = {}
    memory_edges = {}
    obs_rows = []
    for i, o in enumerate(kept_obs):
        acts, targets = g.avail(o), g.memory_edges.get(o, ())
        allowed = set(allow_map[o])
        availability[i] = tuple([a for a in acts if a in allowed])
        n = len(acts) - len(targets)
        edges = tuple([obs_map[t] for a, t in zip(acts[n:], targets) if a in allowed])
        if edges:
            memory_edges[i] = edges
        rows = [row for a, row in zip(acts, g.obs_rows[o]) if a in allowed]
        obs_rows.append(tuple([tuple([(obs_map[o2], m) for o2, m in r]) for r in rows]))
    return BeliefObsPomdp(
        base=g.base,
        obs_payloads=[g.obs_payloads[o] for o in kept_obs],
        classes=[tuple(map(new_id.__getitem__, g.obs_states(o))) for o in kept_obs],
        obs_rows=obs_rows,
        memory_edges=memory_edges,
        availability=availability,
        memory_actions=g.memory_actions,
    )
