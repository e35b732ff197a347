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
every memory of a belief. The same solver drives both. The restriction to
the safe core takes the reduced model only: it keeps each observation's
allowed positions with their place maps, and renames the targets.

Sets of states are int masks of places per observation (see `bits`), and
a place map holds one per source place: it carries a mask forward as it
is, and backward through its reversal, memoized per map and target class
size. Both fixpoints keep their bookkeeping in one store of (observation,
action) groups. Each observation lists the explicit groups that can enter
it, with their place maps reversed; the observations with one tuple of
memory-edge targets share its groups and their allowed flags. One rule
serves both fixpoints: when observations leave, every group that can lead
into one of them is disallowed. The iterates are sets, so the order of the
groups does not show in any result.

Safety is a greatest fixpoint over the allowed-action predicate, computed
with a worklist that removes observations level by level; the levels agree
with the textbook synchronous iteration and are kept for tracing.
Reachability nests a least fixpoint (states that can be forced toward the
target) inside a greatest one (observations that never lose the ability),
computed on a copy where the target is absorbing. The inner fixpoint is a
worklist of place masks too: a pass only visits the groups entering the
places that joined in the previous pass, which gives the same levels as
rescanning every pending state. The explicit predecessors of some places
are read off the reversed place maps at them; their memory predecessors
are the same places in the observations whose memory groups lead into
their own, and the observations of one target tuple let theirs join
together. Allowed actions are updated when observations leave the outer
set.
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
    groups = _Groups(g, {})
    y = set(range(g.n_observations))
    # An observation enters the first level when a place of it is unsafe.
    level = [o for o in y if safe.get(o, 0) != (1 << len(g.obs_states(o))) - 1]
    iterates: list[frozenset[int]] = []
    while True:
        # An observation can empty after it left, through its own rows.
        level = [o for o in level if o in y]
        y.difference_update(level)
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
    ``g.avail(o)``: the positions of the explicit ones in ``g.obs_rows[o]``,
    all of them, and the target observations of the memory edges among
    them. Observations with equal actions, memory edges and allowed
    actions share one shape, which ``cache`` keeps."""
    avail, targets = g.avail(o), g.memory_edges.get(o, ())
    # The model keeps both tuples alive and shares them between observations.
    key = (id(avail), id(targets), tuple(acts))
    shape = cache.get(key)
    if shape is None:
        allowed = set(key[2])
        pos = [i for i, a in enumerate(avail) if a in allowed]
        # The memory edges follow the explicit actions.
        n = len(avail) - len(targets)
        shape = cache[key] = (
            [i for i in pos if i < n],
            tuple([avail[i] for i in pos]),
            tuple([targets[i - n] for i in pos if i >= n]),
        )
    return shape


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
    groups = _Groups(g, goal)
    pred, into, users, allowed = groups.pred, groups.into, groups.users, groups.allowed
    n_obs = g.n_observations
    z = frozenset(range(n_obs))
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
    # Observations of one shape share their restricted availability and
    # memory edges, as observations of the reduction share theirs. Kept
    # classes are whole, so the place maps stay as they are.
    shapes: dict = {}
    renamed: dict[tuple[int, ...], tuple[int, ...]] = {}
    availability = {}
    memory_edges = {}
    obs_rows = []
    for o in kept_obs:
        pos, acts, targets = _allowed_shape(g, o, allow_map[o], shapes)
        availability[obs_map[o]] = acts
        if targets:
            kept = renamed.get(targets)
            if kept is None:
                kept = renamed[targets] = tuple([obs_map[o2] for o2 in targets])
            memory_edges[obs_map[o]] = kept
        table = g.obs_rows[o]
        obs_rows.append(
            tuple([tuple([(obs_map[o2], m) for o2, m in table[i]]) for i in pos])
        )
    return BeliefObsPomdp(
        base=g.base,
        obs_payloads=[g.obs_payloads[o] for o in kept_obs],
        classes=[tuple(map(new_id.__getitem__, g.obs_states(o))) for o in kept_obs],
        obs_rows=obs_rows,
        memory_edges=memory_edges,
        availability=availability,
        memory_actions=g.memory_actions,
    )
