"""Core model types: POMDPs, beliefs, probabilistic finite automata, rewards.

All probabilities are `fractions.Fraction`. Floats are rejected at the door:
the qualitative analyses hinge on exact support and exact reward-1 tests, and
a 0.9999999 leaking in would silently change answers. Weights may be given as
ints, Fractions, or strings like ``"1/3"``.

States, actions, and observations are ids (list indices); names live in
parallel lists and only matter for parsing and rendering. A belief, the
set of states consistent with the history, is an int bit mask of state
ids (see `bits`); its states share one observation, which the mask
therefore determines.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .bits import bits, mask_of


class ModelError(ValueError):
    """A model, strategy, or reward function is malformed or misused."""


class StrategyError(ModelError):
    """A strategy does not fit the model it is played on."""


class CapacityError(RuntimeError):
    """A construction exceeded its state budget.

    ``stats`` carries partial progress counters (states built, edges built)
    so callers can report how far the construction got.
    """

    def __init__(self, message: str, stats: dict[str, int] | None = None):
        super().__init__(message)
        self.stats = dict(stats or {})


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise ModelError(f"float weight {value!r}; use int, Fraction, or 'p/q' strings")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ModelError(f"cannot interpret {value!r} as an exact probability")


class Distr:
    """Finite distribution over ids, stored sparsely with zero weights dropped.

    Construction never checks that weights sum to 1; `check` reports problems
    instead, so broken input files can be loaded and diagnosed rather than
    crashing the loader. Treat instances as immutable.
    """

    __slots__ = ("p",)

    def __init__(self, weights: Mapping[int, object]):
        items = sorted((k, _frac(v)) for k, v in weights.items())
        self.p: dict[int, Fraction] = {k: v for k, v in items if v != 0}

    @classmethod
    def dirac(cls, k: int) -> "Distr":
        return cls({k: 1})

    @classmethod
    def uniform(cls, ks: Iterable[int]) -> "Distr":
        ks = list(ks)
        if not ks:
            raise ModelError("uniform distribution over empty set")
        w = Fraction(1, len(ks))
        return cls({k: w for k in ks})

    def support(self) -> tuple[int, ...]:
        return tuple(self.p)

    def items(self) -> list[tuple[int, Fraction]]:
        return list(self.p.items())

    def __getitem__(self, k: int) -> Fraction:
        return self.p.get(k, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Distr) and self.p == other.p

    def __hash__(self) -> int:
        return hash(tuple(self.p.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.p.items())
        return f"Distr({{{inner}}})"

    def check(self) -> list[str]:
        """Return human-readable problems: negative weights, bad total, emptiness."""
        problems = []
        for k, v in self.p.items():
            if v < 0:
                problems.append(f"negative weight {v} at {k}")
        total = sum(self.p.values(), Fraction(0))
        if not self.p:
            problems.append("empty distribution")
        elif total != 1:
            problems.append(f"weights sum to {total}, not 1")
        return problems


class ObservedModel:
    """The read side that the observation-level fixpoints, the
    belief-observation check and the chain builders share: states grouped
    by a deterministic observation, and the actions each observation allows.

    `Pomdp` and the reduction's `BeliefObsPomdp` both derive from it. A
    subclass sets whatever its ``state_name`` reads, then calls ``__init__``
    with its classes, ``classes[o]`` listing the states of observation o;
    they must list each state id 0..n-1 once. ``obs_of[s]`` and
    ``obs_index[s]``, the place of s in ``obs_states(obs(s))``, derive from them.

    A subclass also provides the successor sets the fixpoints read, in two
    observation-level tables. For the i-th action of ``avail(o)``, one of
    the explicit actions, which come first, ``obs_rows[o][i]`` holds a
    (target observation o2, place map) pair per observation it leads to;
    the map holds, for each place of o, the int mask (see `bits`) of the
    places of o2 that its state reaches. ``memory_edges[o]`` lists, for the
    actions of ``avail(o)`` after those, the observation each one leads
    to: under such an action the state at place i of ``obs_states(o)``
    moves to the state at place i of the target's class. A plain POMDP has
    no memory edges.
    """

    memory_edges: Mapping[int, tuple[int, ...]] = MappingProxyType({})

    def __init__(
        self,
        classes: list[tuple[int, ...]],
        availability: Mapping[int, tuple[int, ...]],
    ):
        self._obs_states = classes
        self.availability = availability
        n = sum(map(len, classes))
        self.obs_of = obs_of = [-1] * n
        self.obs_index = obs_index = [0] * n
        for o, cls in enumerate(classes):
            for i, s in enumerate(cls):
                if not 0 <= s < n or obs_of[s] >= 0:
                    raise ValueError(
                        f"the classes do not partition states 0..{n - 1}:"
                        f" state id {s} is out of range or listed twice"
                    )
                obs_of[s] = o
                obs_index[s] = i

    def state_name(self, s: int) -> str:
        raise NotImplementedError

    @property
    def n_states(self) -> int:
        return len(self.obs_of)

    @property
    def n_observations(self) -> int:
        return len(self._obs_states)

    def obs(self, s: int) -> int:
        return self.obs_of[s]

    def obs_states(self, o: int) -> tuple[int, ...]:
        return self._obs_states[o]

    def avail(self, o: int) -> tuple[int, ...]:
        return self.availability[o]

    def available_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield every (state, action) pair the model can actually play, sorted."""
        for s in range(self.n_states):
            for a in self.avail(self.obs(s)):
                yield s, a


def _id_of(names: list[str], name: str, kind: str) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise ModelError(f"unknown {kind} {name!r}") from None


class Pomdp(ObservedModel):
    """Finite POMDP with deterministic observations and per-observation availability.

    ``rows[(s, a)]`` is the successor distribution for playing action ``a`` in
    state ``s``. ``availability`` maps an observation id to the actions its
    states may play; observations absent from the mapping allow every action.
    Observing is a function of the state alone, so availability is well
    defined per observation.
    """

    def __init__(
        self,
        states: list[str],
        actions: list[str],
        observations: list[str],
        obs_of: list[int],
        rows: Mapping[tuple[int, int], Distr],
        initial: int,
        availability: Mapping[int, Iterable[int]] | None = None,
        name: str = "",
    ):
        if len(obs_of) != len(states):
            raise ModelError(
                f"obs_of has {len(obs_of)} entries for {len(states)} states"
            )
        if not 0 <= initial < len(states):
            raise ModelError(f"initial state id {initial} out of range")
        self.states = list(states)
        self.actions = list(actions)
        self.observations = list(observations)
        self.rows = dict(rows)
        self.initial = initial
        self.name = name
        all_actions = tuple(range(len(actions)))
        avail = {o: all_actions for o in range(len(observations))}
        if availability is not None:
            for o, acts in availability.items():
                avail[o] = tuple(sorted(set(acts)))
        by_obs: list[list[int]] = [[] for _ in observations]
        for s, o in enumerate(obs_of):
            if not 0 <= o < len(observations):
                raise ModelError(
                    f"state {self.state_name(s)!r} has observation id {o} out of range"
                )
            by_obs[o].append(s)
        super().__init__([tuple(ss) for ss in by_obs], avail)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def row(self, s: int, a: int) -> Distr:
        try:
            return self.rows[(s, a)]
        except KeyError:
            raise ModelError(
                f"no transition row for state {self.state_name(s)!r}"
                f" and action {self.action_name(a)!r}"
            ) from None

    def support(self, s: int, a: int) -> tuple[int, ...]:
        return self.row(s, a).support()

    @cached_property
    def obs_rows(self) -> list[tuple]:
        """The observation-level table of ``ObservedModel``, derived from the
        rows on first read; every action of a plain POMDP is explicit. A
        missing row raises ModelError as ``support`` does."""
        table = []
        for o in range(self.n_observations):
            cls = self.obs_states(o)
            per_action = []
            for a in self.avail(o):
                maps: dict[int, list[int]] = {}
                for p, s in enumerate(cls):
                    for t in self.support(s, a):
                        m = maps.setdefault(self.obs_of[t], [0] * len(cls))
                        m[p] |= 1 << self.obs_index[t]
                per_action.append(
                    tuple((o2, tuple(m)) for o2, m in sorted(maps.items()))
                )
            table.append(tuple(per_action))
        return table

    def state_name(self, s: int) -> str:
        return self.states[s]

    def action_name(self, a: int) -> str:
        return self.actions[a]

    def obs_name(self, o: int) -> str:
        return self.observations[o]

    def state_id(self, name: str) -> int:
        return _id_of(self.states, name, "state")

    def action_id(self, name: str) -> int:
        return _id_of(self.actions, name, "action")

    def obs_id(self, name: str) -> int:
        return _id_of(self.observations, name, "observation")


def _duplicate_names(*named: tuple[str, list[str]]) -> list[str]:
    """One problem per repeated name, for each (kind, names) pair."""
    problems = []
    for kind, names in named:
        seen: set[str] = set()
        for n in names:
            if n in seen:
                problems.append(f"duplicate {kind} name {n!r}")
            seen.add(n)
    return problems


def _row_problems(d: Distr | None, where: str, n_states: int) -> list[str]:
    """Problems of the transition row at ``where``: missing, not a proper
    distribution, or leading outside the ``n_states`` states."""
    if d is None:
        return [f"missing transition row for {where}"]
    problems = [f"{where}: {p}" for p in d.check()]
    for t in d.support():
        if not 0 <= t < n_states:
            problems.append(f"{where}: successor id {t} out of range")
    return problems


def validate(g: Pomdp, require_unique_initial_obs: bool = True) -> list[str]:
    """Check model invariants, returning one message per violation.

    An empty list means the model is well formed: unique names, non-empty
    availability everywhere, exactly one proper distribution per available
    pair and none elsewhere, and (unless disabled) the initial state alone in
    its observation class. Blind single-observation models built by the
    automaton reductions fail only that last point, so consumers that accept
    them validate with ``require_unique_initial_obs=False``.
    """
    problems = _duplicate_names(
        ("state", g.states), ("action", g.actions), ("observation", g.observations)
    )
    for o in range(g.n_observations):
        acts = g.avail(o)
        if not acts:
            problems.append(f"observation {g.obs_name(o)!r} has no available actions")
        for a in acts:
            if not 0 <= a < g.n_actions:
                problems.append(f"availability of {g.obs_name(o)!r} names bad action id {a}")
    # Bad action ids are reported above and play no part in the row checks.
    available = {(s, a) for s, a in g.available_pairs() if 0 <= a < g.n_actions}
    for s, a in sorted(available):
        where = f"state {g.state_name(s)!r}, action {g.action_name(a)!r}"
        problems += _row_problems(g.rows.get((s, a)), where, g.n_states)
    for s, a in sorted(g.rows):
        if (s, a) not in available:
            problems.append(
                f"transition row for state {g.state_name(s)!r} under"
                f" unavailable action {g.action_name(a)!r}"
            )
    if require_unique_initial_obs:
        cls = g.obs_states(g.obs(g.initial))
        if cls != (g.initial,):
            others = [g.state_name(s) for s in cls if s != g.initial]
            problems.append(
                f"initial state {g.state_name(g.initial)!r} shares its"
                f" observation with {', '.join(repr(n) for n in others)}"
            )
    return problems


def belief_obs(g: Pomdp, mask: int) -> int:
    """Observation shared by the states of a non-empty belief mask."""
    return g.obs((mask & -mask).bit_length() - 1)


def belief_successors(g: Pomdp, mask: int, a: int) -> list[tuple[int, int]]:
    """Successor supports of the belief ``mask`` after playing ``a``, split by
    the next observation, as sorted (observation, mask) pairs.

    Availability is the caller's concern: every state of the belief must
    have a row for ``a``.
    """
    grouped: dict[int, int] = {}
    for s in bits(mask):
        for t in g.support(s, a):
            o = g.obs(t)
            grouped[o] = grouped.get(o, 0) | (1 << t)
    return sorted(grouped.items())


def is_belief_observation(g: Pomdp) -> tuple[bool, list[str] | None]:
    """Test whether every reachable belief is a full observation class.

    When it fails, returns a shortest witness as an alternating list of
    observation and action names ``[o0, a1, o1, ..., ak, ok]`` whose final
    belief is a strict subset of its observation class. The search runs
    breadth-first over belief masks, in the order of ``belief_successors``.
    """
    classes = [mask_of(g.obs_states(o)) for o in range(g.n_observations)]
    b0 = 1 << g.initial
    if b0 != classes[g.obs(g.initial)]:
        return False, [g.obs_name(g.obs(g.initial))]
    parent: dict[int, tuple[int, int] | None] = {b0: None}
    queue = deque([b0])
    while queue:
        b = queue.popleft()
        for a in g.avail(belief_obs(g, b)):
            for o, nxt in belief_successors(g, b, a):
                if nxt in parent:
                    continue
                parent[nxt] = (b, a)
                if nxt != classes[o]:
                    path: list[str] = [g.obs_name(o)]
                    cur = nxt
                    while parent[cur] is not None:
                        prev, act = parent[cur]  # type: ignore[misc]
                        path.append(g.action_name(act))
                        path.append(g.obs_name(belief_obs(g, prev)))
                        cur = prev
                    path.reverse()
                    return False, path
                queue.append(nxt)
    return True, None


class RewardFn:
    """Reward per (state, action) pair, exact and total on the playable pairs."""

    def __init__(self, table: Mapping[tuple[int, int], object]):
        self.table: dict[tuple[int, int], Fraction] = {
            k: _frac(v) for k, v in sorted(table.items())
        }

    @classmethod
    def from_state_rewards(cls, g: Pomdp, by_state: Mapping[int, object]) -> "RewardFn":
        """Replicate a per-state reward across every action available there."""
        table: dict[tuple[int, int], object] = {}
        for s, a in g.available_pairs():
            table[(s, a)] = by_state.get(s, 0)
        return cls(table)

    def get(self, s: int, a: int) -> Fraction:
        try:
            return self.table[(s, a)]
        except KeyError:
            raise ModelError(f"no reward for state id {s}, action id {a}") from None

    def check(self, g: Pomdp) -> list[str]:
        """Report missing entries for playable pairs and values outside [0, 1]."""
        problems = []
        for s, a in g.available_pairs():
            where = f"state {g.state_name(s)!r}, action {g.action_name(a)!r}"
            r = self.table.get((s, a))
            if r is None:
                problems.append(f"missing reward for {where}")
            elif not 0 <= r <= 1:
                problems.append(f"{where}: reward {r} outside [0, 1]")
        return problems


class Pfa:
    """Probabilistic finite automaton over a finite alphabet.

    ``rows[(q, x)]`` is the successor distribution on reading letter ``x`` in
    state ``q``; the acceptance probability of a word is the mass on final
    states after reading it from the initial state.
    """

    def __init__(
        self,
        states: list[str],
        alphabet: list[str],
        final: Iterable[int],
        initial: int,
        rows: Mapping[tuple[int, int], Distr],
        name: str = "",
    ):
        if not 0 <= initial < len(states):
            raise ModelError(f"initial state id {initial} out of range")
        self.states = list(states)
        self.alphabet = list(alphabet)
        self.final = frozenset(final)
        self.initial = initial
        self.rows = dict(rows)
        self.name = name

    @property
    def n_states(self) -> int:
        return len(self.states)

    def row(self, q: int, x: int) -> Distr:
        try:
            return self.rows[(q, x)]
        except KeyError:
            raise ModelError(
                f"no transition row for state {self.states[q]!r}"
                f" on letter {self.alphabet[x]!r}"
            ) from None

    def letter_id(self, name: str) -> int:
        return _id_of(self.alphabet, name, "letter")


def validate_pfa(p: Pfa) -> list[str]:
    """Check automaton invariants: unique names, total rows, proper distributions."""
    problems = _duplicate_names(("state", p.states), ("letter", p.alphabet))
    for q in p.final:
        if not 0 <= q < p.n_states:
            problems.append(f"final state id {q} out of range")
    for q in range(p.n_states):
        for x in range(len(p.alphabet)):
            where = f"state {p.states[q]!r}, letter {p.alphabet[x]!r}"
            problems += _row_problems(p.rows.get((q, x)), where, p.n_states)
    for q, x in sorted(p.rows):
        if not (0 <= q < p.n_states and 0 <= x < len(p.alphabet)):
            problems.append(f"transition row at out-of-range pair ({q}, {x})")
    return problems
