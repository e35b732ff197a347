"""Strategies, product chains, and long-run average analysis.

A finite-memory strategy keeps a memory state, picks actions from the memory
alone, and updates the memory from (memory, next observation, played action).
Playing one on a POMDP yields a finite Markov chain over (state, memory)
pairs; a memoryless strategy is played with the current observation as its
memory. Every long-run question is about that chain. Almost-sure
mean-payoff 1 holds exactly when every reachable recurrent class pays reward
1 on each pair it plays, which depends on the chain's supports alone, so the
chain is built over supports and its exact weights are derived only when a
quantitative question reads them: thresholds come from exact stationary
distributions of the recurrent classes. The solver proves its own YES
witness without building the chain: ``_wins_on_masks`` walks the same nodes
and edges as one state mask per memory and observation, and the chain is
built only to explain a witness that the masks do not prove.

A strategy often repeats one memory update many times, and an update that
can move to several memories would give every node that plays into it an
edge to each of them. The support graph instead routes such a move through
one hub node per (state, update support), which leads on to those memories.
Hubs only shorten the edge lists: they play nothing, always have an exit,
and a path through one is a path between nodes, so the recurrent classes
and the reachability of every node are those of the chain itself. An
update to one or two memories keeps direct edges: a hub would save at most
one edge per move and costs a node and two edges of its own.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .bits import bits
from .model import Distr, ModelError, Pomdp, RewardFn, StrategyError


class FiniteMemoryStrategy:
    """Randomized strategy with a finite memory set.

    ``next_action[m]`` is the action distribution played in memory ``m``;
    ``update[(m, o, a)]`` is the next-memory distribution after playing ``a``
    and then observing ``o``. The update table may be partial: triples that no
    play ever reaches can be omitted, and reaching one is an error. Memory
    labels are arbitrary hashable values used only for display. An empty
    row, or an update to a memory id outside ``range(len(memories))``,
    raises StrategyError.
    """

    def __init__(
        self,
        memories: Sequence[object],
        next_action: Sequence[Distr],
        update: Mapping[tuple[int, int, int], Distr],
        initial: int,
    ):
        if len(next_action) != len(memories):
            raise StrategyError("one action distribution needed per memory")
        n = len(memories)
        if not 0 <= initial < n:
            raise StrategyError(f"initial memory id {initial} out of range")
        for m, row in enumerate(next_action):
            if not row.p:
                raise StrategyError(f"memory id {m} has an empty action distribution")
        self.memories = list(memories)
        self.next_action = list(next_action)
        self.update = dict(update)
        self.initial = initial
        # Solver witnesses share their update rows: each row object is checked
        # once, under the first triple that holds it. Distr keys are sorted,
        # so the first and the last memory id of a row bound the others.
        checked: set[int] = set()
        for (m, o, a), row in self.update.items():
            if id(row) not in checked:
                checked.add(id(row))
                lo, hi = next(iter(row.p), None), next(reversed(row.p), None)
                if lo is None or not 0 <= lo <= hi < n:
                    head = f"memory update for memory id {m}, observation id {o}, action id {a}"
                    if lo is None:
                        raise StrategyError(f"{head} is empty")
                    k = lo if lo < 0 else hi
                    raise StrategyError(f"{head} names memory id {k}, out of range")

    @property
    def n_memories(self) -> int:
        return len(self.memories)

    def action_distr(self, m: int) -> Distr:
        return self.next_action[m]

    def update_row(self, m: int, o: int, a: int) -> Distr:
        try:
            return self.update[(m, o, a)]
        except KeyError:
            raise StrategyError(
                f"no memory update for memory {self.memories[m]!r},"
                f" observation id {o}, action id {a}"
            ) from None


class MemorylessStrategy:
    """Observation-based strategy without memory: one action distribution per
    observation."""

    def __init__(self, choice: Mapping[int, Distr]):
        self.choice = dict(choice)
        for o, row in self.choice.items():
            if not row.p:
                raise StrategyError(f"empty action choice for observation id {o}")

    def action_distr(self, o: int) -> Distr:
        try:
            return self.choice[o]
        except KeyError:
            raise StrategyError(f"no action choice for observation id {o}") from None


def constant_strategy(g: Pomdp, a: int) -> FiniteMemoryStrategy:
    """Always play action ``a``, regardless of history."""
    update = {(0, o, a): Distr.dirac(0) for o in range(g.n_observations)}
    return FiniteMemoryStrategy([g.action_name(a)], [Distr.dirac(a)], update, 0)


def uniform_strategy(g: Pomdp) -> MemorylessStrategy:
    """Play uniformly over whatever is available at the current observation."""
    return MemorylessStrategy(
        {o: Distr.uniform(g.avail(o)) for o in range(g.n_observations)}
    )


def alternating_strategy(g: Pomdp, a: int, b: int) -> FiniteMemoryStrategy:
    """Play ``a`` and ``b`` in strict alternation, starting with ``a``."""
    update = {}
    for o in range(g.n_observations):
        update[(0, o, a)] = Distr.dirac(1)
        update[(1, o, b)] = Distr.dirac(0)
    return FiniteMemoryStrategy(
        [g.action_name(a), g.action_name(b)],
        [Distr.dirac(a), Distr.dirac(b)],
        update,
        0,
    )


def _memory_text(g: Pomdp, label: object) -> str:
    if isinstance(label, str):
        return label
    pretty = getattr(label, "pretty", None)
    if callable(pretty):
        return pretty(g)
    return str(label)


class _ObservationMemory:
    """A memoryless strategy played as one whose memory is the current
    observation: memory ``o`` plays ``sigma``'s choice at ``o`` and every
    update moves to the observation just seen."""

    def __init__(self, g: Pomdp, sigma: MemorylessStrategy):
        self.initial = g.obs(g.initial)
        self.action_distr = sigma.action_distr
        self._rows: dict[int, Distr] = {}

    def update_row(self, m: int, o: int, a: int) -> Distr:
        row = self._rows.get(o)
        if row is None:
            row = self._rows[o] = Distr.dirac(o)
        return row


def _unavailable_play(g: Pomdp, s: int, a: int) -> StrategyError:
    """The error for a strategy that plays ``a`` at state s, whose
    observation does not allow it: one text for the chain builder and the
    simulator."""
    return StrategyError(
        f"strategy plays {g.action_name(a)!r} at state {g.state_name(s)!r},"
        f" unavailable at observation {g.obs_name(g.obs(s))!r}"
    )


def _playable(
    g: Pomdp, sigma: FiniteMemoryStrategy | MemorylessStrategy
) -> FiniteMemoryStrategy | _ObservationMemory:
    """``sigma`` as a strategy with memory, the one form that the chain
    builder and the simulator play: a memoryless strategy keeps the current
    observation as its memory."""
    if isinstance(sigma, MemorylessStrategy):
        return _ObservationMemory(g, sigma)
    return sigma


class MarkovChain:
    """Finite Markov chain arising from a strategy played on a POMDP.

    Nodes are (state, memory) pairs in discovery order, node 0 the start,
    and every node is reachable from the start. ``product_chain`` records
    supports only. ``graph`` is the support graph: ``graph[i]`` for node
    i < n_nodes lists its successors, where a move into an update with
    three or more memories leads to a hub, numbered n_nodes and up, whose
    own list holds the nodes it routes to. ``below_one[i]`` is the smallest
    action node i plays for reward below 1, or None when it pays 1 on every
    play. The qualitative questions read only these and the recurrent
    classes.

    The exact weights are derived on first read: ``rows[i]`` is node i's
    successor distribution, ``plays[i]`` maps each action played at node i
    to its play probability and reward, and
    ``edge_actions`` records which actions contribute to each edge, for
    rendering.
    """

    def __init__(
        self,
        g: Pomdp,
        rewards: RewardFn,
        sigma: FiniteMemoryStrategy | _ObservationMemory,
        labels: list[tuple[int, int]],
        index: dict[tuple[int, int], int],
        graph: list[Sequence[int]],
        below_one: list[int | None],
    ):
        self._g = g
        self._rewards = rewards
        self._sigma = sigma
        self.labels = labels
        self.index = index
        self.graph = graph
        self.below_one = below_one
        self.start = 0
        # Exact mean of each recurrent class, by class index, once solved.
        self._class_means: dict[int, Fraction] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def reachable(self) -> list[int]:
        """Every node, in id order: the chain holds only reachable nodes."""
        return list(range(self.n_nodes))

    @cached_property
    def recurrent(self) -> list[list[int]]:
        """Bottom strongly connected components, sorted by smallest node id:
        the components of the one Tarjan pass that no edge leaves. A hub
        has an exit, so every bottom class holds nodes; its hubs sort last
        and are dropped."""
        graph, n = self.graph, self.n_nodes
        comps, comp_of = _sccs(graph)
        bottoms = [
            [i for i in comp if i < n]
            for c, comp in enumerate(comps)
            if all(comp_of[t] == c for i in comp for t in graph[i])
        ]
        return sorted(bottoms, key=lambda comp: comp[0])

    @cached_property
    def label_texts(self) -> list[str]:
        g = self._g
        if isinstance(self._sigma, _ObservationMemory):
            return [g.state_name(s) for s, _ in self.labels]
        memories = {m for _, m in self.labels}
        memory = {m: _memory_text(g, self._sigma.memories[m]) for m in memories}
        return [f"{g.state_name(s)}·{memory[m]}" for s, m in self.labels]

    @cached_property
    def action_names(self) -> list[str]:
        return [self._g.action_name(a) for a in range(self._g.n_actions)]

    @property
    def rows(self) -> list[Distr]:
        return self._weights[0]

    @property
    def plays(self) -> list[dict[int, tuple[Fraction, Fraction]]]:
        return self._weights[1]

    @property
    def edge_actions(self) -> dict[tuple[int, int], frozenset[int]]:
        return self._weights[2]

    @cached_property
    def _weights(self):
        """Replay every node's moves with their probabilities."""
        g, rewards, sigma, index = self._g, self._rewards, self._sigma, self.index
        rows: list[Distr] = []
        plays: list[dict[int, tuple[Fraction, Fraction]]] = []
        edge_actions: dict[tuple[int, int], set[int]] = {}
        for i, (s, m) in enumerate(self.labels):
            weights: dict[int, Fraction] = {}
            played: dict[int, tuple[Fraction, Fraction]] = {}
            for a, pa in sigma.action_distr(m).items():
                played[a] = (pa, rewards.get(s, a))
                for t, pt in g.row(s, a).items():
                    for m2, pm in sigma.update_row(m, g.obs(t), a).items():
                        j = index[(t, m2)]
                        w = pa * pt * pm
                        weights[j] = weights[j] + w if j in weights else w
                        edge_actions.setdefault((i, j), set()).add(a)
            rows.append(Distr(weights))
            plays.append(played)
        return (
            rows,
            plays,
            {e: frozenset(acts) for e, acts in sorted(edge_actions.items())},
        )


def product_chain(
    g: Pomdp,
    rewards: RewardFn,
    sigma: FiniteMemoryStrategy | MemorylessStrategy,
) -> MarkovChain:
    """Build the reachable chain of ``sigma`` played on ``g``, over supports.

    A memoryless strategy is played with the current observation as its
    memory. A move into an update with one or two memories is a direct
    edge; one into an update with more goes through the hub of its state
    and support (see ``MarkovChain``). Raises StrategyError when the strategy
    plays an action unavailable at the current observation or reaches a
    missing memory-update row, and ModelError when a played pair has no
    reward.
    """
    sigma = _playable(g, sigma)
    start = (g.initial, sigma.initial)
    labels = [start]
    index = {start: 0}
    graph: list[Sequence[int]] = []
    below_one: list[int | None] = []
    # By id of an update row: its support, the number of that support
    # among those that get hubs or -1, and the row, which keeps the id
    # taken.
    shapes: dict[int, tuple[tuple[int, ...], int, Distr]] = {}
    support_ids: dict[tuple[int, ...], int] = {}
    # Hub k by (state, support number), and the nodes it leads to.
    hub_ids: dict[tuple[int, int], int] = {}
    hubs: list[list[int]] = []
    # Nodes whose lists name hubs, as ~k until the node count is known.
    hubbed: list[int] = []
    # labels grows during the walk, so nodes are expanded in discovery order.
    # A hub is expanded where it is first met, which discovers its nodes in
    # the order the direct edges would.
    for s, m in labels:
        o = g.obs(s)
        avail = g.avail(o)
        nxt: set[int] = set()
        add = nxt.add
        via_hub = False
        low = None
        for a in sigma.action_distr(m).support():
            if a not in avail:
                raise _unavailable_play(g, s, a)
            if rewards.get(s, a) != 1 and low is None:
                low = a
            for t in g.support(s, a):
                row = sigma.update_row(m, g.obs(t), a)
                shape = shapes.get(id(row))
                if shape is None:
                    ms = row.support()
                    k = -1
                    if len(ms) > 2:
                        k = support_ids.setdefault(ms, len(support_ids))
                    shape = shapes[id(row)] = (ms, k, row)
                ms, k, _ = shape
                if k < 0:
                    put = add
                else:
                    via_hub = True
                    h = hub_ids.get((t, k))
                    if h is not None:
                        add(~h)
                        continue
                    h = hub_ids[(t, k)] = len(hubs)
                    add(~h)
                    hubs.append([])
                    put = hubs[h].append
                for m2 in ms:
                    node = (t, m2)
                    j = index.get(node)
                    if j is None:
                        j = index[node] = len(labels)
                        labels.append(node)
                    put(j)
        if via_hub:
            hubbed.append(len(graph))
            graph.append(nxt)
        else:
            graph.append(tuple(sorted(nxt)))
        below_one.append(low)
    n = len(labels)
    for i in hubbed:
        graph[i] = tuple(sorted(j if j >= 0 else n + ~j for j in graph[i]))
    graph += hubs
    return MarkovChain(g, rewards, sigma, labels, index, graph, below_one)


def _sccs(succ: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Tarjan's algorithm, iterative to survive deep chains.

    Returns the strongly connected components of the graph with successor
    lists ``succ``, each sorted, and ``comp_of[i]``, the index of node i's
    component. Components come sinks first: each after every component it
    reaches.
    """
    n = len(succ)
    UNSEEN = -1
    order = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    comp_of = [0] * n
    stack: list[int] = []
    counter = 0
    out: list[list[int]] = []
    for root in range(n):
        if order[root] != UNSEEN:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Each frame resumes its node's successor iterator where the last
        # descent left it.
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] == UNSEEN:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(out)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(sorted(comp))
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return out, comp_of


def recurrent_classes(mc: MarkovChain) -> list[list[int]]:
    """Bottom strongly connected components, sorted by smallest node id:
    ``mc.recurrent``, which the package reads directly. Kept for the
    benchmark and the demos."""
    return mc.recurrent


def limavg1_diagnosis(mc: MarkovChain) -> tuple[list[int], tuple[int, int]] | None:
    """Find a reason the chain's long-run average is not almost surely 1.

    Returns (recurrent class, (node, action)) for the first recurrent class
    containing a played pair with reward below 1, or None when no such class
    exists. Every node of the chain is reachable from the start, and so is
    every recurrent class. With rewards capped at 1, paying 1 on every
    played pair of every recurrent class is exactly almost-sure mean-payoff
    1, so None certifies the property.
    """
    for cls in mc.recurrent:
        for i in cls:
            if mc.below_one[i] is not None:
                return cls, (i, mc.below_one[i])
    return None


def _mask_walk(
    g: Pomdp, rewards: RewardFn, sigma: FiniteMemoryStrategy
) -> tuple[list, list[int], list[int], Callable[[list[int]], list[int]]] | None:
    """The chain of ``sigma`` played on ``g`` as one int state mask per
    group, for ``_wins_on_masks``: a group is a memory m with an
    observation o, and bit i of its mask is the state ``base + i``, where
    the base is the lowest state of o. So a mask spans one observation's
    states, however many states the model has.

    Returns (groups, reached, below, back): ``groups[i]`` is the memory and
    the base of group i, ``reached[i]`` its states s of the chain's nodes
    (s, m), ``below[i]`` those of them that play an action paying below 1,
    and ``back(seed)`` the masks of the reached nodes that can reach a node
    of the group masks ``seed``. A move into an update row with three or
    more memories goes through the hub mask of the row's support, as
    ``product_chain`` routes it. Returns None when the play is irregular:
    an unavailable action, or a missing transition row, reward or update
    row; ``product_chain`` then names the fault.
    """
    n_obs, n_act, obs = g.n_observations, g.n_actions, g.obs
    lo = [min(g.obs_states(o), default=0) for o in range(n_obs)]
    # Per action: the states of each observation that may play it and those
    # that pay below 1; each such state's successors, and each state's
    # predecessors, as a mask per observation.
    playable = [[0] * n_obs for _ in range(n_act)]
    low = [[0] * n_obs for _ in range(n_act)]
    succ: list[dict[int, dict[int, int]]] = [{} for _ in range(n_act)]
    preds: list[dict[int, dict[int, int]]] = [{} for _ in range(n_act)]
    for s in range(g.n_states):
        o = obs(s)
        bit = 1 << s - lo[o]
        for a in g.avail(o):
            row, r = g.rows.get((s, a)), rewards.table.get((s, a))
            if row is not None and r is not None:
                playable[a][o] |= bit
                if r != 1:
                    low[a][o] |= bit
                split = succ[a][s] = {}
                for t in row.p:
                    o2 = obs(t)
                    split[o2] = split.get(o2, 0) | 1 << t - lo[o2]
                    into_t = preds[a].setdefault(t, {})
                    into_t[o] = into_t.get(o, 0) | bit
    update, plays = sigma.update, [row.support() for row in sigma.next_action]
    # The images of ``post`` and ``pre``, cached by mask in one dict per
    # action a and observation o, at a * n_obs + o.
    posts: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n_act * n_obs)]
    pres: list[dict[int, dict[int, int]]] = [{} for _ in range(n_act * n_obs)]

    def post(a: int, o: int, x: int) -> list[tuple[int, int]]:
        """The successors of the states x of o under a, by observation."""
        cache = posts[a * n_obs + o]
        got = cache.get(x)
        if got is None:
            split: dict[int, int] = {}
            for i in bits(x):
                for o2, t in succ[a][lo[o] + i].items():
                    split[o2] = split.get(o2, 0) | t
            got = cache[x] = sorted(split.items())
        return got

    def pre(a: int, o2: int, x: int) -> dict[int, int]:
        """The states with a successor among the states x of o2 under a, by
        observation."""
        cache = pres[a * n_obs + o2]
        got = cache.get(x)
        if got is None:
            got = cache[x] = {}
            for i in bits(x):
                for o, p in preds[a].get(lo[o2] + i, {}).items():
                    got[o] = got.get(o, 0) | p
        return got

    # Memory groups: the memory, the observation (-1 until met) and the
    # reached mask of each; the moves into each by a direct edge, as
    # ``src * n_act + a`` for the source group src and the action a; and
    # the hub groups that lead to each. Lists of moves or hubs are one
    # shared empty tuple until there is one. Group m is memory m at the
    # first observation it is met at, the others follow.
    n = sigma.n_memories
    group_ids: dict[tuple[int, int], int] = {}
    group_mem = list(range(n))
    group_obs = [-1] * n
    reached = [0] * n
    direct: list = [()] * n
    hubs_into: list = [()] * n
    # Hub groups: the observation, the states t of the nodes (t, hub), and
    # the memory groups led to; and at ``k * n_act + a``, the source groups
    # of the moves into hub group k under action a. Moves are recorded each
    # time a level meets them: a repeat only repeats a pre-image that
    # ``back`` finds cached.
    hub_ids: dict[tuple[tuple[int, ...], int], int] = {}
    hub_obs: list[int] = []
    hubs: list[int] = []
    hub_targets: list[tuple[int, ...]] = []
    users: list = []

    def groups_at(ms: tuple[int, ...], o: int) -> tuple[int, ...]:
        """The groups of the memories ``ms`` at observation o."""
        out = []
        for m in ms:
            if group_obs[m] != o:
                if group_obs[m] < 0:
                    group_obs[m] = o
                else:
                    got = group_ids.get((m, o))
                    if got is None:
                        got = group_ids[(m, o)] = len(group_mem)
                        group_mem.append(m)
                        group_obs.append(o)
                        reached.append(0)
                        direct.append(())
                        hubs_into.append(())
                    m = got
            out.append(m)
        return ms if out == list(ms) else tuple(out)

    # By id of an update row, which sigma keeps, times n_obs plus the
    # observation: the hub group it moves to, or the memory groups it moves
    # to by direct edges.
    moves: dict[int, int | tuple[int, ...]] = {}

    def targets(row: Distr, o2: int) -> int | tuple[int, ...]:
        key = id(row) * n_obs + o2
        got = moves.get(key)
        if got is None:
            ms = row.support()
            if len(ms) > 2:
                got = hub_ids.get((ms, o2))
                if got is None:
                    got = hub_ids[(ms, o2)] = len(hubs)
                    hub_obs.append(o2)
                    hubs.append(0)
                    hub_targets.append(groups_at(ms, o2))
                    users.extend([()] * n_act)
                    for g2 in hub_targets[got]:
                        if not hubs_into[g2]:
                            hubs_into[g2] = []
                        hubs_into[g2].append(got)
            else:
                got = groups_at(ms, o2)
            moves[key] = got
        return got

    o0 = obs(g.initial)
    level = {groups_at((sigma.initial,), o0)[0]: 1 << g.initial - lo[o0]}
    while level:
        hit: dict[int, int] = {}
        into: dict[int, int] = {}
        for src, new in level.items():
            reached[src] |= new
            m, o = group_mem[src], group_obs[src]
            for a in plays[m]:
                if new & ~playable[a][o]:
                    return None
                move = src * n_act + a
                for o2, t in post(a, o, new):
                    row = update.get((m, o2, a))
                    if row is None:
                        return None
                    k = targets(row, o2)
                    if isinstance(k, int):
                        into[k] = into.get(k, 0) | t
                        if not users[k * n_act + a]:
                            users[k * n_act + a] = []
                        users[k * n_act + a].append(src)
                        continue
                    for g2 in k:
                        hit[g2] = hit.get(g2, 0) | t
                        if not direct[g2]:
                            direct[g2] = []
                        direct[g2].append(move)
        for k, t in into.items():
            t &= ~hubs[k]
            if t:
                hubs[k] |= t
                for g2 in hub_targets[k]:
                    hit[g2] = hit.get(g2, 0) | t
        level = {g2: t & ~reached[g2] for g2, t in hit.items() if t & ~reached[g2]}

    below = [0] * len(reached)
    for src, x in enumerate(reached):
        for a in plays[group_mem[src]]:
            below[src] |= x & low[a][group_obs[src]]

    def back(seed: list[int]) -> list[int]:
        can = list(seed)
        hub_can = [0] * len(hubs)
        level = {g2: x for g2, x in enumerate(can) if x}
        while level:
            hit: dict[int, int] = {}
            into: dict[int, int] = {}
            for g2, new in level.items():
                o2 = group_obs[g2]
                for move in direct[g2]:
                    src, a = divmod(move, n_act)
                    p = pre(a, o2, new).get(group_obs[src], 0)
                    hit[src] = hit.get(src, 0) | p
                for k in hubs_into[g2]:
                    into[k] = into.get(k, 0) | new
            for k, t in into.items():
                t &= hubs[k] & ~hub_can[k]
                if t:
                    hub_can[k] |= t
                    for a in range(n_act):
                        srcs = users[k * n_act + a]
                        if srcs:
                            into_o = pre(a, hub_obs[k], t)
                            for src in srcs:
                                p = into_o.get(group_obs[src], 0)
                                hit[src] = hit.get(src, 0) | p
            level = {}
            for src, x in hit.items():
                x &= reached[src] & ~can[src]
                if x:
                    can[src] |= x
                    level[src] = x
        return can

    groups = [(m, lo[o] if o >= 0 else 0) for m, o in zip(group_mem, group_obs)]
    return groups, reached, below, back


def _mask_chain(
    g: Pomdp, rewards: RewardFn, sigma: FiniteMemoryStrategy
) -> tuple[list[int], list[int], Callable[[list[int]], list[int]]] | None:
    """The walk of ``_mask_walk`` as one int state mask per memory: the
    view the tests compare with the product chain's nodes.

    Returns (reached, below, back): ``reached[m]`` holds the states s of the
    chain's nodes (s, m), ``below[m]`` those of them that play an action
    paying below 1, and ``back(seed)`` the masks of the reached nodes that
    can reach a node of the masks ``seed``; or None when the play is
    irregular.
    """
    walk = _mask_walk(g, rewards, sigma)
    if walk is None:
        return None
    groups, reached, below, back = walk

    def spread(masks: list[int]) -> list[int]:
        out = [0] * sigma.n_memories
        for (m, base), x in zip(groups, masks):
            out[m] |= x << base
        return out

    def gather(seed: list[int]) -> list[int]:
        return [seed[m] >> base & x for (m, base), x in zip(groups, reached)]

    return spread(reached), spread(below), lambda seed: spread(back(gather(seed)))


def _wins_on_masks(g: Pomdp, rewards: RewardFn, sigma: FiniteMemoryStrategy) -> bool:
    """Prove that ``sigma`` wins almost-sure limit-average 1 on ``g``, on
    the nodes and edges of its product chain kept as state masks (see
    ``_mask_walk``), with no chain and no component search.

    W is the set of reached nodes that cannot reach a play paying below 1.
    Every node reaches a bottom class, a bottom class without such a play
    lies in W, and one with such a play holds no node of W; so the strategy
    wins exactly when every reached node can reach W. False means not
    proved: the play is irregular or loses, and ``validate_strategy`` says
    which.
    """
    walk = _mask_walk(g, rewards, sigma)
    if walk is None:
        return False
    _, reached, below, back = walk
    w = [x & ~y for x, y in zip(reached, back(below))]
    return back(w) == reached


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ModelError("singular stationary system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def bscc_mean_payoff(mc: MarkovChain, cls: Sequence[int]) -> Fraction:
    """Expected long-run average reward inside one recurrent class.

    Solves the stationary distribution exactly over Fractions, once per
    class: the mean is kept on the chain for later reads. ``cls`` must be a
    recurrent class of the chain.
    """
    members = sorted(cls)
    try:
        c = mc.recurrent.index(members)
    except ValueError:
        raise ModelError(f"{members} is not a recurrent class of this chain") from None
    if c in mc._class_means:
        return mc._class_means[c]
    local = {i: k for k, i in enumerate(members)}
    n = len(members)
    step_reward = []
    for i in members:
        step_reward.append(sum((p * r for p, r in mc.plays[i].values()), Fraction(0)))
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in members:
        for j, p in mc.rows[i].items():
            a[local[j]][local[i]] += p
    for k in range(n):
        a[k][k] -= 1
    # Stationary equations are rank n-1; swap one for the normalization.
    a[n - 1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    pi = _solve_exact(a, b)
    mean = mc._class_means[c] = sum(
        (pi[k] * step_reward[k] for k in range(n)), Fraction(0)
    )
    return mean


def almost_sure_limavg_gt(mc: MarkovChain, lam: Fraction) -> bool:
    """Does the long-run average exceed ``lam`` almost surely from the start?

    Inside a recurrent class the average is its stationary mean almost
    surely, so the question reduces to every class beating ``lam``.
    """
    return all(bscc_mean_payoff(mc, cls) > lam for cls in mc.recurrent)

