"""Strategy collapse: quotient a finite-memory strategy by behavioral fingerprints.

Each memory element of a strategy is summarized by three facts about the
product chain: from which states it is almost-surely winning, at which states
it sits inside a recurrent class, and which actions it can play. Memories
with equal summaries are interchangeable, so the quotient strategy tracks
only (belief, summary) pairs. That caps the memory a winning strategy ever
needs at 2^(3n + k) for n states and k actions, and gives the decision
procedure a finite memory space to search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .bits import bits, mask_of
from .chains import FiniteMemoryStrategy, _sccs, product_chain
from .model import (
    Distr,
    ModelError,
    Pomdp,
    RewardFn,
    StrategyError,
    belief_obs,
    belief_successors,
)


@dataclass(frozen=True, order=True)
class MemoryFingerprint:
    """Behavioral summary of one memory element, as state/action bitmasks.

    ``win`` bit s: playing on from (s, m) achieves long-run average 1 almost
    surely. ``rec`` bit s: (s, m) lies in a recurrent class. Bits of states
    that never occur with m are 0. ``acts`` is the action support of the
    memory's choice distribution.
    """

    win: int
    rec: int
    acts: int


@dataclass(frozen=True, order=True)
class CollapsedMemory:
    """A quotient memory: belief support paired with a fingerprint."""

    belief: int
    fp: MemoryFingerprint

    def pretty(self, g: Pomdp) -> str:
        def names(mask: int) -> str:
            return ",".join(g.state_name(s) for s in bits(mask)) or "-"

        acts = ",".join(g.action_name(a) for a in bits(self.fp.acts)) or "-"
        return (
            f"(Y={names(self.belief)} W={names(self.fp.win)}"
            f" R={names(self.fp.rec)} A={acts})"
        )


def fingerprints(
    g: Pomdp, rewards: RewardFn, sigma: FiniteMemoryStrategy
) -> list[MemoryFingerprint]:
    """Summarize every memory of ``sigma`` from one product-chain analysis.

    The components of the chain's support graph come sinks first, so one
    walk over them settles every node. A component with no exit is a
    recurrent class, lost when it plays a reward below 1; any other
    component is lost when it exits into a lost one. A node is winning
    exactly when its component is not lost.
    """
    mc = product_chain(g, rewards, sigma)
    graph, n = mc.graph, mc.n_nodes
    comps, comp_of = _sccs(graph)
    win = [0] * sigma.n_memories
    rec = [0] * sigma.n_memories
    lost: list[bool] = []
    for c, comp in enumerate(comps):
        exits = {comp_of[j] for i in comp for j in graph[i]} - {c}
        # A hub plays nothing, and every component without an exit holds
        # nodes: the hubs of a component sort last and are passed over.
        if exits:
            lost.append(any(lost[d] for d in exits))
        else:
            lost.append(any(i < n and mc.below_one[i] is not None for i in comp))
        for i in comp:
            if i >= n:
                break
            s, m = mc.labels[i]
            if not exits:
                rec[m] |= 1 << s
            if not lost[c]:
                win[m] |= 1 << s
    return [
        MemoryFingerprint(win[m], rec[m], mask_of(sigma.next_action[m].support()))
        for m in range(sigma.n_memories)
    ]


@dataclass
class ProjectionGraph:
    """Reachable quotient-memory graph.

    ``edges[v]`` lists (action, target vertex id) pairs, sorted. An edge
    v -a-> v' exists when some observation o gives a non-empty belief update
    from v's belief, and some memory pair realizing the two fingerprints is
    linked by the strategy's update on (o, a).
    """

    vertices: list[CollapsedMemory]
    edges: list[list[tuple[int, int]]]
    initial: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def projection_graph(
    g: Pomdp, sigma: FiniteMemoryStrategy, fps: list[MemoryFingerprint]
) -> ProjectionGraph:
    by_fp: dict[MemoryFingerprint, list[int]] = {}
    for m, fp in enumerate(fps):
        by_fp.setdefault(fp, []).append(m)

    # Successor fingerprints of (fp, o, a) depend on the strategy alone, not
    # on the belief, so they are cached across vertices.
    fp_succ_cache: dict[tuple[MemoryFingerprint, int, int], tuple[MemoryFingerprint, ...]] = {}

    def fp_successors(fp: MemoryFingerprint, o: int, a: int) -> tuple[MemoryFingerprint, ...]:
        key = (fp, o, a)
        got = fp_succ_cache.get(key)
        if got is None:
            out = set()
            for m in by_fp[fp]:
                row = sigma.update.get((m, o, a))
                if row is not None:
                    for m2 in row.support():
                        out.add(fps[m2])
            got = tuple(sorted(out))
            fp_succ_cache[key] = got
        return got

    start = CollapsedMemory(1 << g.initial, fps[sigma.initial])
    vertices = [start]
    index = {start: 0}
    edges: list[list[tuple[int, int]]] = []
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        while len(edges) <= v:
            edges.append([])
        cm = vertices[v]
        avail = g.avail(belief_obs(g, cm.belief))
        out: list[tuple[int, int]] = []
        for a in bits(cm.fp.acts):
            if a not in avail:
                continue
            for o, y2 in belief_successors(g, cm.belief, a):
                for fp2 in fp_successors(cm.fp, o, a):
                    nxt = CollapsedMemory(y2, fp2)
                    w = index.get(nxt)
                    if w is None:
                        w = len(vertices)
                        index[nxt] = w
                        vertices.append(nxt)
                        frontier.append(w)
                    out.append((a, w))
        edges[v] = sorted(set(out))
    return ProjectionGraph(vertices=vertices, edges=edges, initial=0)


def collapse(
    g: Pomdp, rewards: RewardFn, sigma: FiniteMemoryStrategy
) -> FiniteMemoryStrategy:
    """Build the quotient strategy over projection-graph vertices.

    Plays uniformly over the actions leaving the current vertex; updates
    uniformly over the edge targets whose belief carries the observation just
    seen. Preserves the almost-sure mean-payoff-1 verdict of the input.
    """
    return _quotient(g, projection_graph(g, sigma, fingerprints(g, rewards, sigma)))


def _quotient(g: Pomdp, pg: ProjectionGraph) -> FiniteMemoryStrategy:
    """The strategy ``collapse`` plays on the projection graph ``pg`` of
    ``g``, once the graph is checked against its memory bound."""
    bound = 2 ** (3 * g.n_states + g.n_actions)
    if pg.n_vertices > bound:
        raise ModelError(
            f"projection graph has {pg.n_vertices} vertices, over its memory"
            f" bound 2^(3n+k) = {bound}"
        )
    next_action: list[Distr] = []
    update: dict[tuple[int, int, int], Distr] = {}
    for v, cm in enumerate(pg.vertices):
        acts = sorted({a for a, _ in pg.edges[v]})
        if not acts:
            raise StrategyError(
                f"no outgoing action at reachable quotient memory {cm.pretty(g)}"
            )
        next_action.append(Distr.uniform(acts))
        grouped: dict[tuple[int, int], set[int]] = {}
        for a, w in pg.edges[v]:
            o = belief_obs(g, pg.vertices[w].belief)
            grouped.setdefault((o, a), set()).add(w)
        for (o, a), targets in sorted(grouped.items()):
            update[(v, o, a)] = Distr.uniform(sorted(targets))
    return FiniteMemoryStrategy(
        memories=list(pg.vertices),
        next_action=next_action,
        update=update,
        initial=pg.initial,
    )
