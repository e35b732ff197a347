"""Fingerprints, the quotient-memory graph, and verdict preservation."""

import importlib
import random

import pytest

from asmp import (
    CollapsedMemory,
    Distr,
    FiniteMemoryStrategy,
    MemoryFingerprint,
    StrategyError,
    alternating_strategy,
    collapse,
    constant_strategy,
    fingerprints,
    product_chain,
    projection_graph,
    uniform_strategy,
    validate_strategy,
)
from asmp import chains
from asmp.bits import bits, mask_of
from asmp.gadgets import ring_pomdp, trap_ring_pomdp

from helpers import (
    as_finite_memory,
    bsccs,
    canonical,
    oracle_node_wins,
    random_belief_obs_pomdp,
    random_tagged_strategy,
    reach_set,
    successors,
)

# The package exports a function named ``collapse``, which hides the module.
collapse_module = importlib.import_module("asmp.collapse")


def oracle_fingerprints(g, rewards, sigma):
    """Re-derive the three summaries per memory, one chain node at a time."""
    mc = product_chain(g, rewards, sigma)
    win = [0] * sigma.n_memories
    rec = [0] * sigma.n_memories
    for i in range(mc.n_nodes):
        s, m = mc.labels[i]
        if oracle_node_wins(mc, i):
            win[m] |= 1 << s
    succ = {n: successors(mc, n) for n in range(mc.n_nodes)}
    for cls in bsccs(succ):
        for i in cls:
            s, m = mc.labels[i]
            rec[m] |= 1 << s
    return [
        MemoryFingerprint(win[m], rec[m], mask_of(sigma.next_action[m].support()))
        for m in range(sigma.n_memories)
    ]


def forked_strategy(rng, g, n_threads=3):
    """Random strategy whose start memory forks, on its first update, into
    independent deterministic threads with one memory per observation. The
    threads never meet, and their recurrent classes often disagree."""
    n_obs = g.n_observations
    o0 = g.obs(g.initial)

    def mem(k, o):
        return 1 + k * n_obs + o

    memories = ["start"] + [f"t{k}.{g.obs_name(o)}" for k in range(n_threads) for o in range(n_obs)]
    next_action = [Distr.uniform(sorted(g.avail(o0)))]
    next_action += [
        Distr.dirac(rng.choice(sorted(g.avail(o)))) for _ in range(n_threads) for o in range(n_obs)
    ]
    update = {}
    for o2 in range(n_obs):
        for a in g.avail(o0):
            update[(0, o2, a)] = Distr.uniform([mem(k, o2) for k in range(n_threads)])
        for k in range(n_threads):
            for o in range(n_obs):
                for a in next_action[mem(k, o)].support():
                    update[(mem(k, o), o2, a)] = Distr.dirac(mem(k, o2))
    return FiniteMemoryStrategy(memories, next_action, update, 0)


def feeds_winning_and_losing_classes(mc):
    """Does some transient node reach both a recurrent class that pays 1 on
    every play and one that does not?"""
    succ = {n: successors(mc, n) for n in range(mc.n_nodes)}
    classes = bsccs(succ)
    recurrent = frozenset().union(*classes)
    for i in range(mc.n_nodes):
        if i in recurrent:
            continue
        reached = reach_set(succ, i)
        pays_one = {
            all(r == 1 for n in cls for _, r in mc.plays[n].values())
            for cls in classes
            if cls & reached
        }
        if pays_one == {True, False}:
            return True
    return False


def oracle_edges(g, sigma, fps, pg):
    """Spell out the edge definition for every vertex the graph discovered."""
    by_fp = {}
    for m, fp in enumerate(fps):
        by_fp.setdefault(fp, []).append(m)
    index = {cm: v for v, cm in enumerate(pg.vertices)}
    edges = []
    for cm in pg.vertices:
        obs_y = g.obs(next(bits(cm.belief)))
        out = set()
        for a in bits(cm.fp.acts):
            if a not in g.avail(obs_y):
                continue
            post = set()
            for s in bits(cm.belief):
                post.update(g.support(s, a))
            for o in range(g.n_observations):
                y2 = mask_of(t for t in post if g.obs(t) == o)
                if not y2:
                    continue
                fp2s = set()
                for m in by_fp[cm.fp]:
                    row = sigma.update.get((m, o, a))
                    if row is not None:
                        fp2s.update(fps[m2] for m2 in row.support())
                for fp2 in fp2s:
                    target = CollapsedMemory(y2, fp2)
                    if target in index:
                        out.add((a, index[target]))
        edges.append(sorted(out))
    return edges


STRATEGIES = {
    "alternating": lambda g: alternating_strategy(g, 0, 1),
    "constant": lambda g: constant_strategy(g, 0),
}


class TestFingerprints:
    @pytest.mark.parametrize("kind", sorted(STRATEGIES))
    def test_ring_summaries_match_the_oracle(self, kind):
        g, r = ring_pomdp()
        sigma = STRATEGIES[kind](g)
        assert fingerprints(g, r, sigma) == oracle_fingerprints(g, r, sigma)

    def test_random_models_match_the_oracle(self):
        rng = random.Random(2024)
        for _ in range(40):
            g, r = random_belief_obs_pomdp(rng)
            sigma = as_finite_memory(uniform_strategy(g), g)
            assert fingerprints(g, r, sigma) == oracle_fingerprints(g, r, sigma)

    def test_random_strategies_match_the_oracle(self):
        rng = random.Random(2025)
        mixed = 0
        for k in range(240):
            g, r = random_belief_obs_pomdp(rng)
            if k % 2:
                sigma = forked_strategy(rng, g)
            else:
                sigma = random_tagged_strategy(rng, g, randomized=k % 4 == 2)
            assert fingerprints(g, r, sigma) == oracle_fingerprints(g, r, sigma)
            mixed += feeds_winning_and_losing_classes(product_chain(g, r, sigma))
        # The corpus reaches the case the sinks-first walk must get right:
        # transient nodes that lead both to won and to lost classes.
        assert mixed >= 10

    def test_one_component_pass_per_chain(self, monkeypatch):
        passes = []

        def counting_sccs(succ):
            passes.append(len(succ))
            return real_sccs(succ)

        real_sccs = chains._sccs
        monkeypatch.setattr(chains, "_sccs", counting_sccs)
        monkeypatch.setattr(collapse_module, "_sccs", counting_sccs)
        g, r = trap_ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        fingerprints(g, r, sigma)
        assert passes == [product_chain(g, r, sigma).n_nodes]

    def test_alternation_wins_from_the_cycles(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        fps = fingerprints(g, r, sigma)
        cycle_states = mask_of(
            g.state_id(n) for n in ("X", "X'", "Y", "Y'", "Z", "Z'")
        )
        # Both parities win everywhere on the ring: the start state scatters
        # and every ring state funnels into an all-reward-1 cycle.
        for fp in fps:
            assert fp.win & cycle_states == cycle_states


class TestProjectionGraph:
    @pytest.mark.parametrize("kind", sorted(STRATEGIES))
    def test_edges_match_the_spelled_out_definition(self, kind):
        g, r = trap_ring_pomdp()
        sigma = STRATEGIES[kind](g)
        fps = fingerprints(g, r, sigma)
        pg = projection_graph(g, sigma, fps)
        assert pg.edges == oracle_edges(g, sigma, fps, pg)

    def test_initial_vertex_is_the_start_belief(self):
        g, r = ring_pomdp()
        sigma = alternating_strategy(g, 0, 1)
        pg = projection_graph(g, sigma, fingerprints(g, r, sigma))
        assert pg.initial == 0
        assert pg.vertices[0].belief == 1 << g.initial


class TestCollapse:
    def test_ring_quotient_has_three_memories_and_wins(self):
        g, r = ring_pomdp()
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        assert collapsed.n_memories == 3
        assert collapsed.n_memories <= 2 ** (3 * g.n_states + g.n_actions)
        ok, _ = validate_strategy(g, r, collapsed)
        assert ok

    def test_trap_ring_quotient_has_five_memories_and_wins(self):
        g, r = trap_ring_pomdp()
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        assert collapsed.n_memories == 5
        ok, _ = validate_strategy(g, r, collapsed)
        assert ok

    def test_losing_input_stays_losing(self):
        g, r = ring_pomdp()
        collapsed = collapse(g, r, constant_strategy(g, 0))
        ok, diagnosis = validate_strategy(g, r, collapsed)
        assert not ok and diagnosis is not None

    def test_memories_are_canonical_collapsed_values(self):
        g, r = ring_pomdp()
        collapsed = collapse(g, r, alternating_strategy(g, 0, 1))
        for cm in collapsed.memories:
            assert isinstance(cm, CollapsedMemory)

    def test_verdict_preserved_on_random_models(self):
        rng = random.Random(99)
        for _ in range(30):
            g, r = random_belief_obs_pomdp(rng)
            sigma = as_finite_memory(uniform_strategy(g), g)
            before, _ = validate_strategy(g, r, sigma)
            try:
                collapsed = collapse(g, r, sigma)
            except StrategyError:
                # A reachable quotient memory with no outgoing action can
                # only arise from a losing input.
                assert not before
                continue
            after, _ = validate_strategy(g, r, collapsed)
            assert after == before


class TestCanonical:
    def test_canonical_is_idempotent_and_belief_bounded(self):
        cm = CollapsedMemory(0b0110, MemoryFingerprint(0b1111, 0b1010, 0b01))
        canon = canonical(cm)
        assert canonical(canon) == canon
        assert canon.belief == cm.belief
        assert canon.fp.acts == cm.fp.acts
        assert canon.fp.win & ~canon.belief == 0
        assert canon.fp.rec & ~canon.belief == 0
