"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-equal model texts, the same automata and the same strategies. The
program under test only ever sees the generated inputs.

* ``hidden_model(n, seed)`` is the hidden-n family of the ROADMAP baseline:
  n states, every state after the initial one sharing one observation,
  3 actions, 2 uniform successors per state and action drawn from the
  non-initial states, and reward 1 on each pair with probability 0.85.
  Hidden-5, 6 and 7 use the fixed seeds 105, 106 and 107.
* ``random_pfa(shape_rng, rng, n, k)`` draws an automaton in the style of
  the test helpers' ``random_pfa``, with n states and k letters. The
  supports of its rows come from ``shape_rng`` and the weights and final
  states from ``rng``.
* ``random_strategy(shape_rng, rng, g, memories, randomized)`` draws a
  finite-memory strategy whose update table is total on the pairs it
  plays. Supports come from ``shape_rng``; the weights of a randomized
  strategy come from ``rng``.
* ``witnesses/ring.txt`` and ``witnesses/trap-ring.txt`` are the solver's
  witnesses for the two ring gadgets, as ``emit_strategy`` wrote them, so
  that building the corpus runs no solver. Rewrite them with
  ``emit_strategy(decide_limavg1(g, rewards).witness, g)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from asmp import (
    Distr,
    FiniteMemoryStrategy,
    Pfa,
    Pomdp,
    RewardFn,
    emit_model,
    parse_strategy,
)
from asmp.gadgets import ring_pomdp, trap_ring_pomdp, unavoidable_zero_pomdp

HIDDEN_BASE = 100
WITNESSES = Path(__file__).resolve().parent / "witnesses"

# Reduction sizes of the ROADMAP baseline table; a mismatch fails the op.
BASELINE_COUNTS = {
    "ring": (1592, 30964),
    "trap-ring": (3030, 56126),
    "hidden-5@105": (2040, 37911),
    "hidden-6@106": (8224, 172615),
    "hidden-7@107": (22616, 651695),
}

# solve: models under a second are solved this many times in each pass.
SOLVE_REPEATS = 7
# solve: sizes of the seeded instances solved after the timed phase.
SOLVE_EXTRAS = (5, 6)
# pfa-threshold: rounds of one automaton per shape, words up to this length.
PFA_SHAPE_SEED = 11
PFA_ROUNDS = 3
PFA_SHAPES = tuple((n, k) for n in (1, 2, 3, 4) for k in (1, 2))
PFA_WORD_LENGTH = 4
# check-strategies: rounds of one strategy per (model, memories, kind).
STRATEGY_SHAPE_SEED = 7171
STRATEGY_ROUNDS = 3
STRATEGY_MODELS = (5, 6, 7, 8)
STRATEGY_MEMORIES = (4, 8, 16, 32, 64)


def hidden_model(n: int, seed: int) -> tuple[Pomdp, RewardFn]:
    rng = random.Random(seed)
    rest = range(1, n)
    rows = {
        (s, a): Distr.uniform(rng.sample(rest, 2)) for s in range(n) for a in range(3)
    }
    table = {
        (s, a): 1 if rng.random() < 0.85 else 0 for s in range(n) for a in range(3)
    }
    g = Pomdp(
        states=[f"s{i}" for i in range(n)],
        actions=["a", "b", "c"],
        observations=["init", "h"],
        obs_of=[0] + [1] * (n - 1),
        rows=rows,
        initial=0,
        name=f"hidden-{n}",
    )
    return g, RewardFn(table)


def _random_distr(rng: random.Random, targets: list[int]) -> Distr:
    weights = {t: Fraction(rng.randint(1, 3)) for t in targets}
    total = sum(weights.values())
    return Distr({t: w / total for t, w in weights.items()})


def random_pfa(shape_rng: random.Random, rng: random.Random, n: int, k: int) -> Pfa:
    rows = {}
    for q in range(n):
        for x in range(k):
            targets = shape_rng.sample(range(n), shape_rng.randint(1, n))
            rows[(q, x)] = _random_distr(rng, sorted(targets))
    final = [q for q in range(n) if rng.random() < 0.5]
    return Pfa(
        states=[f"q{i}" for i in range(n)],
        alphabet=[chr(ord("a") + i) for i in range(k)],
        final=final,
        initial=0,
        rows=rows,
        name=f"pfa-{n}x{k}",
    )


def words(alphabet: list[str], max_len: int) -> list[tuple[str, ...]]:
    return [
        w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)
    ]


def random_strategy(
    shape_rng: random.Random,
    rng: random.Random,
    g: Pomdp,
    memories: int,
    randomized: bool,
) -> FiniteMemoryStrategy:
    k = g.n_actions
    next_action = []
    for _ in range(memories):
        if randomized:
            acts = shape_rng.sample(range(k), shape_rng.randint(1, k))
            next_action.append(_random_distr(rng, sorted(acts)))
        else:
            next_action.append(Distr.dirac(shape_rng.randrange(k)))
    update = {}
    for m in range(memories):
        for o in range(g.n_observations):
            for a in next_action[m].support():
                if randomized:
                    targets = shape_rng.sample(range(memories), shape_rng.randint(1, 2))
                    update[(m, o, a)] = _random_distr(rng, sorted(targets))
                else:
                    update[(m, o, a)] = Distr.dirac(shape_rng.randrange(memories))
    return FiniteMemoryStrategy(
        memories=[f"m{i}" for i in range(memories)],
        next_action=next_action,
        update=update,
        initial=0,
    )


@dataclass
class SolveInput:
    op_id: str
    name: str
    text: str
    timed: bool = True


@dataclass
class PfaInput:
    op_id: str
    pfa: Pfa
    words: list[tuple[str, ...]]


@dataclass
class StrategyInput:
    op_id: str
    model: str
    sigma: FiniteMemoryStrategy


@dataclass
class StrategyCorpus:
    models: dict[str, tuple[Pomdp, RewardFn]]
    strategies: list[StrategyInput]


def solve_corpus(seed: int) -> list[SolveInput]:
    """Canonical model texts: the timed corpus, then the seeded instances.

    The timed corpus is the same at every seed: the three gadgets and
    hidden-5, 6 and 7 at the base seeds. The gadgets and hidden-5 take under
    a second each and appear SOLVE_REPEATS times, so that their latency is a
    median over repeats. ``seed`` draws one instance of each size in
    SOLVE_EXTRAS; these are solved and checked after the timed phase. Over
    instance seeds, hidden-5 takes 0.4 s to 5.6 s and hidden-6 1 s to 15 s,
    so timing them would make ``wall_s`` a property of the seed rather than
    of the program.
    """
    small = [
        ("ring", ring_pomdp()),
        ("trap-ring", trap_ring_pomdp()),
        ("unavoidable-zero", unavoidable_zero_pomdp()),
        (f"hidden-5@{HIDDEN_BASE + 5}", hidden_model(5, HIDDEN_BASE + 5)),
    ]
    large = [(f"hidden-{n}@{HIDDEN_BASE + n}", hidden_model(n, HIDDEN_BASE + n)) for n in (6, 7)]
    rng = random.Random(seed)
    seeded = []
    for n in SOLVE_EXTRAS:
        s = rng.randrange(10**6)
        seeded.append((f"hidden-{n}@{s}", hidden_model(n, s)))
    timed = [SolveInput(op_id, g.name, emit_model(g, r)) for op_id, (g, r) in small + large]
    return (
        timed[: len(small)] * SOLVE_REPEATS
        + timed[len(small) :]
        + [SolveInput(op_id, g.name, emit_model(g, r), False) for op_id, (g, r) in seeded]
    )


def pfa_corpus(seed: int) -> list[PfaInput]:
    """PFA_ROUNDS automata of every shape in PFA_SHAPES, each with every
    word up to PFA_WORD_LENGTH letters.

    The row supports are the same at every seed; ``seed`` draws the weights
    and the final states. Chain and class sizes, which set the cost of the
    exact stationary solve, then stay the same across seeds: with seeded
    supports ``wall_s`` and ``op_p90_ms`` vary by 10 to 15 percent between
    seeds."""
    shape_rng = random.Random(PFA_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for r in range(PFA_ROUNDS):
        for n, k in PFA_SHAPES:
            p = random_pfa(shape_rng, rng, n, k)
            out.append(PfaInput(f"r{r}-{n}x{k}", p, words(p.alphabet, PFA_WORD_LENGTH)))
    return out


def strategy_corpus(seed: int) -> StrategyCorpus:
    """Random strategies on hidden-5..8, stratified by model, memory count
    and kind, plus the committed witnesses for the two ring gadgets.

    As in ``pfa_corpus``, the supports are the same at every seed and
    ``seed`` draws the weights of the randomized strategies. Their latencies
    spread over two decades, so with seeded supports ``op_p50_ms`` and
    ``op_p90_ms`` vary by about 20 percent between seeds."""
    models = {
        f"hidden-{n}": hidden_model(n, HIDDEN_BASE + n) for n in STRATEGY_MODELS
    }
    strategies = []
    for name, build in (("ring", ring_pomdp), ("trap-ring", trap_ring_pomdp)):
        g, rewards = build()
        models[name] = (g, rewards)
        witness = parse_strategy((WITNESSES / f"{name}.txt").read_text(), g)
        strategies.append(StrategyInput(f"{name}-witness", name, witness))
    shape_rng = random.Random(STRATEGY_SHAPE_SEED)
    rng = random.Random(seed)
    for r in range(STRATEGY_ROUNDS):
        for n in STRATEGY_MODELS:
            g, _ = models[f"hidden-{n}"]
            for memories in STRATEGY_MEMORIES:
                for randomized in (False, True):
                    kind = "rand" if randomized else "det"
                    strategies.append(
                        StrategyInput(
                            f"r{r}-hidden-{n}-{memories}{kind}",
                            f"hidden-{n}",
                            random_strategy(shape_rng, rng, g, memories, randomized),
                        )
                    )
    return StrategyCorpus(models, strategies)
