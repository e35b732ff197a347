"""Shared oracles and random-instance generators.

Everything here re-derives the quantity under test from first principles:
explicit enumeration, path expansion, graph sweeps. Slower and dumber than
the library on purpose, so a shared bug would have to be invented twice.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from asmp import CollapsedMemory, Distr, MarkovChain, Pfa, Pomdp, RewardFn
from asmp.bits import bits, mask_of


# ---------------------------------------------------------------- graphs

def sccs(succ: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Kosaraju on a tiny successor map; components in no particular order."""
    order: list[int] = []
    seen: set[int] = set()
    for root in succ:
        if root in seen:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen.add(root)
        while stack:
            node, k = stack[-1]
            if k < len(succ[node]):
                stack[-1] = (node, k + 1)
                t = succ[node][k]
                if t not in seen:
                    seen.add(t)
                    stack.append((t, 0))
            else:
                order.append(node)
                stack.pop()
    rev: dict[int, list[int]] = {n: [] for n in succ}
    for s, ts in succ.items():
        for t in ts:
            rev[t].append(s)
    comps: list[list[int]] = []
    assigned: set[int] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = [root]
        assigned.add(root)
        frontier = [root]
        while frontier:
            n = frontier.pop()
            for t in rev[n]:
                if t not in assigned:
                    assigned.add(t)
                    comp.append(t)
                    frontier.append(t)
        comps.append(comp)
    return comps


def bsccs(succ: dict[int, tuple[int, ...]]) -> list[frozenset[int]]:
    out = []
    for comp in sccs(succ):
        members = frozenset(comp)
        if all(t in members for n in comp for t in succ[n]):
            out.append(members)
    return out


def reach_set(succ: dict[int, tuple[int, ...]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        n = frontier.pop()
        for t in succ[n]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


# ------------------------------------------------- observation strategies

def support_assignments(g: Pomdp):
    """Every map from observation to a non-empty subset of its actions."""
    per_obs = []
    for o in range(g.n_observations):
        acts = sorted(g.avail(o))
        subsets = [
            frozenset(c)
            for r in range(1, len(acts) + 1)
            for c in itertools.combinations(acts, r)
        ]
        per_obs.append(subsets)
    for combo in itertools.product(*per_obs):
        yield dict(enumerate(combo))


def _succ_under(g: Pomdp, f: dict[int, frozenset[int]], absorbing=frozenset()):
    succ = {}
    for s in range(g.n_states):
        if s in absorbing:
            succ[s] = (s,)
            continue
        targets: set[int] = set()
        for a in f[g.obs(s)]:
            targets.update(g.support(s, a))
        succ[s] = tuple(sorted(targets))
    return succ


def oracle_safe_obs(g: Pomdp, safe_states) -> set[int]:
    """Observations from whose whole class some assignment stays safe forever.

    Almost-sure safety on a finite chain only depends on the support graph:
    any positive-probability exit is taken eventually.
    """
    safe = frozenset(safe_states)
    good: set[int] = set()
    for f in support_assignments(g):
        succ = _succ_under(g, f)
        for o in range(g.n_observations):
            if o in good:
                continue
            if all(
                s in safe and reach_set(succ, s) <= safe
                for s in g.obs_states(o)
            ):
                good.add(o)
    return good


def oracle_reach_obs(g: Pomdp, target_states) -> set[int]:
    """Observations from whose whole class some assignment hits the targets
    almost surely, with the targets made absorbing."""
    targets = frozenset(target_states)
    good: set[int] = set()
    for f in support_assignments(g):
        succ = _succ_under(g, f, absorbing=targets)
        bad_classes = [c for c in bsccs(succ) if not c & targets]
        losing: set[int] = set()
        for c in bad_classes:
            losing.update(c)
        winning = {
            s for s in range(g.n_states) if not reach_set(succ, s) & losing
        }
        for o in range(g.n_observations):
            if o not in good and set(g.obs_states(o)) <= winning:
                good.add(o)
    return good


# ------------------------------------------------------- chain judgments

def oracle_node_wins(mc: MarkovChain, i: int) -> bool:
    """Does every recurrent class reachable from node i pay 1 on every play?"""
    succ = {n: mc.successors(n) for n in range(mc.n_nodes)}
    reachable = reach_set(succ, i)
    for cls in bsccs(succ):
        if cls & reachable and any(
            r != 1 for n in cls for _, r in mc.plays[n].values()
        ):
            return False
    return True


# ----------------------------------------------------- reduction oracles

def enabled_memory_action(
    g: Pomdp, cm2: CollapsedMemory, belief2: int, a: int, cm: CollapsedMemory
) -> bool:
    """Literal check of the memory-update enabledness conditions.

    ``cm2`` is a candidate next memory for the context (belief2, a, cm):
    win and recurrence bits must propagate from every flagged state of cm's
    belief to all its successors inside belief2, and the candidate's belief
    must be belief2 itself. The reduction enumerates exactly the passing
    candidates directly.
    """
    if cm2.belief != belief2:
        return False
    for src_mask, dst_mask in ((cm.fp.win, cm2.fp.win), (cm.fp.rec, cm2.fp.rec)):
        for s in bits(cm.belief & src_mask):
            forced = mask_of(g.support(s, a)) & belief2
            if forced & ~dst_mask:
                return False
    return True


# ------------------------------------------------------------ generators

def _random_distr(rng: random.Random, targets: list[int]) -> Distr:
    weights = {t: Fraction(rng.randint(1, 3)) for t in targets}
    total = sum(weights.values())
    return Distr({t: w / total for t, w in weights.items()})


def random_belief_obs_pomdp(rng: random.Random) -> tuple[Pomdp, RewardFn]:
    """Class-aligned instance: every row covers whole observation classes,
    and the initial state sits alone in its class, so each reachable belief
    is a full class by construction."""
    n_actions = rng.randint(1, 3)
    n_rest = rng.randint(1, 5)
    n_classes = rng.randint(1, min(3, n_rest))
    classes: list[list[int]] = [[] for _ in range(n_classes)]
    for s in range(1, n_rest + 1):
        classes[(s - 1) % n_classes].append(s)
    rng.shuffle(classes)
    obs_of = [0] * (n_rest + 1)
    for c, members in enumerate(classes):
        for s in members:
            obs_of[s] = c + 1
    availability = {
        o: frozenset(rng.sample(range(n_actions), rng.randint(1, n_actions)))
        for o in range(n_classes + 1)
    }
    rows = {}
    for s in range(n_rest + 1):
        for a in availability[obs_of[s]]:
            picked = rng.sample(range(n_classes), rng.randint(1, min(2, n_classes)))
            targets = sorted(t for c in picked for t in classes[c])
            rows[(s, a)] = _random_distr(rng, targets)
    g = Pomdp(
        states=[f"s{i}" for i in range(n_rest + 1)],
        actions=[f"a{i}" for i in range(n_actions)],
        observations=[f"o{i}" for i in range(n_classes + 1)],
        obs_of=obs_of,
        rows=rows,
        initial=0,
        availability=availability,
        name="random-belief-obs",
    )
    table = {
        (s, a): Fraction(rng.randint(0, 1)) for (s, a) in g.available_pairs()
    }
    return g, RewardFn(table)


def random_pomdp(rng: random.Random) -> Pomdp:
    """Unconstrained small instance for exercising the set primitives."""
    n_states = rng.randint(2, 6)
    n_actions = rng.randint(1, 3)
    n_obs = rng.randint(1, min(3, n_states - 1))
    obs_of = [0] + [rng.randrange(n_obs) + 1 if n_obs > 1 else 1 for _ in range(n_states - 1)]
    present = sorted(set(obs_of))
    remap = {o: i for i, o in enumerate(present)}
    obs_of = [remap[o] for o in obs_of]
    n_obs = len(present)
    availability = {
        o: frozenset(rng.sample(range(n_actions), rng.randint(1, n_actions)))
        for o in range(n_obs)
    }
    rows = {}
    for s in range(n_states):
        for a in availability[obs_of[s]]:
            targets = rng.sample(range(n_states), rng.randint(1, min(3, n_states)))
            rows[(s, a)] = _random_distr(rng, sorted(targets))
    return Pomdp(
        states=[f"s{i}" for i in range(n_states)],
        actions=[f"a{i}" for i in range(n_actions)],
        observations=[f"o{i}" for i in range(n_obs)],
        obs_of=obs_of,
        rows=rows,
        initial=0,
        availability=availability,
        name="random",
    )


def random_pfa(rng: random.Random, max_states: int = 4, max_letters: int = 2) -> Pfa:
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_letters)
    rows = {}
    for q in range(n):
        for x in range(k):
            targets = rng.sample(range(n), rng.randint(1, n))
            rows[(q, x)] = _random_distr(rng, sorted(targets))
    final = [q for q in range(n) if rng.random() < 0.5]
    return Pfa(
        states=[f"q{i}" for i in range(n)],
        alphabet=[chr(ord("a") + i) for i in range(k)],
        final=final,
        initial=0,
        rows=rows,
        name="random-pfa",
    )


def all_words(alphabet: list[str], max_len: int):
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield list(combo)


def acceptance_by_paths(p: Pfa, word: list[str]) -> Fraction:
    """Acceptance probability by brute-force path expansion."""
    letters = [p.letter_id(x) for x in word]

    def expand(q: int, i: int) -> Fraction:
        if i == len(letters):
            return Fraction(1) if q in p.final else Fraction(0)
        return sum(
            pr * expand(t, i + 1) for t, pr in p.row(q, letters[i]).items()
        )

    return expand(p.initial, 0)
