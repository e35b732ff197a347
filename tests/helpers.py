"""Shared oracles, reference implementations and random-instance generators.

Everything here re-derives the quantity under test from first principles:
explicit enumeration, path expansion, graph sweeps. Slower and dumber than
the library on purpose, so a shared bug would have to be invented twice.
The references are code the library replaced or never needed at run time:
the product chain with every edge spelled out (no hubs) and a chain's
successor lists with its hubs passed through, the pair-keyed
fixpoints, the product-chain certification of reachability (which the
library leaves to the witness's validation), the
frozenset belief check, the projection of a collapsed strategy onto the
reduction (the completeness direction of the construction) with the
canonical form of a collapsed memory, the per-state row table of a
reduction, the dump of a reduced model as a plain POMDP with rewards, and
the lift of a memoryless strategy to a finite-memory one with its update
table written out.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from asmp import (
    BeliefObsPomdp,
    CollapsedMemory,
    Distr,
    FiniteMemoryStrategy,
    MarkovChain,
    MemoryFingerprint,
    MemorylessStrategy,
    ModelError,
    Pfa,
    Pomdp,
    ReachResult,
    RewardFn,
    SafetyResult,
    StrategyError,
    recurrent_classes,
)
from asmp.bits import bits, mask_of
from asmp.chains import _playable, _unavailable_play
from asmp.model import belief_obs, belief_successors
from asmp.reduction import INIT, SINK, enabled_action


# ---------------------------------------------------------------- graphs

def successors(mc: MarkovChain, i: int) -> tuple[int, ...]:
    """The sorted successors of node i of ``mc``, with the hubs of
    ``mc.graph`` passed through."""
    out = mc.graph[i]
    n = mc.n_nodes
    # A node's list is sorted, so any hubs in it come last.
    if not out or out[-1] < n:
        return out
    return tuple(sorted({j for h in out for j in (mc.graph[h] if h >= n else (h,))}))


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


# --------------------------------------------------------- product chain

def reference_product_chain(g: Pomdp, rewards: RewardFn, sigma) -> MarkovChain:
    """The product chain with an edge from each node to each of its
    successors, no hubs: nodes in the same discovery order, the same
    errors, and ``graph[i]`` equal to ``successors(mc, i)``."""
    sigma = _playable(g, sigma)
    start = (g.initial, sigma.initial)
    labels = [start]
    index = {start: 0}
    succ: list[tuple[int, ...]] = []
    below_one: list[int | None] = []
    for s, m in labels:
        o = g.obs(s)
        avail = g.avail(o)
        nxt: set[int] = set()
        low = None
        for a in sigma.action_distr(m).support():
            if a not in avail:
                raise _unavailable_play(g, s, a)
            if rewards.get(s, a) != 1 and low is None:
                low = a
            for t in g.support(s, a):
                for m2 in sigma.update_row(m, g.obs(t), a).support():
                    node = (t, m2)
                    j = index.get(node)
                    if j is None:
                        j = index[node] = len(labels)
                        labels.append(node)
                    nxt.add(j)
        succ.append(tuple(sorted(nxt)))
        below_one.append(low)
    return MarkovChain(g, rewards, sigma, labels, index, succ, below_one)


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


# ------------------------------------------------ fixpoint references

def oracle_allow(g, o, obs_set):
    """Actions keeping every state of o's class inside obs_set, spelled out."""
    out = []
    for a in g.avail(o):
        if all(
            g.obs(t) in obs_set
            for s in g.obs_states(o)
            for t in g.support(s, a)
        ):
            out.append(a)
    return tuple(out)


class AbsorbingView:
    """Read-only view of a model with a state set made absorbing."""

    def __init__(self, g, absorbing):
        self._g = g
        self.absorbing = frozenset(absorbing)

    def __getattr__(self, name):
        return getattr(self._g, name)

    def support(self, s, a):
        if s in self.absorbing:
            return (s,)
        return self._g.support(s, a)

    def row(self, s, a):
        if s in self.absorbing:
            return Distr.dirac(s)
        return self._g.row(s, a)


def reference_almost_safe(g, safe_states) -> SafetyResult:
    """The safety fixpoint on dicts keyed by pairs: a worklist with
    per-(state, action) exit counts and per-(observation, action) breakage
    counts. The library's group-indexed version must give the same
    iterates and the same ``allow_map``, key order included."""
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
        o: tuple(a for a in g.avail(o) if broken[(o, a)] == 0) for o in sorted(y_star)
    }
    return SafetyResult(y_star, allow_map, iterates)


def reference_almost_reach(g, target_states) -> ReachResult:
    """The reachability fixpoint by rescanning: each outer round recomputes
    the allowed actions of every observation, and each inner pass scans
    every pending state. The library's worklist version must give the same
    Z iterates, X growth and ``allow_map`` (key order included). Only this
    reference certifies the play over its ``allow_map``; the library
    leaves the one check of a YES to the witness's validation."""
    targets = frozenset(target_states)
    view = AbsorbingView(g, targets)
    z = frozenset(range(g.n_observations))
    z_iterates = [z]
    x_rounds: list[list[int]] = []
    allow_map: dict[int, tuple[int, ...]] = {}
    while True:
        allow_map = {o: oracle_allow(view, o, z) for o in sorted(z)}
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

    if z and g.obs(g.initial) in z:
        reference_certify_reach(g, targets, allow_map)
    return ReachResult(z, allow_map, z_iterates, x_rounds)


class PaysOne:
    """Reward stub for chains whose rewards nothing reads."""

    def get(self, s: int, a: int) -> int:
        return 1


def reference_certify_reach(g, targets, allow_map) -> MemorylessStrategy:
    """Certify the uniform play over ``allow_map`` on the product chain of
    the absorbing view, and return it. Raises StrategyError when the play
    reaches an observation outside ``allow_map`` and ModelError when a
    recurrent class of the chain holds no target."""
    targets = frozenset(targets)
    witness = MemorylessStrategy(
        {o: Distr.uniform(acts) for o, acts in allow_map.items()}
    )
    mc = reference_product_chain(AbsorbingView(g, targets), PaysOne(), witness)
    for cls in recurrent_classes(mc):
        if not any(mc.labels[i][0] in targets for i in cls):
            raise ModelError(
                "reachability witness failed certification: a recurrent"
                " class of its chain avoids the target"
            )
    return witness


# ------------------------------------------------------ belief references

def reference_successor_beliefs(g, support: frozenset[int], a: int):
    """One-step belief supports after playing ``a``, as sets, by observation
    in increasing order."""
    grouped: dict[int, set[int]] = {}
    for s in support:
        for t in g.support(s, a):
            grouped.setdefault(g.obs(t), set()).add(t)
    return {o: frozenset(ts) for o, ts in sorted(grouped.items())}


def reference_is_belief_observation(g) -> tuple[bool, list[str] | None]:
    """The belief-observation check on (support, observation) pairs of
    frozensets: the breadth-first search the library runs on masks, with the
    same shortest witness."""
    o0 = g.obs(g.initial)
    b0 = (frozenset((g.initial,)), o0)
    if b0[0] != frozenset(g.obs_states(o0)):
        return False, [g.obs_name(o0)]
    parent: dict[tuple, tuple | None] = {b0: None}
    queue = deque([b0])
    while queue:
        b = queue.popleft()
        for a in g.avail(b[1]):
            for o, support in reference_successor_beliefs(g, b[0], a).items():
                nxt = (support, o)
                if nxt in parent:
                    continue
                parent[nxt] = (b, a)
                if support != frozenset(g.obs_states(o)):
                    path = [g.obs_name(o)]
                    cur = nxt
                    while parent[cur] is not None:
                        prev, act = parent[cur]
                        path += [g.action_name(act), g.obs_name(prev[1])]
                        cur = prev
                    path.reverse()
                    return False, path
                queue.append(nxt)
    return True, None


# ---------------------------------------------------- reduction references

def reduced_pomdp(
    bg: BeliefObsPomdp, rewards: RewardFn, name: str = ""
) -> tuple[Pomdp, RewardFn]:
    """Materialize a reduced model as a plain POMDP with uniform rows over
    its supports and synthesized names: states q0..qN, observations o0..oM,
    actions as the reduction names them.

    ``rewards`` are the base model's. An action-selection state pays the
    base reward of its hidden state under a base action available there,
    and 0 under any other; memory-selection states and the initial state
    pay 1, the losing sink 0.
    """
    base = bg.base
    base_pairs = set(base.available_pairs())

    def reward(s: int, a: int) -> Fraction:
        p = bg.state_payload(s)
        if p[0] == "act":
            return rewards.get(p[1], a) if (p[1], a) in base_pairs else Fraction(0)
        return Fraction(0) if p == SINK else Fraction(1)

    pairs = list(bg.available_pairs())
    g = Pomdp(
        states=[f"q{i}" for i in range(bg.n_states)],
        actions=[bg.action_name(a) for a in range(bg.n_actions)],
        observations=[f"o{i}" for i in range(bg.n_observations)],
        obs_of=list(bg.obs_of),
        rows={(s, a): Distr.uniform(bg.support(s, a)) for s, a in pairs},
        initial=bg.initial,
        availability=bg.availability,
        name=name,
    )
    return g, RewardFn({(s, a): reward(s, a) for s, a in pairs})


def reference_supports(
    bg: BeliefObsPomdp, rewards: RewardFn
) -> list[list[tuple[int, ...]]]:
    """The per-state row table of a reduction or of its restriction, rebuilt
    from the state payloads the way the reduction built its explicit rows
    before they moved to the observation level: ``supports[s][i]`` is the
    support of state s under the i-th action of ``avail(obs(s))``, memory
    actions included. ``rewards`` are the base model's; they decide which
    base actions lead to the losing sink."""
    g = bg.base
    ids = {bg.state_payload(s): s for s in range(bg.n_states)}
    reward1 = [0] * g.n_actions
    for s, a in g.available_pairs():
        if rewards.get(s, a) == 1:
            reward1[a] |= 1 << s
    abort = bg.abort_action
    table = []
    for s in range(bg.n_states):
        p = bg.state_payload(s)
        row = []
        for a in bg.avail(bg.obs(s)):
            if p == SINK or a == abort:
                row.append((ids[SINK],))
            elif a > abort:
                hidden = g.initial if p == INIT else p[1]
                row.append((ids[("act", hidden, a)],))
            else:
                _, t, aid = p
                cm = bg.memory(aid)
                if not enabled_action(cm, a, reward1[a]):
                    row.append((ids[SINK],))
                    continue
                grouped = dict(belief_successors(g, cm.belief, a))
                row.append(
                    tuple(
                        sorted(
                            ids[("mem", u, grouped[g.obs(u)], a, aid)]
                            for u in g.support(t, a)
                        )
                    )
                )
        table.append(row)
    return table


def canonical(cm: CollapsedMemory) -> CollapsedMemory:
    """Zero the win/rec bits outside the belief.

    Every predicate downstream reads the maps only at belief states, so
    canonical memories carry the same information with far fewer distinct
    values; the reduction builds only canonical ones.
    """
    return CollapsedMemory(
        cm.belief,
        MemoryFingerprint(cm.fp.win & cm.belief, cm.fp.rec & cm.belief, cm.fp.acts),
    )


def finite_memory_to_memoryless(
    bg: BeliefObsPomdp, collapsed: FiniteMemoryStrategy
) -> MemorylessStrategy:
    """Project a collapsed strategy onto the reduction's observations.

    Memories must be collapsed-memory labels (the output of ``collapse``).
    They are canonicalized first; distinct memories that collide with
    conflicting behavior are rejected. Memory choices the reduction has
    disabled (and update rows the strategy lacks) map to the abort action,
    which runs into the losing sink, so validation rejects exactly the
    strategies whose quotient steps outside the enabled region.
    """
    g = bg.base
    for label in collapsed.memories:
        if not isinstance(label, CollapsedMemory):
            raise StrategyError(
                "strategy memories are not collapsed; collapse it first"
            )
    memory_action_id = {
        cm: g.n_actions + 1 + i for i, cm in enumerate(bg.memory_actions)
    }

    def norm_updates(m: int) -> dict[tuple[int, int], tuple]:
        out = {}
        for (mm, o, a), row in collapsed.update.items():
            if mm == m:
                moved = {}
                for m2, p in row.items():
                    c2 = canonical(collapsed.memories[m2])
                    moved[c2] = moved.get(c2, 0) + p
                out[(o, a)] = tuple(sorted(moved.items()))
        return out

    behavior: dict[CollapsedMemory, tuple] = {}
    rep: dict[CollapsedMemory, int] = {}
    for m, label in enumerate(collapsed.memories):
        c = canonical(label)
        found = (collapsed.next_action[m], tuple(sorted(norm_updates(m).items())))
        if c in behavior:
            if behavior[c] != found:
                raise StrategyError(
                    f"memories collide at {c.pretty(g)} with conflicting rows"
                )
        else:
            behavior[c] = found
            rep[c] = m

    obs_id = {p: i for i, p in enumerate(bg.obs_payloads)}
    abort = bg.abort_action
    choice: dict[int, Distr] = {}

    c0 = canonical(collapsed.memories[collapsed.initial])
    aid0 = memory_action_id.get(c0)
    init_obs = obs_id[INIT]
    if aid0 is not None and aid0 in bg.avail(init_obs):
        choice[init_obs] = Distr.dirac(aid0)
    else:
        choice[init_obs] = Distr.dirac(abort)

    def mapped_row(c: CollapsedMemory, o_red: int, key: tuple[int, int]) -> Distr:
        row = collapsed.update.get((rep[c],) + key)
        if row is None:
            return Distr.dirac(abort)
        moved: dict[int, Fraction] = {}
        for m2, p in row.items():
            c2 = canonical(collapsed.memories[m2])
            aid = memory_action_id.get(c2)
            if aid is None or aid not in bg.avail(o_red):
                aid = abort
            moved[aid] = moved.get(aid, 0) + p
        return Distr(moved)

    for o_red, payload in enumerate(bg.obs_payloads):
        if payload[0] == "act":
            c = bg.memory(payload[1])
            if c in behavior:
                choice[o_red] = collapsed.next_action[rep[c]]
        elif payload[0] == "mem":
            _, ymask2, a, aid = payload
            c = bg.memory(aid)
            if c in rep:
                choice[o_red] = mapped_row(c, o_red, (belief_obs(g, ymask2), a))
        elif payload == SINK:
            choice[o_red] = Distr.dirac(abort)

    return MemorylessStrategy(choice)


# ------------------------------------------------------- chain judgments

def as_finite_memory(sigma: MemorylessStrategy, g: Pomdp) -> FiniteMemoryStrategy:
    """Lift ``sigma`` to one memory per covered observation, tracking the
    last one seen, with its whole update table written out."""
    obs_ids = sorted(sigma.choice)
    mem_of = {o: i for i, o in enumerate(obs_ids)}
    o0 = g.obs(g.initial)
    if o0 not in mem_of:
        raise StrategyError(
            f"no action choice for the initial observation {g.obs_name(o0)!r}"
        )
    update = {}
    for o, m in mem_of.items():
        for o2, m2 in mem_of.items():
            for a in sigma.choice[o].support():
                update[(m, o2, a)] = Distr.dirac(m2)
    return FiniteMemoryStrategy(
        memories=[g.obs_name(o) for o in obs_ids],
        next_action=[sigma.choice[o] for o in obs_ids],
        update=update,
        initial=mem_of[o0],
    )


def oracle_node_wins(mc: MarkovChain, i: int) -> bool:
    """Does every recurrent class reachable from node i pay 1 on every play?"""
    succ = {n: successors(mc, n) for n in range(mc.n_nodes)}
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


def random_tagged_strategy(
    rng: random.Random, g: Pomdp, randomized: bool, max_tags: int = 2
) -> FiniteMemoryStrategy:
    """Random finite-memory strategy that only makes legal moves.

    Each memory is tagged with the observation it is entered on, plays
    actions available there, and updates to memories tagged with the
    observation just seen. Each observation tags 1 to ``max_tags`` memories.
    """
    tags = [o for o in range(g.n_observations) for _ in range(rng.randint(1, max_tags))]

    def pick(options):
        return Distr.uniform(rng.sample(options, rng.randint(1, len(options)) if randomized else 1))

    next_action = [pick(list(g.avail(o))) for o in tags]
    update = {}
    for m, o in enumerate(tags):
        for a in next_action[m].support():
            for o2 in range(g.n_observations):
                update[(m, o2, a)] = pick([m2 for m2, t in enumerate(tags) if t == o2])
    starts = [m for m, t in enumerate(tags) if t == g.obs(g.initial)]
    return FiniteMemoryStrategy(
        [f"m{m}" for m in range(len(tags))], next_action, update, rng.choice(starts)
    )


def hidden_model(n: int, seed: int) -> tuple[Pomdp, RewardFn]:
    """The hidden-n family of the benchmark: n states, every state after
    the initial one sharing one observation, 3 actions, 2 uniform
    successors per state and action among the non-initial states, and
    reward 1 on each pair with probability 0.85. Hidden-n uses seed 100+n."""
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


def wide_model(n_obs: int, size: int, seed: int) -> tuple[Pomdp, RewardFn]:
    """The wide family: many observations, small beliefs. The initial
    state sits alone in its observation, then come ``n_obs`` observations of
    ``size`` states each. Under each of 2 actions a state moves uniformly to
    2 states of its own or a neighbouring observation, rarely (probability
    0.002 per state) anywhere else, and pays 1 with probability 0.9."""
    rng = random.Random(seed)
    n = 1 + n_obs * size
    obs_of = [0] + [1 + (s - 1) // size for s in range(1, n)]
    rows, table = {}, {}
    for s in range(n):
        for a in range(2):
            cand = [
                t
                for t in range(1, n)
                if abs(obs_of[t] - obs_of[s]) <= 1 or rng.random() < 0.002
            ]
            rows[(s, a)] = Distr.uniform(rng.sample(cand, 2))
            table[(s, a)] = 1 if rng.random() < 0.9 else 0
    g = Pomdp(
        states=[f"s{i}" for i in range(n)],
        actions=["a", "b"],
        observations=[f"o{i}" for i in range(n_obs + 1)],
        obs_of=obs_of,
        rows=rows,
        initial=0,
        name=f"wide-{n_obs}x{size}",
    )
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
