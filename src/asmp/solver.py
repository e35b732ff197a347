"""Decide almost-sure long-run average 1 and produce checked witnesses.

The pipeline: fold candidate memories into the state space, keep the
almost-surely safe core (never hit the losing sink), ask for almost-sure
reachability of the states whose own win and recurrence bits are set, and
unfold the allowed actions into the witness; all on the one reduction,
and both fixpoints on one group store. The initial observation always
survives safety (a memory with an empty recurrence map never meets the
sink), so safety only prunes and reachability decides the verdict. Every
YES comes with a finite-memory strategy for the original model, proved
winning before being reported, on state masks over the nodes and edges of
its own product chain. The chain itself is built only to explain a proof
that fails: a failed validation is an internal error, never a report.

Reports render without wall-clock times so equal inputs give byte-equal
output; timing lives in the stats dict for callers that want it.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import (
    FiniteMemoryStrategy,
    MemorylessStrategy,
    _wins_on_masks,
    limavg1_diagnosis,
    product_chain,
)
from .fixpoint import _Groups, _reach, _safe
from .model import (
    Distr,
    ModelError,
    Pomdp,
    RewardFn,
    StrategyError,
    belief_obs,
    validate,
)
from .reduction import DEFAULT_MAX_STATES, BeliefObsPomdp, reduce_pomdp

INIT_MEMORY = "init"


@dataclass(frozen=True)
class Diagnosis:
    """Why a strategy is not almost-surely winning."""

    kind: str  # "play" (illegal move) or "recurrent-class" (reward below 1)
    message: str
    class_labels: tuple[str, ...] = ()
    pair: tuple[str, str] | None = None


def validate_strategy(
    g: Pomdp, rewards: RewardFn, sigma
) -> tuple[bool, Diagnosis | None]:
    """Check a strategy by explicit chain analysis.

    Accepts finite-memory and memoryless strategies. Returns (True, None)
    when the long-run average reward is 1 almost surely, otherwise a
    diagnosis naming the offending recurrent class and played pair, or the
    illegal move for strategies that leave the playable region.
    """
    try:
        mc = product_chain(g, rewards, sigma)
    except StrategyError as err:
        return False, Diagnosis(kind="play", message=str(err))
    bad = limavg1_diagnosis(mc)
    if bad is None:
        return True, None
    cls, (node, action) = bad
    labels = tuple(mc.label_texts[i] for i in sorted(cls))
    pair = (mc.label_texts[node], mc.action_names[action])
    return False, Diagnosis(
        kind="recurrent-class",
        message=(
            f"recurrent class {{{', '.join(labels)}}} plays"
            f" {pair[1]!r} at {pair[0]!r} for reward below 1"
        ),
        class_labels=labels,
        pair=pair,
    )


@dataclass
class SolveReport:
    verdict: str
    reason: str
    model_name: str
    reduction_stats: dict[str, int]
    n_observations: int
    safety_sizes: list[int]
    y_star_size: int
    wcs_size: int | None = None
    z_sizes: list[int] | None = None
    z_star_size: int | None = None
    x_rounds: list[list[int]] | None = None
    witness: FiniteMemoryStrategy | None = None
    validated: bool | None = None
    stats: dict[str, float] = field(default_factory=dict)

    def render(self, trace: bool = False) -> str:
        rs = self.reduction_stats
        lines = [
            f"verdict: {self.verdict}",
            f"model: {self.model_name or '(unnamed)'}",
            (
                f"reduction: states={rs['states']} observations={rs['observations']}"
                f" rows={rs['rows']} memory-actions={rs['memory_actions']}"
            ),
            (
                f"safety: {self.y_star_size} of {self.n_observations} observations"
                f" almost-surely safe ({len(self.safety_sizes)} iterations)"
            ),
        ]
        if self.wcs_size is not None:
            lines.append(f"target: {self.wcs_size} winning-recurrent states")
            lines.append(
                f"reachability: {self.z_star_size} of {self.y_star_size}"
                f" observations almost-surely reach the target"
                f" ({len(self.z_sizes)} rounds)"
            )
        lines.append(f"reason: {self.reason}")
        if self.witness is not None:
            checked = "validated" if self.validated else "NOT validated"
            lines.append(
                f"witness: finite-memory strategy with"
                f" {self.witness.n_memories} memories ({checked})"
            )
        if trace:
            lines.append(
                "trace safety sizes: " + " ".join(str(n) for n in self.safety_sizes)
            )
            if self.z_sizes is not None:
                lines.append(
                    "trace reach Z sizes: " + " ".join(str(n) for n in self.z_sizes)
                )
                for i, xs in enumerate(self.x_rounds or []):
                    lines.append(
                        f"trace reach X growth round {i}: "
                        + " ".join(str(n) for n in xs)
                    )
        return "\n".join(lines) + "\n"


def memoryless_to_finite_memory(
    bg: BeliefObsPomdp, sigma: MemorylessStrategy
) -> FiniteMemoryStrategy:
    """Unfold a memoryless strategy on the reduction into a finite-memory
    strategy for the base model.

    Memories are the collapsed memories the reduction strategy steps
    through, plus a fresh start memory that folds the initial memory choice
    into the first update: the joint law of (memory, first action) is
    preserved by conditioning the memory on the action actually played.
    Memories are tracked by memory-action id and labelled with their
    CollapsedMemory. Every step is read off the reduction's own tables by
    observation id: the observation a memory action enters is its memory
    edge, and the memory-selection observations a base action leads to are
    its row, found by bisection in the availability as ``support`` does,
    one per successor belief in the order of ``belief_successors``. So any
    memoryless strategy on a reduction unfolds, a restricted one included.
    Raises StrategyError when the strategy leaves the reduction: a base
    action into the losing sink or without a row, a memory action that is
    not available, or no memory action where the next memory is chosen.
    """
    g = bg.base
    abort = bg.abort_action

    def entered(o: int, aid: int) -> int:
        """The observation that memory action ``aid`` enters from o."""
        acts = bg.avail(o)
        i = bisect_left(acts, aid)
        if i == len(acts) or acts[i] != aid:
            raise StrategyError(
                f"reduction strategy plays {bg.action_name(aid)!r} at observation"
                f" {bg.obs_name(o)!r}, where it is not available"
            )
        edges = bg.memory_edges[o]
        return edges[i - len(acts) + len(edges)]

    def successors(o: int, a: int) -> tuple:
        """The (memory-selection observation, place map) pairs that base
        action ``a`` leads to from the action-selection observation o."""
        acts, rows = bg.avail(o), bg.obs_rows[o]
        i = bisect_left(acts, a)
        if i < len(rows) and acts[i] == a and rows[i][0][0] != bg.sink:
            return rows[i]
        raise StrategyError(
            f"reduction strategy plays {bg.action_name(a)!r} at observation"
            f" {bg.obs_name(o)!r} into the losing sink"
        )

    def base_obs(o: int) -> int:
        """The base observation of the memory-selection observation o."""
        return belief_obs(g, bg.obs_payloads[o][1])

    init = bg.obs(bg.initial)
    first = sigma.action_distr(init).items()
    if any(aid <= abort for aid, _ in first):
        raise StrategyError("reduction strategy must open with a memory action")

    memories: list[object] = [INIT_MEMORY]
    # Memory m > 0 stands for the memory action whose action-selection
    # observation is act_obs[m - 1].
    act_obs: list[int] = []
    index: dict[int, int] = {}
    next_action: list[Distr | None] = [None]
    update: dict[tuple[int, int, int], Distr] = {}

    def intern(aid: int, o: int) -> int:
        """The memory of memory action ``aid``, played at observation o."""
        got = index.get(aid)
        if got is None:
            got = index[aid] = len(memories)
            memories.append(bg.memory(aid))
            act_obs.append(entered(o, aid))
            next_action.append(sigma.action_distr(act_obs[-1]))
        return got

    # Each row of sigma converted once, by the row's id: rows are often
    # shared among many observations, comparing them by value would hash
    # every weight, and sigma keeps every row, so no id is reused here.
    converted: dict[int, Distr] = {}

    def mem_choice(o: int) -> Distr:
        """The next memory chosen at the memory-selection observation o."""
        row = sigma.action_distr(o)
        got = converted.get(id(row))
        if got is None:
            items = row.items()
            if any(aid2 <= abort for aid2, _ in items):
                raise StrategyError(
                    f"reduction strategy chooses no memory action at observation"
                    f" {bg.obs_name(o)!r}"
                )
            # Memory actions and their memories correspond one to one, so
            # no two weights of the row fall on the same memory; interning
            # them here, where the row is first met, keeps the memory order.
            got = converted[id(row)] = Distr(
                {intern(aid2, o): p for aid2, p in items}
            )
        return got

    # Start memory: mix the first action over the initial memory choices,
    # then update by the posterior of that choice given the action.
    opening = [(p0, entered(init, aid)) for aid, p0 in first]
    plays = [sigma.action_distr(o) for _, o in opening]
    mixed: dict[int, Fraction] = {}
    for (p0, _), play in zip(opening, plays):
        for a, pa in play.items():
            mixed[a] = mixed.get(a, 0) + p0 * pa
    next_action[0] = Distr(mixed)
    for a in next_action[0].support():
        posterior = [
            (p0 * play[a], o) for (p0, o), play in zip(opening, plays) if play[a] > 0
        ]
        total = sum(w for w, _ in posterior)
        # Every initial memory has the initial belief, and so the same
        # successor beliefs under a, in the same order.
        for j in range(len(successors(posterior[0][1], a))):
            blended: dict[int, Fraction] = {}
            for w, o in posterior:
                o2 = successors(o, a)[j][0]
                for m2, p in mem_choice(o2).items():
                    blended[m2] = blended.get(m2, 0) + (w / total) * p
            update[(0, base_obs(o2), a)] = Distr(blended)

    # act_obs grows during the walk, so memories are expanded in the order
    # they were first met.
    for m, o in enumerate(act_obs, 1):
        for a in next_action[m].support():
            for o2, _ in successors(o, a):
                update[(m, base_obs(o2), a)] = mem_choice(o2)

    return FiniteMemoryStrategy(
        memories=memories,
        next_action=next_action,
        update=update,
        initial=0,
    )


def decide_limavg1(
    g: Pomdp,
    rewards: RewardFn,
    max_states: int = DEFAULT_MAX_STATES,
) -> SolveReport:
    """Decide whether some finite-memory strategy achieves long-run average
    reward 1 almost surely, and construct one when the answer is YES.

    A YES witness is proved winning on state masks over its product chain's
    own nodes (``chains._wins_on_masks``). Only when that proof fails is the
    chain built, by ``validate_strategy``, and a diagnosis it finds is
    raised as a ModelError.
    """
    problems = validate(g, require_unique_initial_obs=False) or rewards.check(g)
    if problems:
        raise ModelError("; ".join(problems))

    # Wall time of each phase that runs, then of the whole decision.
    stats: dict[str, float] = {}
    t0 = last = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stats[phase] = now - last
        last = now

    bg = reduce_pomdp(g, rewards, max_states=max_states)
    lap("reduce_s")
    groups = _Groups(bg, {})
    iterates = _safe(groups, [bg.obs(bg.sink)])
    y_star = iterates[-1]
    lap("safe_s")
    report = SolveReport(
        verdict="NO",
        reason="",
        model_name=g.name,
        reduction_stats=bg.stats(),
        n_observations=bg.n_observations,
        safety_sizes=[len(y) for y in iterates],
        y_star_size=len(y_star),
        stats=stats,
    )
    # Never raised: the module docstring says why.
    if bg.obs(bg.initial) not in y_star:
        raise ModelError(
            "initial observation is not almost-safe; no safe strategy exists"
        )
    goal = {o: m for o, m in bg.wcs_place_masks().items() if o in y_star}
    reach = _reach(groups, goal, y_star)
    lap("reach_s")
    report.wcs_size = sum(m.bit_count() for m in goal.values())
    del iterates, y_star, groups, goal
    report.z_sizes = [len(z) for z in reach.z_iterates]
    report.z_star_size = len(reach.z_star)
    report.x_rounds = reach.x_rounds

    if bg.obs(bg.initial) not in reach.z_star:
        report.reason = (
            "the initial observation cannot almost-surely reach the"
            " winning-recurrent core"
        )
        report.stats["wall_s"] = time.perf_counter() - t0
        return report

    # Reach disallowed every group that can enter an observation that left
    # Z, targets' rows included, so this play keeps Z* closed. As if the
    # targets were absorbing, those rows change nothing: the memory choices
    # force each successor of a target into the next memory's win and
    # recurrence maps, and one group enters every place of a memory-selection
    # observation, so one entered only by target rows leads only to targets
    # and never leaves Z. Equal allowed tuples share one distribution.
    uniform = {acts: Distr.uniform(acts) for acts in set(reach.allow_map.values())}
    choice = {o: uniform[acts] for o, acts in reach.allow_map.items()}
    witness = memoryless_to_finite_memory(bg, MemorylessStrategy(choice))
    lap("unfold_s")
    # The witness holds what it needs: free the reduction before the check.
    del bg, reach, uniform, choice
    if not _wins_on_masks(g, rewards, witness):
        ok, diag = validate_strategy(g, rewards, witness)
        if not ok:
            raise ModelError(
                f"solver witness failed validation: {diag.message}"
            )
    lap("validate_s")
    report.verdict = "YES"
    report.reason = "the initial observation is almost-sure winning"
    report.witness = witness
    report.validated = True
    report.stats["wall_s"] = time.perf_counter() - t0
    return report
