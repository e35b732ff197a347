"""Decide almost-sure long-run average 1 and produce checked witnesses.

The pipeline: fold candidate memories into the state space, keep the
almost-surely safe core (never hit the losing sink), then ask for
almost-sure reachability of the states whose own win and recurrence bits
are set. The initial observation always survives safety (a memory with an
empty recurrence map never meets the sink), so safety only prunes and
reachability decides the verdict. Every YES comes with a finite-memory
strategy for the original model, validated on its own chain before being
reported; a failed validation is an internal error, never a report.

Reports render without wall-clock times so equal inputs give byte-equal
output; timing lives in the stats dict for callers that want it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import (
    FiniteMemoryStrategy,
    MemorylessStrategy,
    limavg1_diagnosis,
    product_chain,
)
from .fixpoint import almost_reach, almost_safe, restrict_safe
from .model import (
    Distr,
    ModelError,
    Pomdp,
    RewardFn,
    StrategyError,
    belief_successors,
    validate,
)
from .reduction import DEFAULT_MAX_STATES, INIT, BeliefObsPomdp, reduce_pomdp

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
    CollapsedMemory. Raises StrategyError when the strategy leaves the
    reduction: a base action into the losing sink, or no memory action
    where the next memory is chosen.
    """
    g = bg.base
    abort = bg.abort_action
    obs_id = {p: i for i, p in enumerate(bg.obs_payloads)}

    def act_choice(aid: int) -> Distr:
        return sigma.action_distr(obs_id[("act", aid)])

    first = sigma.action_distr(obs_id[INIT]).items()
    if any(aid <= abort for aid, _ in first):
        raise StrategyError("reduction strategy must open with a memory action")

    memories: list[object] = [INIT_MEMORY]
    # Memory m > 0 stands for memory action aids[m - 1].
    aids: list[int] = []
    index: dict[int, int] = {}
    next_action: list[Distr | None] = [None]
    update: dict[tuple[int, int, int], Distr] = {}

    def intern(aid: int) -> int:
        got = index.get(aid)
        if got is None:
            got = index[aid] = len(memories)
            memories.append(bg.memory(aid))
            aids.append(aid)
            next_action.append(act_choice(aid))
        return got

    # Each row of sigma converted once, by the row's id: rows are often
    # shared among many observations, comparing them by value would hash
    # every weight, and sigma keeps every row, so no id is reused here.
    converted: dict[int, Distr] = {}

    def mem_choice(aid: int, ymask2: int, a: int) -> Distr:
        o = obs_id.get(("mem", ymask2, a, aid))
        if o is None:
            raise StrategyError(
                f"reduction strategy plays {bg.action_name(a)!r} at observation"
                f" {bg.obs_name(obs_id[('act', aid)])!r} into the losing sink"
            )
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
            got = converted[id(row)] = Distr({intern(aid2): p for aid2, p in items})
        return got

    # Start memory: mix the first action over the initial memory choices,
    # then update by the posterior of that choice given the action.
    mixed: dict[int, Fraction] = {}
    for aid, p0 in first:
        for a, pa in act_choice(aid).items():
            mixed[a] = mixed.get(a, 0) + p0 * pa
    next_action[0] = Distr(mixed)
    for a in next_action[0].support():
        posterior = {
            aid: p0 * act_choice(aid)[a]
            for aid, p0 in first
            if act_choice(aid)[a] > 0
        }
        total = sum(posterior.values())
        for o2, ymask2 in belief_successors(g, 1 << g.initial, a):
            blended: dict[int, Fraction] = {}
            for aid, w in posterior.items():
                for m2, p in mem_choice(aid, ymask2, a).items():
                    blended[m2] = blended.get(m2, 0) + (w / total) * p
            update[(0, o2, a)] = Distr(blended)

    # aids grows during the walk, so memories are expanded in the order
    # they were first met.
    for m, aid in enumerate(aids, 1):
        for a in next_action[m].support():
            for o2, ymask2 in belief_successors(g, memories[m].belief, a):
                update[(m, o2, a)] = mem_choice(aid, ymask2, a)

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
    reward 1 almost surely, and construct one when the answer is YES."""
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
    safety = almost_safe(bg, (s for s in range(bg.n_states) if s != bg.sink))
    lap("safe_s")
    report = SolveReport(
        verdict="NO",
        reason="",
        model_name=g.name,
        reduction_stats=bg.stats(),
        n_observations=bg.n_observations,
        safety_sizes=[len(y) for y in safety.iterates],
        y_star_size=len(safety.y_star),
        stats=stats,
    )
    # Only abort, a base action outside the memory's action set, or one
    # paying below 1 at a state with both win and recurrence bits set leads
    # to the sink. A memory with an empty recurrence map has no such state;
    # the initial choice, like each choice after such a memory, offers one.
    # So the initial observation is always almost-safe (restrict_safe checks).
    restricted = restrict_safe(bg, safety.y_star, safety.allow_map)
    lap("restrict_s")
    # The report holds what it needs of both; reach and the witness read
    # only the restriction.
    del bg, safety
    wcs = restricted.wcs_state_ids()
    reach = almost_reach(restricted, wcs)
    lap("reach_s")
    report.wcs_size = len(wcs)
    report.z_sizes = [len(z) for z in reach.z_iterates]
    report.z_star_size = len(reach.z_star)
    report.x_rounds = reach.x_rounds

    if restricted.obs(restricted.initial) not in reach.z_star:
        report.reason = (
            "the initial observation cannot almost-surely reach the"
            " winning-recurrent core"
        )
        report.stats["wall_s"] = time.perf_counter() - t0
        return report

    # almost_reach disallowed every action that can lead a state outside
    # the target into an observation that left Z, so this play keeps those
    # states in Z*. The target's rows were never indexed: if one leads out
    # of Z*, the unfolding meets an observation without a choice and raises
    # StrategyError. Observations with equal allowed tuples share one
    # distribution, which the unfolding converts once.
    uniform = {acts: Distr.uniform(acts) for acts in set(reach.allow_map.values())}
    choice = {o: uniform[acts] for o, acts in reach.allow_map.items()}
    witness = memoryless_to_finite_memory(restricted, MemorylessStrategy(choice))
    lap("unfold_s")
    # The witness holds what it needs: free the restriction before the chain.
    del restricted, reach, wcs, uniform, choice
    ok, diag = validate_strategy(g, rewards, witness)
    lap("validate_s")
    if not ok:
        raise ModelError(
            f"solver witness failed validation: {diag.message}"
        )
    report.verdict = "YES"
    report.reason = "the initial observation is almost-sure winning"
    report.witness = witness
    report.validated = True
    report.stats["wall_s"] = time.perf_counter() - t0
    return report
