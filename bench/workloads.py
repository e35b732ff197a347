"""The three workloads: their operations, correctness checks and layer metrics.

Every operation goes through a tracer (``spans.Tracer`` or ``NullTracer``),
so the traced and untraced runs execute the same code. Each pass returns one
``OpResult`` per operation with its latency, a digest of its output and the
first correctness problem found, if any.

The traced ``solve`` operation replays the public calls ``decide_limavg1``
makes, in the same order, and builds the same ``SolveReport``; its
rendered report must equal the untraced one byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from asmp import (
    Distr,
    MemorylessStrategy,
    ModelError,
    SimConfig,
    SolveReport,
    acceptance_probability,
    almost_reach,
    almost_safe,
    almost_sure_limavg_gt,
    bscc_mean_payoff,
    collapse,
    decide_limavg1,
    emit_strategy,
    interleaved_word_strategy,
    memoryless_to_finite_memory,
    parse_model,
    parse_strategy,
    product_chain,
    recurrent_classes,
    reduce_pomdp,
    reduce_quantitative,
    restrict_safe,
    simulate,
    validate,
    validate_strategy,
)

import corpus
from spans import NullTracer

HALF = Fraction(1, 2)
SIM_STEPS = 2000
SIM_RUNS = 4

# Span name -> per-layer time metric it adds its self time to.
SPAN_METRICS = {
    "fileformat.parse_model": "fileformat.parse_s",
    "fileformat.parse_strategy": "fileformat.parse_s",
    "fileformat.emit_strategy": "fileformat.emit_s",
    "model.validate": "model.validate_s",
    "model.RewardFn.check": "model.validate_s",
    "reduction.reduce_pomdp": "reduction.reduce_s",
    "fixpoint.almost_safe": "fixpoint.safe_s",
    "fixpoint.restrict_safe": "fixpoint.restrict_s",
    "fixpoint.almost_reach": "fixpoint.reach_s",
    "solver.memoryless_to_finite_memory": "solver.unfold_s",
    "solver.validate_strategy": "solver.validate_s",
    "chains.product_chain": "chains.product_chain_s",
    "chains.recurrent_classes": "chains.recurrent_classes_s",
    "chains.bscc_mean_payoff": "chains.bscc_mean_s",
    "chains.almost_sure_limavg_gt": "chains.threshold_s",
    "collapse.collapse": "collapse.collapse_s",
    "pfa.reduce_quantitative": "pfa.reduce_s",
    "pfa.interleaved_word_strategy": "pfa.strategy_s",
    "pfa.acceptance_probability": "pfa.acceptance_s",
    "simulate.simulate": "simulate.simulate_s",
}

COUNTERS = (
    "fileformat.parse_bytes",
    "reduction.states",
    "reduction.rows",
    "reduction.observations",
    "reduction.memory_actions",
    "fixpoint.safe_iterations",
    "fixpoint.y_star_obs",
    "fixpoint.reach_rounds",
    "fixpoint.reach_inner_passes",
    "solver.witness_memories",
    "solver.validate_calls",
    "solver.rejections",
    "chains.nodes",
    "chains.bscc_calls",
    "chains.bscc_class_nodes",
    "collapse.memories_in",
    "collapse.memories_out",
)


@dataclass
class OpResult:
    op_id: str
    seconds: float  # the operation's latency
    region_s: float  # the part trace.coverage compares spans against
    digest: str = ""
    error: str | None = None


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def layer_metrics(tr) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    out = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for name, seconds in tr.self_times().items():
        if name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += seconds
    for key in COUNTERS:
        out[key] = tr.counts.get(key, 0)
    base = tr.counts.get("fixpoint.kept_base_states", 0)
    out["fixpoint.kept_state_ratio"] = tr.counts["fixpoint.kept_states"] / base if base else 0.0
    sim_s = out["simulate.simulate_s"]
    out["simulate.steps_per_s"] = tr.counts.get("simulate.steps", 0) / sim_s if sim_s else 0.0
    return out


# ------------------------------------------------------------------ solve

SOLVE_PHASES = frozenset(
    {
        "model.validate",
        "model.RewardFn.check",
        "reduction.reduce_pomdp",
        "fixpoint.almost_safe",
        "fixpoint.restrict_safe",
        "fixpoint.almost_reach",
        "solver.memoryless_to_finite_memory",
        "solver.validate_strategy",
    }
)


def traced_decide(g, rewards, tr, max_states: int = 250_000) -> SolveReport:
    """``decide_limavg1`` as a sequence of traced public calls."""
    tr.call("model.validate", validate, g, require_unique_initial_obs=False)
    problems = tr.call("model.RewardFn.check", rewards.check, g)
    if problems:
        raise ModelError("; ".join(problems))

    bg = tr.call("reduction.reduce_pomdp", reduce_pomdp, g, rewards, max_states=max_states)
    stats = bg.stats()
    for key in ("states", "rows", "observations", "memory_actions"):
        tr.count(f"reduction.{key}", stats[key])
    safe_states = [s for s in range(bg.n_states) if s != bg.sink]
    safety = tr.call("fixpoint.almost_safe", almost_safe, bg, safe_states)
    tr.count("fixpoint.safe_iterations", len(safety.iterates))
    tr.count("fixpoint.y_star_obs", len(safety.y_star))
    report = SolveReport(
        verdict="NO",
        reason="",
        model_name=g.name,
        reduction_stats=stats,
        n_observations=bg.n_observations,
        safety_sizes=[len(y) for y in safety.iterates],
        y_star_size=len(safety.y_star),
    )
    if bg.obs(bg.initial) not in safety.y_star:
        report.reason = (
            "the initial observation is outside the almost-safe set:"
            " every strategy risks the losing sink"
        )
        return report

    restricted = tr.call(
        "fixpoint.restrict_safe", restrict_safe, bg, safety.y_star, safety.allow_map
    )
    tr.count("fixpoint.kept_states", restricted.n_states)
    tr.count("fixpoint.kept_base_states", bg.n_states)
    wcs = restricted.wcs_state_ids()
    reach = tr.call("fixpoint.almost_reach", almost_reach, restricted, wcs)
    tr.count("fixpoint.reach_rounds", len(reach.z_iterates))
    tr.count("fixpoint.reach_inner_passes", sum(len(xs) for xs in reach.x_rounds))
    report.wcs_size = len(wcs)
    report.z_sizes = [len(z) for z in reach.z_iterates]
    report.z_star_size = len(reach.z_star)
    report.x_rounds = reach.x_rounds
    if restricted.obs(restricted.initial) not in reach.z_star:
        report.reason = (
            "the initial observation cannot almost-surely reach the"
            " winning-recurrent core"
        )
        return report

    choice = {}
    for o in range(restricted.n_observations):
        if o in reach.z_star:
            choice[o] = Distr.uniform(reach.allow_map[o])
        else:
            choice[o] = Distr.uniform(restricted.avail(o))
    witness = tr.call(
        "solver.memoryless_to_finite_memory",
        memoryless_to_finite_memory,
        restricted,
        MemorylessStrategy(choice),
    )
    tr.count("solver.witness_memories", witness.n_memories)
    ok, diag = tr.call("solver.validate_strategy", validate_strategy, g, rewards, witness)
    tr.count("solver.validate_calls")
    if not ok:
        tr.count("solver.rejections")
        raise ModelError(f"solver witness failed validation: {diag.message}")
    report.verdict = "YES"
    report.reason = "the initial observation is almost-sure winning"
    report.witness = witness
    report.validated = True
    return report


class Workload:
    name = ""
    region_spans: frozenset[str] = frozenset()

    def run_extras(self, items, seed: int) -> list[OpResult]:
        """Checked operations that run once, after the timed phase."""
        return []


class Solve(Workload):
    name = "solve"
    region_spans = SOLVE_PHASES

    def setup(self, seed: int):
        return corpus.solve_corpus(seed)

    def run_pass(self, items, tr, seed: int) -> list[OpResult]:
        return [self._op(item, tr) for item in items if item.timed]

    def run_extras(self, items, seed: int) -> list[OpResult]:
        return [self._op(item, NullTracer()) for item in items if not item.timed]

    def _op(self, item, tr) -> OpResult:
        res = OpResult(item.op_id, 0.0, 0.0)
        with tr.op(item.op_id):
            t0 = perf_counter()
            try:
                g, rewards = tr.call("fileformat.parse_model", parse_model, item.text)
                tr.count("fileformat.parse_bytes", len(item.text.encode()))
                g.name = item.name
                t1 = perf_counter()
                if tr.enabled:
                    report = traced_decide(g, rewards, tr)
                else:
                    report = decide_limavg1(g, rewards)
                t2 = perf_counter()
                witness = ""
                if report.witness is not None:
                    witness = tr.call(
                        "fileformat.emit_strategy", emit_strategy, report.witness, g
                    )
                res.seconds = perf_counter() - t0
                res.region_s = t2 - t1
            except Exception as err:  # noqa: BLE001 - one failed op must not end the run
                res.seconds = perf_counter() - t0
                res.error = _failure(err)
                return res
        res.digest = _digest(report.render(trace=True), witness)
        want = corpus.BASELINE_COUNTS.get(item.op_id)
        got = (report.reduction_stats["states"], report.reduction_stats["rows"])
        if want is not None and got != want:
            res.error = f"reduction states/rows {got} differ from the baseline {want}"
        elif report.verdict == "YES" and not report.validated:
            res.error = "YES verdict without a validated witness"
        return res


# ---------------------------------------------------------- pfa-threshold

WORD_OP_SPANS = frozenset(
    {
        "pfa.interleaved_word_strategy",
        "chains.product_chain",
        "chains.recurrent_classes",
        "chains.bscc_mean_payoff",
        "chains.almost_sure_limavg_gt",
    }
)


class PfaThreshold(Workload):
    name = "pfa-threshold"
    region_spans = WORD_OP_SPANS

    def setup(self, seed: int):
        return corpus.pfa_corpus(seed)

    def run_pass(self, items, tr, seed: int) -> list[OpResult]:
        out = []
        for item in items:
            with tr.op(item.op_id):
                try:
                    g, rewards = tr.call(
                        "pfa.reduce_quantitative", reduce_quantitative, item.pfa
                    )
                except Exception as err:  # noqa: BLE001 - one failed op must not end the run
                    out.append(OpResult(item.op_id, 0.0, 0.0, error=_failure(err)))
                    continue
            for w in item.words:
                out.append(self._op(item, g, rewards, w, tr))
        return out

    def _op(self, item, g, rewards, w, tr) -> OpResult:
        """One ``asmp analyze-chain --threshold 1/2`` run on the word's strategy."""
        res = OpResult(f"{item.op_id}:{''.join(w) or '-'}", 0.0, 0.0)
        with tr.op(res.op_id):
            t0 = perf_counter()
            try:
                sigma = tr.call("pfa.interleaved_word_strategy", interleaved_word_strategy, g, w)
                mc = tr.call("chains.product_chain", product_chain, g, rewards, sigma)
                tr.count("chains.nodes", mc.n_nodes)
                classes = tr.call("chains.recurrent_classes", recurrent_classes, mc)
                reachable = set(mc.reachable())
                means = []
                for cls in classes:
                    if set(cls) <= reachable:
                        means.append(tr.call("chains.bscc_mean_payoff", bscc_mean_payoff, mc, cls))
                        tr.count("chains.bscc_calls")
                        tr.count("chains.bscc_class_nodes", len(cls))
                verdict = tr.call(
                    "chains.almost_sure_limavg_gt", almost_sure_limavg_gt, mc, HALF
                )
                res.seconds = res.region_s = perf_counter() - t0
                accept = tr.call(
                    "pfa.acceptance_probability", acceptance_probability, item.pfa, w
                )
            except Exception as err:  # noqa: BLE001 - one failed op must not end the run
                res.seconds = res.region_s = perf_counter() - t0
                res.error = _failure(err)
                return res
        res.digest = _digest(str(verdict), *(str(m) for m in means))
        if verdict != (accept > HALF):
            res.error = f"verdict {verdict} but acceptance probability is {accept}"
        elif verdict != all(m > HALF for m in means):
            res.error = f"verdict {verdict} disagrees with class means {means}"
        return res


# ------------------------------------------------------- check-strategies

class CheckStrategies(Workload):
    name = "check-strategies"
    region_spans = frozenset(
        {
            "fileformat.emit_strategy",
            "fileformat.parse_strategy",
            "solver.validate_strategy",
            "collapse.collapse",
            "simulate.simulate",
        }
    )

    def setup(self, seed: int):
        return corpus.strategy_corpus(seed)

    def run_pass(self, items, tr, seed: int) -> list[OpResult]:
        sim = SimConfig(steps=SIM_STEPS, runs=SIM_RUNS, seed=seed)
        return [self._op(item, items.models[item.model], sim, tr) for item in items.strategies]

    def _op(self, item, model, sim, tr) -> OpResult:
        g, rewards = model
        res = OpResult(item.op_id, 0.0, 0.0)
        with tr.op(item.op_id):
            t0 = perf_counter()
            try:
                text = tr.call("fileformat.emit_strategy", emit_strategy, item.sigma, g)
                sigma = tr.call("fileformat.parse_strategy", parse_strategy, text, g)
                ok, diag = tr.call("solver.validate_strategy", validate_strategy, g, rewards, sigma)
                collapsed = tr.call("collapse.collapse", collapse, g, rewards, sigma)
                ok2, diag2 = tr.call(
                    "solver.validate_strategy", validate_strategy, g, rewards, collapsed
                )
                tr.count("solver.validate_calls", 2)
                tr.count("solver.rejections", (not ok) + (not ok2))
                tr.count("collapse.memories_in", sigma.n_memories)
                tr.count("collapse.memories_out", collapsed.n_memories)
                tr.count("fileformat.parse_bytes", len(text.encode()))
                averages = ()
                if ok:
                    result = tr.call("simulate.simulate", simulate, g, rewards, sigma, sim)
                    tr.count("simulate.steps", sim.steps * sim.runs)
                    averages = result.averages
                res.seconds = res.region_s = perf_counter() - t0
            except Exception as err:  # noqa: BLE001 - one failed op must not end the run
                res.seconds = res.region_s = perf_counter() - t0
                res.error = _failure(err)
                return res
        messages = [d.message if d else "winning" for d in (diag, diag2)]
        res.digest = _digest(
            *messages, str(sigma.n_memories), str(collapsed.n_memories), repr(averages)
        )
        if ok != ok2:
            res.error = f"verdict {ok} before collapse but {ok2} after"
        elif (sigma.n_memories, len(sigma.update)) != (
            item.sigma.n_memories,
            len(item.sigma.update),
        ):
            res.error = "parse_strategy(emit_strategy(s)) changed the strategy"
        elif ok and not all(0 <= a <= 1 for a in averages):
            res.error = f"simulated averages {averages} outside [0, 1]"
        return res


WORKLOADS = {w.name: w for w in (Solve(), PfaThreshold(), CheckStrategies())}
