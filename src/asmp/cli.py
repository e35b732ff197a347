"""Command-line front end.

Commands: solve, validate, simulate, collapse, reduce-pfa-quant,
reduce-pfa-value1, check-belief-obs, analyze-chain. Exit codes: 0 for
YES/valid, 1 for NO/invalid, 2 for input errors, 3 when a state cap is
hit. Reports go to stdout and are byte-reproducible for fixed inputs and
seeds; wall-clock time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .chains import (
    almost_sure_limavg_gt,
    bscc_mean_payoff,
    limavg1_diagnosis,
    product_chain,
)
from .collapse import _quotient, fingerprints, projection_graph
from .dot import chain_dot, projection_dot
from .fileformat import (
    emit_model,
    parse_model,
    parse_pfa,
    parse_rational,
    parse_rewards,
    parse_strategy,
    strategy_lines,
)
from .model import CapacityError, ModelError, is_belief_observation, validate
from .pfa import reduce_quantitative, reduce_value1
from .reduction import DEFAULT_MAX_STATES
from .simulate import SimConfig, simulate
from .solver import decide_limavg1, validate_strategy


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_strategy(path: str, sigma, g) -> None:
    """Write ``emit_strategy``'s text line by line, never holding it whole."""
    with Path(path).open("w", encoding="utf-8") as f:
        for line in strategy_lines(sigma, g):
            f.write(line + "\n")


def _load_model(args):
    g, embedded = parse_model(_read(args.model))
    g.name = Path(args.model).stem
    rewards = embedded
    if getattr(args, "rewards", None):
        rewards = parse_rewards(_read(args.rewards), g)
    return g, rewards


def _need_rewards(args):
    """The model and its rewards, which must be present and in [0, 1]."""
    g, rewards = _load_model(args)
    if rewards is None:
        raise ModelError(
            "no reward section in the model file and no --rewards file given"
        )
    problems = rewards.check(g)
    if problems:
        raise ModelError("; ".join(problems))
    return g, rewards


def cmd_solve(args) -> int:
    g, rewards = _need_rewards(args)
    report = decide_limavg1(g, rewards, max_states=args.max_states)
    sys.stdout.write(report.render(trace=args.trace_fixpoints))
    if args.stats:
        record = {"reduction_stats": report.reduction_stats, "stats": report.stats}
        _write(args.stats, json.dumps(record, indent=2) + "\n")
    if report.witness is not None:
        if args.strategy_out:
            _write_strategy(args.strategy_out, report.witness, g)
        if args.dot:
            mc = product_chain(g, rewards, report.witness)
            _write(args.dot, chain_dot(mc, title=g.name))
    return 0 if report.verdict == "YES" else 1


def cmd_validate(args) -> int:
    if args.strategy is None:
        g, rewards = _load_model(args)
        problems = validate(g, require_unique_initial_obs=not args.lenient)
        if rewards is not None:
            problems += rewards.check(g)
        if problems:
            for p in problems:
                print(p)
            return 1
        print("valid")
        return 0
    g, rewards = _need_rewards(args)
    sigma = parse_strategy(_read(args.strategy), g)
    ok, diagnosis = validate_strategy(g, rewards, sigma)
    if ok:
        print("winning: long-run average reward is 1 almost surely")
        return 0
    print(f"not winning: {diagnosis.message}")
    return 1


def cmd_simulate(args) -> int:
    g, rewards = _need_rewards(args)
    sigma = parse_strategy(_read(args.strategy), g)
    cfg = SimConfig(
        steps=args.steps, runs=args.runs, seed=args.seed, burn_in=args.burn_in
    )
    result = simulate(g, rewards, sigma, cfg)
    print(result.render())
    return 0


def cmd_collapse(args) -> int:
    g, rewards = _need_rewards(args)
    sigma = parse_strategy(_read(args.strategy), g)
    pg = projection_graph(g, sigma, fingerprints(g, rewards, sigma))
    collapsed = _quotient(g, pg)
    ok, diagnosis = validate_strategy(g, rewards, collapsed)
    print(f"memories: {sigma.n_memories} -> {collapsed.n_memories}")
    if ok:
        print("collapsed strategy is winning")
    else:
        print(f"collapsed strategy is not winning: {diagnosis.message}")
    if args.strategy_out:
        _write_strategy(args.strategy_out, collapsed, g)
    if args.dot:
        _write(args.dot, projection_dot(pg, g))
    return 0 if ok else 1


def _cmd_reduce_pfa(args, reduce_fn) -> int:
    p = parse_pfa(_read(args.automaton))
    p.name = Path(args.automaton).stem
    g, rewards = reduce_fn(p, name=p.name)
    text = emit_model(g, rewards)
    if args.out:
        _write(args.out, text)
        print(
            f"model: {g.name}\nstates: {g.n_states}\nactions: {g.n_actions}"
            f"\nobservations: {g.n_observations}\nwritten: {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_belief_obs(args) -> int:
    g, _ = _load_model(args)
    ok, witness = is_belief_observation(g)
    if ok:
        print("belief-observation: yes")
        return 0
    print("belief-observation: no")
    if witness:
        print("witness: " + " -> ".join(witness))
    return 1


def cmd_analyze_chain(args) -> int:
    # Reject a malformed threshold before any analysis output.
    lam = None
    if args.threshold is not None:
        lam = parse_rational(args.threshold)
        if lam is None:
            raise ModelError(f"bad rational {args.threshold!r} (write p/q or p)")
    g, rewards = _need_rewards(args)
    sigma = parse_strategy(_read(args.strategy), g)
    mc = product_chain(g, rewards, sigma)
    print(f"nodes: {mc.n_nodes}")
    for k, cls in enumerate(mc.recurrent):
        mean = bscc_mean_payoff(mc, cls)
        members = ", ".join(mc.label_texts[i] for i in cls)
        print(f"recurrent class {k + 1}: mean={mean} {{{members}}}")
    if args.dot:
        _write(args.dot, chain_dot(mc, title=g.name))
    if lam is not None:
        verdict = almost_sure_limavg_gt(mc, lam)
        print(f"almost-sure average > {lam}: {'yes' if verdict else 'no'}")
    else:
        verdict = limavg1_diagnosis(mc) is None
        print(f"almost-sure average 1: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmp",
        description="Almost-sure mean-payoff analysis for partially"
        " observable MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve",
        help="decide almost-sure long-run average 1 and synthesize a witness",
    )
    p.add_argument("model", help="model file (reward section or --rewards)")
    p.add_argument("--rewards", metavar="PATH", help="standalone reward file")
    p.add_argument(
        "--strategy-out", metavar="PATH", help="write the witness strategy here"
    )
    p.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help="cap on constructed states before giving up (exit 3)",
    )
    p.add_argument(
        "--trace-fixpoints",
        action="store_true",
        help="include per-iteration fixpoint sizes in the report",
    )
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering here")
    p.add_argument(
        "--stats",
        metavar="PATH",
        help="write the reduction sizes and phase times here as JSON",
    )
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser(
        "validate",
        help="check a model file, or a strategy against a model",
    )
    p.add_argument("model")
    p.add_argument("--rewards", metavar="PATH")
    p.add_argument("--strategy", metavar="PATH")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="allow the initial state to share its observation",
    )
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of the average reward")
    p.add_argument("model")
    p.add_argument("--strategy", metavar="PATH", required=True)
    p.add_argument("--rewards", metavar="PATH")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument(
        "--seed", type=int, default=0, metavar="S", help="master random seed"
    )
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "collapse",
        help="project a strategy onto belief-supported memories",
    )
    p.add_argument("model")
    p.add_argument("--strategy", metavar="PATH", required=True)
    p.add_argument("--rewards", metavar="PATH")
    p.add_argument(
        "--strategy-out", metavar="PATH", help="write the collapsed strategy here"
    )
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering here")
    p.set_defaults(handler=cmd_collapse)

    p = sub.add_parser(
        "reduce-pfa-quant",
        help="word acceptance above 1/2 as a long-run average above 1/2",
    )
    p.add_argument("automaton")
    p.add_argument("--out", metavar="PATH", help="write the model file here")
    p.set_defaults(handler=lambda a: _cmd_reduce_pfa(a, reduce_quantitative))

    p = sub.add_parser(
        "reduce-pfa-value1",
        help="acceptance arbitrarily close to 1 as almost-sure average 1",
    )
    p.add_argument("automaton")
    p.add_argument("--out", metavar="PATH", help="write the model file here")
    p.set_defaults(handler=lambda a: _cmd_reduce_pfa(a, reduce_value1))

    p = sub.add_parser(
        "check-belief-obs",
        help="test whether belief supports stay inside observation classes",
    )
    p.add_argument("model")
    p.set_defaults(handler=cmd_check_belief_obs)

    p = sub.add_parser(
        "analyze-chain",
        help="recurrent classes and exact mean payoffs of a played strategy",
    )
    p.add_argument("model")
    p.add_argument("--strategy", metavar="PATH", required=True)
    p.add_argument("--rewards", metavar="PATH")
    p.add_argument(
        "--threshold",
        metavar="p/q",
        help="check average > p/q instead of average = 1",
    )
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering here")
    p.set_defaults(handler=cmd_analyze_chain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.handler(args)
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 3
    except (ModelError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    finally:
        print(f"wall {time.perf_counter() - t0:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
