"""Seeded benchmark for asmp: solve, PFA threshold checks and strategy checks.

Run from the repository root:

    python3 bench/run.py                         # all three workloads
    python3 bench/run.py --workload solve --seed 7 --trace 0

Each workload runs in its own process as one closed loop: one client, one
thread, each operation starting after the previous one ends. The timed
phase replays the workload's corpus in as many passes as fit in
``--seconds`` (at least one); it defaults to ``run_seconds`` of
``BENCHMARK.json``. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` follows the untraced passes with one
traced pass and reports the per-layer metrics. Every operation's output is checked;
at the default seed its digest must also equal ``bench/expected``. The
last line of stdout is one JSON object; a failed check gives exit code 1.
A result file with the Python version, CPU count, git commit and seed goes
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("solve", "pfa-threshold", "check-strategies")
DEFAULT_SEED = 6
SETUP_SAMPLES = 5


def import_package() -> None:
    """Put the checkout's own ``src`` first on the path, or exit."""
    if not (SRC / "asmp" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}/asmp")
    sys.path.insert(0, str(SRC))
    import asmp

    if Path(asmp.__file__).resolve().parent != (SRC / "asmp").resolve():
        sys.exit(f"error: imported asmp from {asmp.__file__}, not from {SRC}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Units of the metrics a run must report: end-to-end or per-layer."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    k = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(k) - 1]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "asmp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sample_setup(args) -> float:
    """Median time from process start to a ready corpus, over fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


def check_digests(args, passes, extras, problems: dict[str, str]) -> None:
    """Every repeat of an operation must give the same digest, and at the
    expected seed the first pass and the extras must give the committed ones."""
    first = {r.op_id: r.digest for r in passes[0] + extras}
    for results in passes:
        for r in results:
            if r.error is None and r.digest != first[r.op_id]:
                problems.setdefault(r.op_id, "output differs between repeats")
    path = EXPECTED / f"{args.workload}.json"
    if args.write_expected or not path.is_file():
        return
    expected = json.loads(path.read_text())
    if expected["seed"] != args.seed:
        return
    want = expected["digests"]
    for op_id, digest in first.items():
        if want.get(op_id) != digest:
            problems.setdefault(op_id, "output digest differs from bench/expected")
    if args.trace:  # a traced run skips the untimed extras
        return
    for op_id in want.keys() - first.keys():
        problems.setdefault(op_id, "expected operation is missing from the corpus")


def run_workload(args) -> int:
    import spans
    from workloads import WORKLOADS, layer_metrics

    units = metric_units(args.trace)
    workload = WORKLOADS[args.workload]
    items = workload.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = sample_setup(args)

    # Passes run while one more fits in --seconds; there is always one.
    passes, walls = [], []
    start = perf_counter()
    while not passes or perf_counter() - start + walls[-1] <= args.seconds:
        t0 = perf_counter()
        passes.append(workload.run_pass(items, spans.NullTracer(), args.seed))
        walls.append(perf_counter() - t0)

    tracer = None
    if args.trace:
        region = statistics.median(sum(r.region_s for r in results) for results in passes)
        tracer = spans.Tracer()
        t0 = perf_counter()
        passes.append(workload.run_pass(items, tracer, args.seed))
        traced_wall = perf_counter() - t0
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layers["trace.coverage"] = tracer.durations(workload.region_spans) / region
        metrics.update(layers)
    else:
        # Each operation's latency is its median over its samples: the
        # passes times its repeats within a pass. That drops the stalls a
        # shared machine adds to single samples. On solve, hidden-6 and
        # hidden-7 are single samples, because one pass fills --seconds.
        by_op: dict[str, list[float]] = {}
        for results in passes:
            for r in results:
                by_op.setdefault(r.op_id, []).append(r.seconds)
        latencies = sorted(statistics.median(t) for t in by_op.values())
        n_samples = len(latencies)
        metrics["wall_s"] = statistics.median(walls)
        metrics["op_p50_ms"] = statistics.median(latencies) * 1e3
        metrics["op_p90_ms"] = nearest_rank(latencies, 0.9) * 1e3
        metrics["max_op_s"] = latencies[-1]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    extras = [] if args.trace else workload.run_extras(items, args.seed)
    checked = passes + [extras]
    problems = {r.op_id: r.error for results in checked for r in results if r.error}
    check_digests(args, passes, extras, problems)
    attempted = sum(len(results) for results in checked)
    failed = sum(1 for results in checked for r in results if r.op_id in problems)
    correct = failed == 0
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"reported metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}"
        )

    n_ops = len(passes[0])
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
          f"  passes: {len(passes)}  operations per pass: {n_ops}"
          f"  untimed checked operations: {len(extras)}")
    for name, value in metrics.items():
        note = ""
        if name.startswith("op_p"):
            note = f"  (n={n_samples} operations, each its median over its samples)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh processes)"
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for op_id, problem in sorted(problems.items())[:20]:
        print(f"  FAILED {op_id}: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "passes": len(passes),
        "pass_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": problems,
        "digests": {r.op_id: r.digest for r in passes[0] + extras},
        "op_seconds": {r.op_id: r.seconds for r in passes[0] + extras},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.records()) + "\n")
    if args.write_expected:
        if not correct:
            sys.exit("error: not writing expected digests from a failing run")
        EXPECTED.mkdir(exist_ok=True)
        (EXPECTED / f"{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "digests": record["digests"]}, indent=1) + "\n"
        )

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run each workload in a fresh process and combine their result lines."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        last = ""
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                if last:
                    print(last, flush=True)
                last = line.rstrip("\n")
        code = code or proc.returncode
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            print(last)
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    print(json.dumps(total))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="store this run's output digests as the expected answers",
    )
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    if args.write_expected and args.trace:
        parser.error("--write-expected needs --trace 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
