"""Layered benchmark for ng-incentives.

Runs one workload's list of CLI invocations through the public
``ng_incentives.cli.main`` entry point, in this process, one invocation
after another (a single client in a closed loop).  Every output is checked
against an oracle that does not share code with the path that produced it.

    python3 perfbench/run.py --workload mdp_r_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the repository root; the package is imported from ``src/``.
A run repeats the workload, each repetition with inputs of its own, while
another repetition fits in ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics: the median repetition wall
time, the median set-up time of a fresh interpreter (``setup_s``) and the
peak resident memory.  ``--trace 1`` alternates untraced and traced
repetitions, both with one worker so that no span is lost in a pool child,
and reports the per-layer metrics of the traced ones.  The last line of
standard output is the JSON result; the full result, with an environment
block, every invocation's checksum and (traced) every span, is written to
``perfbench/results/``.  ``perfbench/compare.py`` compares two such sets.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREADS_VAR = "NG_INCENTIVES_THREADS"
SETUP_SAMPLES = 7
SETUP_CODE = "import ng_incentives.cli as cli; cli.build_parser()"

# Spans whose calls, median and self time are reported by name.
TIMED_SPANS = (
    "mdp.build_transitions",
    "mdp.solve",
    "simulator.run_policy",
    "simulator.run_interval",
    "concentration.empirical_pair_summary",
)
# Metric names and units are declared once, in BENCHMARK.json.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "ng_incentives" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ng_incentives'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))


_import_program()

import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from ng_incentives import cli  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------- one repetition


def invoke(argv) -> tuple[str | None, str, float]:
    """Run one CLI invocation; return (error or None, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed invocation, not a failed run
        lines = traceback.format_exc().strip().splitlines()
        return f"traceback: {lines[-1]}", out.getvalue(), time.perf_counter() - start
    seconds = time.perf_counter() - start
    if code != 0:
        reason = err.getvalue().strip().splitlines()
        return f"exit {code}: {reason[-1] if reason else ''}", out.getvalue(), seconds
    return None, out.getvalue(), seconds


def verify(invocation, error: str | None, stdout: str) -> str | None:
    if error is not None:
        return error
    try:
        return invocation.check(json.loads(stdout))
    except Exception as exc:  # malformed output fails this invocation only
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_rep(workload: str, seed: int, rep: int, toy: bool, tracer=None) -> dict:
    """Run one repetition; time it, then verify every output untimed."""
    invocations = workloads.WORKLOADS[workload](seed, rep, toy)
    raw = []
    start = time.perf_counter()
    if tracer is None:
        raw = [invoke(inv.argv) for inv in invocations]
    else:
        with tracing.installed(tracer):
            for inv in invocations:
                with tracer.span("cli.main", "cli"):
                    raw.append(invoke(inv.argv))
    wall = time.perf_counter() - start
    records = []
    for i, (inv, (error, stdout, seconds)) in enumerate(zip(invocations, raw)):
        reason = verify(inv, error, stdout)
        record = {"rep": rep, "i": i, "command": inv.argv[0], "seconds": round(seconds, 6),
                  "ok": reason is None,
                  "sha256": hashlib.sha256(stdout.encode()).hexdigest()[:16]}
        if reason:
            record.update(argv=" ".join(inv.argv), error=reason)
        records.append(record)
    return {"rep": rep, "traced": tracer is not None, "wall_s": wall,
            "invocations": records, "tracer": tracer}


# ------------------------------------------------------------------- metrics


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, i.e. the
    (n - 10)-th smallest value; the maximum when n is ten or fewer."""
    n = len(values)
    return sorted(values)[n - 11] if n > 10 else max(values)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child
    waited for so far (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(samples: int = SETUP_SAMPLES) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser; one untimed start first fills the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(traced: list[dict], untraced: list[dict], workers: int) -> dict:
    """Per-layer metrics from the traced repetitions.

    Counts come from the first traced repetition, whose inputs depend on
    the seed alone.  Span medians and tails pool every traced repetition;
    self times are the median over repetitions of each one's total.
    """
    per_rep = []
    for rep in traced:
        tracer = rep["tracer"]
        selfs = tracer.self_times()
        agg: dict = {}
        for span, self_s in zip(tracer.spans, selfs):
            for key in (span.name, span.layer):
                entry = agg.setdefault(
                    key, {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}}
                )
                entry["calls"] += 1
                entry["self_s"] += self_s
                entry["durations"].append(span.duration)
                for name, value in span.counts.items():
                    entry["counts"][name] = entry["counts"].get(name, 0) + value
        per_rep.append(agg)

    empty = {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}}

    def first(key: str) -> dict:
        return per_rep[0].get(key, empty)

    def pooled(key: str) -> list[float]:
        return [d for agg in per_rep for d in agg.get(key, empty)["durations"]]

    def median_self(key: str) -> float:
        return statistics.median(agg.get(key, empty)["self_s"] for agg in per_rep)

    def rate(key: str, count: str, scale: float) -> float:
        work = sum(agg.get(key, empty)["counts"].get(count, 0) for agg in per_rep)
        busy = sum(agg.get(key, empty)["self_s"] for agg in per_rep)
        return busy / work * scale if work else 0.0

    values: dict[str, float] = {}
    for key in TIMED_SPANS:
        values[f"{key}.calls"] = first(key)["calls"]
        values[f"{key}.self_s"] = median_self(key)
    build = pooled("mdp.build_transitions")
    solves = pooled("mdp.solve")
    values["mdp.build_transitions.p50_s"] = statistics.median(build) if build else 0.0
    values["mdp.solve.samples"] = len(solves)
    values["mdp.solve.p50_s"] = statistics.median(solves) if solves else 0.0
    values["mdp.solve.tail_s"] = tail(solves) if solves else 0.0
    # Every table of a workload has the same truncation, hence the same size.
    builds = first("mdp.build_transitions")
    tables = max(builds["calls"], 1)
    values["mdp.states"] = builds["counts"].get("states", 0) // tables
    values["mdp.table_entries"] = builds["counts"].get("table_entries", 0) // tables
    values["mdp.solve.outer_iterations"] = first("mdp.solve")["counts"].get("outer_iterations", 0)
    values["simulator.boundary_visits"] = (
        first("simulator.run_policy")["counts"].get("boundary_visits", 0)
    )
    values["simulator.run_policy.us_per_keyblock"] = rate(
        "simulator.run_policy", "keyblocks", 1e6
    )
    values["simulator.run_interval.ns_per_keyblock"] = rate(
        "simulator.run_interval", "keyblocks", 1e9
    )
    values["concentration.empirical_pair_summary.ns_per_bit"] = rate(
        "concentration.empirical_pair_summary", "bits", 1e9
    )
    for layer in ("closedform", "feescan", "cli"):
        values[f"{layer}.calls"] = first(layer)["calls"]
        values[f"{layer}.self_s"] = median_self(layer)
    values["cli.workers"] = workers
    values["tracing.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK["per_layer"]}


# ----------------------------------------------------------------------- run


def environment(seed: int, trace: bool, workers: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a checkout without git history has no commit
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu,
        "workers": workers,
        "seed": seed,
        "trace": trace,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Repeat the workload while another repetition (or, traced, another
    untraced/traced pair) fits in ``seconds``; return the full result."""
    pool_workers = workloads.pool_workers(workload, nproc())
    workers = 1 if trace else pool_workers
    os.environ[THREADS_VAR] = str(workers)
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        if trace:
            reps.append(run_rep(workload, seed, len(reps), toy))
            reps.append(run_rep(workload, seed, len(reps), toy, tracing.Tracer()))
        else:
            reps.append(run_rep(workload, seed, len(reps), toy))
        step = time.perf_counter() - step_start
        if time.perf_counter() - start + step > seconds:
            break
    invocations = [rec for rep in reps for rec in rep["invocations"]]
    failed = sum(not rec["ok"] for rec in invocations)
    untraced = [r for r in reps if not r["traced"]]
    if trace:
        metrics = layer_metrics([r for r in reps if r["traced"]], untraced, pool_workers)
    else:
        # Peak memory is read before the set-up interpreters become children.
        values = {"wall_s": statistics.median(r["wall_s"] for r in untraced),
                  "peak_rss_mb": peak_rss_mb()}
        values["setup_s"] = setup_seconds()
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
    return {
        "workload": workload,
        "seconds": seconds,
        "toy": toy,
        "environment": environment(seed, trace, workers),
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "failed_frac": failed / len(invocations),
        "metrics": metrics,
        "reps": [{"rep": r["rep"], "traced": r["traced"], "wall_s": r["wall_s"]} for r in reps],
        "invocations": invocations,
        **({"spans": [{"rep": r["rep"], "spans": r["tracer"].to_records()}
                      for r in reps if r["traced"]]} if trace else {}),
    }


def report(result: dict, results_dir: Path) -> None:
    """Write the full result file, then print the summary and the result line."""
    env = result["environment"]
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{result['workload']}-seed{env['seed']}-trace{int(env['trace'])}.json"
    path.write_text(json.dumps(result, separators=(",", ":")) + "\n")
    print(f"# workload {result['workload']}  seed {env['seed']}  trace {int(env['trace'])}  "
          f"repetitions {len(result['reps'])}  workers {env['workers']}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"#   {'failed_frac':48s} {result['failed_frac']:.6g} fraction "
          f"({result['failed']}/{result['attempted']})")
    for rec in result["invocations"]:
        if not rec["ok"]:
            print(f"#   FAILED {rec['argv']}: {rec['error']}")
    print(f"#   result file {path}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=BENCH_DIR / "results",
                        help="directory for the full result files")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # the fee fixture path in the workloads is relative
    if args.workload == "all":
        # One fresh process per workload, so peak memory and module state
        # of one workload do not carry into the next.
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--results", str(args.results)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, args.results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
