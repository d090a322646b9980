"""Compare a parent's and a change's result sets from perfbench/run.py.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files of several runs (for instance ten
seeds per workload, run alternately on the two commits).  Runs are paired
by (workload, trace, seed).  For every metric and workload this prints one
verdict:

  improved    the change wins at least 9 in 10 pairs, ties counting for
              neither, and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics have
              no bound: there the parent must win as "improved" requires);
  unresolved  the parent's own interquartile range is wider than the bound
              and not every change run beats every parent run, or there
              are no paired runs;
  unchanged   otherwise.

A change with more failed invocations than the parent on a workload gets
no "improved" there.  The outputs' checksums are compared as well, for
every invocation both sides ran: a speed-up that changes seeded results
shows as differing outputs (reported, not judged).
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: result}} for every result file."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        env = result["environment"]
        runs.setdefault((result["workload"], int(env["trace"])), {})[env["seed"]] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """Verdict for paired runs (parent[i] and change[i] share a seed)."""
    if not parent:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    n = len(gains)
    p1, p_med, p3 = quartiles(parent)
    spread = p3 - p1
    gain = sign * (statistics.median(change) - p_med)
    if sum(g > 0 for g in gains) >= 0.9 * n and gain > spread:
        return "improved"
    if bound is None:
        return "worse" if sum(g < 0 for g in gains) >= 0.9 * n and -gain > spread else "unchanged"
    if -gain > bound * abs(p_med):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> list[dict]:
    specs = {
        **{m["name"]: (m["better"], m["bound"], 0) for m in benchmark["end_to_end"]},
        **{m["name"]: (m["better"], None, 1) for m in benchmark["per_layer"]},
    }
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, (better, bound, trace) in specs.items():
            parent = parent_runs.get((workload, trace), {})
            change = change_runs.get((workload, trace), {})
            seeds = sorted(set(parent) & set(change))
            p = [parent[s]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["metrics"][name]["value"] for s in seeds]
            v = verdict(p, c, better, bound)
            more_failures = sum(change[s]["failed"] for s in seeds) > sum(
                parent[s]["failed"] for s in seeds
            )
            if v == "improved" and more_failures:
                v = "unresolved"
            rows.append({
                "workload": workload, "metric": name, "verdict": v, "pairs": len(seeds),
                "parent": quartiles(p) if p else None, "change": quartiles(c) if c else None,
                "more_failures": more_failures,
            })
    return rows


def differing_outputs(parent_dir: Path, change_dir: Path) -> dict:
    """{workload: (differing, compared)} over invocations both sides ran."""
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    out = {}
    for key in sorted(set(parent_runs) & set(change_runs)):
        differing = compared = 0
        for seed in set(parent_runs[key]) & set(change_runs[key]):
            sums = [{(r["rep"], r["i"]): r["sha256"] for r in runs[key][seed]["invocations"]}
                    for runs in (parent_runs, change_runs)]
            for ident in set(sums[0]) & set(sums[1]):
                compared += 1
                differing += sums[0][ident] != sums[1][ident]
        workload = key[0]
        d, c = out.get(workload, (0, 0))
        out[workload] = (d + differing, c + compared)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two perfbench result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    for row in compare(args.parent, args.change, benchmark):
        if not row["pairs"]:
            continue
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        note = "  (more failed invocations)" if row["more_failures"] else ""
        print(f"{row['workload']:15s} {row['metric']:48s} {row['verdict']:10s} "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"pairs {row['pairs']}{note}")
    for workload, (differing, compared) in differing_outputs(args.parent, args.change).items():
        print(f"{workload:15s} outputs differing: {differing} of {compared}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
