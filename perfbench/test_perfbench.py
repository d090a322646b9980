"""Self-tests of the benchmark at toy sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run the real harness on small inputs (``toy=True``), so they check
the benchmark's plumbing and oracles, not the program's speed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import workloads
from ng_incentives import closedform, concentration

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3

# The layer spans each workload must report as having run.
RUNS_ON = {
    "mdp_r_grid": ("mdp.build_transitions.calls", "mdp.solve.calls", "mdp.states",
                   "mdp.solve.outer_iterations"),
    "policy_rollout": ("mdp.solve.calls", "simulator.run_policy.calls",
                       "simulator.run_policy.us_per_keyblock"),
    "mc_oracles": ("simulator.run_interval.calls", "simulator.run_interval.ns_per_keyblock",
                   "concentration.empirical_pair_summary.ns_per_bit", "closedform.calls",
                   "feescan.calls"),
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setenv(run.THREADS_VAR, "1")  # measure() sets it; undone after


@pytest.fixture(scope="module")
def traced_twice():
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(run.ROOT)
        mp.setenv(run.THREADS_VAR, "1")
        return {w: [run.measure(w, SEED, 0.0, True, toy=True) for _ in range(2)]
                for w in workloads.WORKLOADS}


def _units(declared: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = run.measure(workload, SEED, 0.0, False, toy=True)
    assert result["correct"], [r for r in result["invocations"] if not r["ok"]]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = result["environment"]
    assert {"commit", "python", "numpy", "scipy", "nproc", "cpu_model",
            "workers", "seed", "trace"} <= set(env)
    assert all(len(rec["sha256"]) == 16 for rec in result["invocations"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics_are_emitted_with_units(workload, traced_twice):
    result = traced_twice[workload][0]
    assert result["correct"], [r for r in result["invocations"] if not r["ok"]]
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _units(BENCHMARK["per_layer"])
    for name in RUNS_ON[workload] + ("cli.calls", "cli.self_s"):
        assert metrics[name]["value"] > 0, name
    assert all(s["spans"] for s in result["spans"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(workload, traced_twice):
    first, second = traced_twice[workload]
    counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]


def test_failures_are_counted_not_fatal(monkeypatch):
    def raises(*args, **kwargs):
        raise RuntimeError("injected")

    def wrong_interval(alpha, transaction_class="all"):
        return closedform.FeasibleInterval(lower=0.1, upper=0.2, empty=False)

    monkeypatch.setattr(concentration, "empirical_pair_summary", raises)
    monkeypatch.setattr(closedform, "feasible_interval", wrong_interval)
    for trace in (False, True):
        result = run.measure("mc_oracles", SEED, 0.0, trace, toy=True)
        failures = [r for r in result["invocations"] if not r["ok"]]
        per_rep = len(workloads.mc_oracles(SEED, 0, toy=True))
        assert result["attempted"] == per_rep * len(result["reps"])
        assert result["failed"] == len(failures) == 2 * len(result["reps"])
        assert not result["correct"]
        assert {r["command"] for r in failures} == {"pairs", "bounds"}
        assert any("traceback: RuntimeError: injected" in r["error"] for r in failures)
        assert set(result["metrics"]) == set(_units(
            BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]))


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 23)]
    t = run.tail(values)
    assert sum(v > t for v in values) == 10
    assert run.tail(values[:10]) == 10.0


def _write_set(directory, walls, failed=0, sha="0" * 16):
    directory.mkdir()
    for seed, wall in enumerate(walls):
        result = {
            "workload": "mc_oracles", "failed": failed,
            "invocations": [{"rep": 0, "i": 0, "sha256": sha}],
            "environment": {"seed": seed, "trace": False},
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": 0.4, "unit": "s"},
                        "peak_rss_mb": {"value": 100.0, "unit": "MB"}},
        }
        (directory / f"mc_oracles-seed{seed}-trace0.json").write_text(json.dumps(result))


@pytest.mark.parametrize("walls, failed, expected", [
    ([8.0 + 0.01 * i for i in range(10)], 0, "improved"),
    ([8.0 + 0.01 * i for i in range(10)], 1, "unresolved"),
    ([14.0 + 0.01 * i for i in range(10)], 0, "worse"),
    ([10.02 + 0.01 * i for i in range(10)], 0, "unchanged"),
])
def test_compare_verdicts(tmp_path, walls, failed, expected):
    _write_set(tmp_path / "parent", [10.0 + 0.05 * (i % 3) for i in range(10)])
    _write_set(tmp_path / "change", walls, failed)
    rows = compare.compare(tmp_path / "parent", tmp_path / "change", BENCHMARK)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows if r["pairs"]}
    assert verdicts[("mc_oracles", "wall_s")] == expected
    assert verdicts[("mc_oracles", "setup_s")] == "unchanged"


def test_compare_counts_differing_outputs(tmp_path):
    _write_set(tmp_path / "parent", [10.0] * 10)
    _write_set(tmp_path / "change", [10.0] * 10, sha="1" * 16)
    assert compare.differing_outputs(tmp_path / "parent", tmp_path / "change") == {
        "mc_oracles": (10, 10)
    }


def test_compare_reports_noisy_parent_as_unresolved():
    noisy = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 15.0, 6.0, 11.0]
    assert compare.verdict(noisy, [v + 0.5 for v in noisy], "lower", 0.1) == "unresolved"
