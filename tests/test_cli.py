import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from ng_incentives import concentration
from ng_incentives.cli import main, parse_grid
from ng_incentives.model import ProtocolParams
from ng_incentives.simulator import Extension, Inclusion, SimConfig, run

from oracles import pair_moments

FIXTURE = str(Path(__file__).parent / "data" / "fees_fixture.csv")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_payload(out):
    doc = json.loads(out)
    assert "metadata" in doc and "version" in doc["metadata"]
    return doc["payload"]


def _csv_rows(out):
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def test_parse_grid_forms():
    assert parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_grid("0.25") == [0.25]
    assert parse_grid("0.1,0.4") == [0.1, 0.4]
    # The last step may overshoot b; that point is dropped.
    assert parse_grid("0:1:0.6") == [0.0, 0.6]
    with pytest.raises(ValueError, match="a:b:step"):
        parse_grid("1:2")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_grid("0.1,x")
    with pytest.raises(ValueError):
        parse_grid("0.3:0.1:0.1")
    with pytest.raises(ValueError):
        parse_grid("a:b:c")
    with pytest.raises(ValueError):
        parse_grid(",")


def test_bounds_single_alpha(capsys):
    code, out, _ = _run(capsys, "bounds", "--alpha", "0.25")
    assert code == 0
    (row,) = _json_payload(out)
    assert row["feasible_lower"] == pytest.approx(0.3684, abs=5e-5)
    assert row["feasible_upper"] == pytest.approx(0.4286, abs=5e-5)
    assert row["empty"] is False


def test_bounds_grid_and_empty_class(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--alpha-grid", "0.1:0.4:0.1", "--class", "whale"
    )
    assert code == 0
    rows = _json_payload(out)
    assert [r["alpha"] for r in rows] == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert rows[-1]["empty"] is True and rows[0]["empty"] is False


def test_bounds_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, "bounds", "--alpha-grid", "0.1:0.7:0.1")
    assert code == 1 and "error" in err
    code, _, err = _run(capsys, "bounds")
    assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "grid, reason",
    [
        ("0:inf:0.1", "finite"),
        ("nan:1:0.1", "finite"),
        ("0:1e300:1e-10", "points"),
        ("0:1:1e-9", "points"),
    ],
)
def test_bounds_rejects_non_finite_or_huge_grid(capsys, grid, reason):
    code, out, err = _run(capsys, "bounds", "--alpha-grid", grid)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--bogus"],
        ["pairs", "--alpha", "0.3"],
        ["mdp", "--alpha-grid", "0.2", "--r-grid", "0.4"],
        ["revenue", "--alpha", "0.3", "--gamma", "0.5"],
        ["pairs", "--config", "CONFIG", "--alpha", "0.3", "--m", "101", "--delta", "0.2"],
        ["bounds", "--config", "CONFIG", "--alpha", "0.25"],
        ["fees", "--config", "CONFIG", "--input", FIXTURE],
        ["simulate", "--strategy", "honest", "--interval-mode", "uniform"],
        [],
        ["fees", "--input", FIXTURE, "--whale-threshold", "nan"],
        ["fees", "--input", FIXTURE, "--whale-threshold", "inf"],
        ["fees", "--input", FIXTURE, "--edges", "0.1,nan"],
        ["fees", "--input", FIXTURE, "--edges", "0.1,inf"],
        # A horizon past the simulator's bound, and a petabyte pair array
        # beyond any 47-bit address space: both fail at once.
        ["simulate", "--strategy", "honest", "--m", "1000000000000000"],
        ["pairs", "--alpha", "0.3", "--m", "1000000000000000", "--delta", "0.1",
         "--trials", "1"],
        # Degenerate alpha skips the analytic bound, not the delta check.
        ["pairs", "--alpha", "1", "--m", "100", "--delta", "nan", "--trials", "10"],
        ["pairs", "--alpha", "0", "--m", "100", "--delta", "5", "--trials", "10"],
        # A grid with no values.
        ["mdp", "--r-grid", ","],
        ["mdp", "--alpha-grid", ","],
        ["revenue", "--rho-grid", ","],
        ["mdp", "--alpha-grid", "", "--L", "4", "--regime", "key"],
        ["mdp", "--r-grid", "", "--L", "4", "--regime", "key"],
        ["revenue", "--alpha", "0.3", "--r", "0.2", "--rho-grid", "", "--attack", "inclusion"],
        ["bounds", "--alpha-grid", ""],
        # Parameters come from flags only.
        ["revenue", "--config", "CONFIG", "--rho", "1", "--attack", "inclusion"],
        ["mdp", "--config", "CONFIG", "--regime", "fee", "--L", "4"],
        ["simulate", "--strategy", "honest", "--config", "CONFIG"],
        # A truncation whose table would not fit in memory.
        ["mdp", "--L", "1000000"],
        ["simulate", "--strategy", "mdpPolicy", "--L", "1000000"],
        # A scalar flag next to its grid flag.
        ["mdp", "--alpha", "0.3", "--alpha-grid", "0.1:0.2:0.1", "--L", "4", "--regime", "key"],
        ["mdp", "--r", "0.3", "--r-grid", "0.1:0.2:0.1", "--L", "4", "--regime", "key"],
        ["bounds", "--alpha", "0.3", "--alpha-grid", "0.1:0.2:0.1"],
        ["revenue", "--rho", "0.5", "--rho-grid", "0:1:0.5"],
        # numpy seeds only with non-negative integers; the error names the flag.
        ["simulate", "--strategy", "honest", "--seed", "-1"],
        ["pairs", "--alpha", "0.3", "--m", "101", "--delta", "0.2", "--seed", "-1"],
        ["fees", "--input", FIXTURE, "--edges", "x,1"],
        # Edges out of order, or too few to make a bucket.
        ["fees", "--input", FIXTURE, "--edges", "0.2,0.1"],
        ["fees", "--input", FIXTURE, "--edges", "0.5"],
        # Holds no O(m) memory, so only the horizon bound stops it.
        ["simulate", "--strategy", "mdpPolicy", "--m", "1000000000000000", "--L", "4"],
        # An unknown flag is named before a missing required one.
        ["bounds", "--class", "whale", "--bogus"],
        ["pairs", "--bogus"],
        ["simulate", "--bogus"],
        ["fees", "--bogus"],
        # Library range errors.
        ["revenue", "--r", "1e400"],
        ["simulate", "--strategy", "honest", "--m", "1"],
        # The interval simulator has one model and no flag choosing one.
        ["simulate", "--strategy", "honest", "--interval-mode", "exponential"],
    ],
)
def test_usage_errors_are_one_line_exit_1(tmp_path, capsys, argv):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha = 0.3\n")
    argv = [str(cfg) if a == "CONFIG" else a for a in argv]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    for flag in ("--seed", "--edges", "--bogus", "--interval-mode"):
        if flag in argv:
            assert flag in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pairs", "--bogus"], "unrecognized arguments: --bogus (see ng-incentives pairs --help)"),
        (["fees", "--bogus", "x"], "unrecognized arguments: --bogus x (see ng-incentives fees --help)"),
        (["revenue", "--r", "1e400"], "--r must be finite"),
        (["simulate", "--strategy", "honest", "--m", "1"], "--m must be between 2 and"),
        (["mdp", "--L", "1000000"], "--L must be between 2 and 100"),
        (["mdp", "--r-grid", "0.5,1.5", "--L", "4", "--regime", "key"], "--r-grid out of [0,1]"),
        (["pairs", "--alpha", "0.3", "--m", "101", "--delta", "1"], "--delta must be in (0,1)"),
        (["fees", "--input", FIXTURE, "--whale-threshold", "0"], "--whale-threshold must be"),
        (["bounds", "--alpha", "0.6"], "--alpha must lie in [0, 0.5)"),
        (["mdp", "--r-grid", "1:2"], "argument --r-grid: grid must be a:b:step"),
        (["mdp", "--alpha-grid", "x"], "argument --alpha-grid: non-numeric grid"),
        (["revenue", "--rho-grid", "0:1:0"], "argument --rho-grid: grid needs b >= a"),
        (["simulate", "--strategy", "honest", "--seed", "-1"], "--seed must be a non-negative"),
        (["pairs", "--alpha", "0.3", "--m", "101", "--delta", "0.2", "--seed", "1.5"],
         "argument --seed: invalid int value"),
        (["simulate", "--strategy", "mdpPolicy", "--seed", "-1"], "--seed must be a non-negative"),
        (["simulate", "--strategy", "mdpPolicy", "--m", "1"], "--m must be between 2 and"),
        (["pairs", "--alpha", "0.3", "--m", "3", "--delta", "0.5", "--trials", "10000000001"],
         "--trials must be between 1 and"),
    ],
)
def test_errors_name_the_flag_typed(capsys, argv, message):
    # A library range error names the flag that set the parameter, and an
    # unknown flag points at its subcommand's help.
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + message) and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["pairs", "--alpha", "0.3"], ["--m", "--delta"]),
        (["bounds"], ["--alpha", "--alpha-grid"]),
        (["simulate", "--alpha", "0.3"], ["--strategy"]),
        (["fees", "--whale-threshold", "0.1"], ["--input"]),
    ],
)
def test_missing_required_flags_are_named(capsys, argv, named):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # Exactly the missing flags, before the pointer to the help.
    assert re.findall(r"--[\w-]+", err.split(" (see ")[0]) == named


# Each subcommand's required flags as its usage line shows them: without
# brackets, though argparse does not enforce them.  Their help text marks
# them too.
_REQUIRED_USAGE = {
    "bounds": "(--alpha ALPHA | --alpha-grid A:B:STEP)",
    "revenue": "",
    "mdp": "",
    "simulate": "--strategy {honest,inclusion,extension,mdpPolicy}",
    "pairs": "--alpha ALPHA --m M --delta DELTA",
    "fees": "--input INPUT",
}


@pytest.mark.parametrize("subcommand", list(_REQUIRED_USAGE))
def test_help_still_exits_0(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: ng-incentives {subcommand} ")
    if subcommand == "mdp":
        assert "--r-grid" in out
    # The usage line, however it wraps, is the required flags once the
    # bracketed optional ones are taken out.
    usage = " ".join(out.split("\n\n")[0].split())
    required = _REQUIRED_USAGE[subcommand]
    assert re.sub(r" \[[^]]*\]", "", usage) == f"usage: ng-incentives {subcommand} {required}".strip()
    for flag in re.findall(r"--[\w-]+", required):
        # The flag's own help: its line up to the next option's.
        (text,) = re.findall(rf"^  {flag}\b(?!-).*?(?=^  -|\Z)", out, re.M | re.S)
        assert "required" in text, flag


def test_revenue_rows(capsys):
    code, out, _ = _run(
        capsys,
        "revenue",
        "--alpha", "0.3", "--r", "0.2",
        "--rho-grid", "0:1:1", "--attack", "inclusion",
    )
    assert code == 0
    rows = _json_payload(out)
    assert rows[0]["revenue"] == pytest.approx(0.3)
    assert rows[1]["revenue"] == pytest.approx(0.3265822784810127)


def test_json_and_csv_payloads_value_identical(capsys):
    # JSON true/false/null are CSV true/false/empty.
    kinds = set()
    for args in (
        ["revenue", "--alpha", "0.3", "--r", "0.8", "--rho-grid", "0:1:0.5"],
        ["bounds", "--alpha-grid", "0.1,0.4", "--class", "whale"],
        ["fees", "--input", FIXTURE],
    ):
        code, out_json, _ = _run(capsys, *args, "--format", "json")
        code2, out_csv, _ = _run(capsys, *args, "--format", "csv")
        assert code == code2 == 0
        jrows = _json_payload(out_json)
        crows = _csv_rows(out_csv)
        assert len(jrows) == len(crows)
        for j, c in zip(jrows, crows):
            assert set(j) == set(c)
            for key, val in j.items():
                kinds.add(type(val))
                if isinstance(val, bool):
                    assert c[key] == str(val).lower()
                elif isinstance(val, float):
                    assert float(c[key]) == pytest.approx(val, abs=0, rel=0)
                elif val is None:
                    assert c[key] == ""
                else:
                    assert str(val) == c[key]
    assert {bool, float, type(None), str} <= kinds


def test_mdp_single_point(capsys):
    code, out, _ = _run(
        capsys, "mdp", "--alpha", "0.1", "--regime", "fee", "--L", "10"
    )
    assert code == 0
    (row,) = _json_payload(out)
    assert row["revenue"] == pytest.approx(0.1, abs=1e-3)
    assert row["regime"] == "fee" and row["gamma"] == 0.5 and row["r"] == 0.4


@pytest.mark.parametrize(
    "fixed, flag, spec, regimes",
    [
        (["--alpha", "0.2321"], "--r", "0:1:0.1", ("fee", "equal")),
        ([], "--alpha", "0.30:0.45:0.05", ("fee", "key")),
        # Two rows at one coordinate give no line to seed the third from.
        (["--alpha", "0.2321"], "--r", "0.5,0.5,0.6", ("fee", "equal")),
        (["--alpha", "0.2321"], "--r", "0.6,0.4,0.5", ("fee", "key")),
    ],
)
def test_mdp_grid_rows_match_single_point_runs(capsys, fixed, flag, spec, regimes):
    # A grid row after the first of its regime starts from that regime's
    # previous result, from the third row on with the bias extrapolated
    # from the last two; an invocation per point solves every row cold.
    flags = [*fixed, *(a for regime in regimes for a in ("--regime", regime))]
    code, out, _ = _run(capsys, "mdp", *flags, f"{flag}-grid", spec)
    assert code == 0
    rows = _json_payload(out)
    single = []
    for value in parse_grid(spec):
        code, out, _ = _run(capsys, "mdp", *flags, flag, repr(value))
        assert code == 0
        single += _json_payload(out)

    def point(row):
        return row["alpha"], row["regime"], row["r"], row["gamma"]

    assert list(map(point, rows)) == list(map(point, single))
    for row, cold in zip(rows, single):
        assert abs(row["revenue"] - cold["revenue"]) <= 1e-10


def test_mdp_rejects_unknown_regime(capsys):
    code, _, err = _run(capsys, "mdp", "--alpha", "0.1", "--regime", "bogus")
    assert code == 1 and "regime" in err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_simulate_deterministic_output(capsys):
    args = [
        "simulate", "--strategy", "inclusion", "--rho", "1",
        "--alpha", "0.3", "--r", "0.2", "--m", "100000", "--seed", "7",
    ]
    code, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2  # byte-identical for the same seed
    (row,) = _json_payload(out1)
    assert row["relative_revenue"] == pytest.approx(0.3266, abs=0.01)
    # Each attack's flag runs that attack: its row is the library's report.
    params = ProtocolParams(alpha=0.3, split_ratio=0.2)
    for strategy in (Inclusion(0.5), Extension(0.5)):
        name = type(strategy).__name__.lower()
        code, out, _ = _run(capsys, "simulate", "--strategy", name, "--rho", "0.5", *args[5:])
        assert code == 0
        assert _json_payload(out) == [asdict(run(SimConfig(params, strategy, 100_000, seed=7)))]


def test_python_dash_m_runs_the_cli_from_source(tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [
        "simulate", "--strategy", "mdpPolicy", "--alpha", "0.35",
        "--m", "5000", "--L", "6", "--seed", "3",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "ng_incentives", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, out, _ = _run(capsys, *args)
    assert _json_payload(proc.stdout) == _json_payload(out)

    proc = subprocess.run(
        [sys.executable, "-m", "ng_incentives", "simulate", "--strategy", "honest", "--m", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


_SCIPY_PROBE = """
import contextlib, io, sys
from ng_incentives import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

cli.build_parser()
run("bounds", "--alpha", "0.25")
run("revenue", "--alpha", "0.3", "--rho-grid", "0:1:0.5")
run("simulate", "--strategy", "honest", "--m", "1000", "--seed", "1")
run("pairs", "--alpha", "0.3", "--m", "101", "--delta", "0.2", "--trials", "10")
run("fees", "--input", sys.argv[1])
assert "scipy" not in sys.modules, "scipy loaded without an MDP table"
assert "ng_incentives.mdp" not in sys.modules, "the MDP module loaded without an MDP table"
run("mdp", "--alpha", "0.3", "--L", "4", "--regime", "key")
assert "scipy" in sys.modules, "mdp ran without scipy"
"""


def test_only_an_mdp_table_imports_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, FIXTURE],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr


_NUMPY_PROBE = """
import contextlib, io, sys
from ng_incentives import cli

def run(code, *argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            result = cli.main(list(argv))
        except SystemExit as exc:
            result = exc.code
    assert result == code, (argv, result)

cli.build_parser()
run(0, "bounds", "--alpha", "0.25")
run(0, "revenue", "--alpha", "0.3", "--rho-grid", "0:1:0.5")
run(0, "--help")
run(1, "pairs", "--alpha", "0.3")
run(1, "mdp", "--alpha-grid", "0.2", "--r-grid", "0.4")
assert "numpy" not in sys.modules, "numpy loaded without a numeric subcommand"
run(1, "simulate", "--strategy", "mdpPolicy", "--seed", "-1", "--L", "40")
assert "scipy" not in sys.modules, "a table was built for a refused simulation"

from ng_incentives import mdp, simulator
for name, module in (("build_transitions", mdp), ("solve", mdp), ("run", simulator)):
    assert getattr(cli, name) is getattr(module, name), name
assert not hasattr(cli, "Honest")
"""


def test_closed_form_commands_start_without_numpy(tmp_path):
    # bounds, revenue, --help and usage errors use no numpy, so importing it
    # up front would cost each of them about 0.1 s for nothing.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr


_SOLVER_PROBE = """
import contextlib, io, sys
from ng_incentives import cli, mdp
from ng_incentives.model import ProtocolParams, RewardWeights

table = mdp.build_transitions(ProtocolParams(alpha=0.4, gamma=0.0), 8)
mdp.solve(table, RewardWeights.from_regime("fee"))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mdp", "--alpha", "0.3", "--r-grid", "0:0.3:0.1", "--L", "6"]) == 0
loaded = {"scipy.sparse.csgraph", "scipy.linalg"} & set(sys.modules)
assert not loaded, loaded
"""


def test_mdp_solves_load_neither_scipy_csgraph_nor_linalg(tmp_path):
    # Both would add to every mdp invocation's start-up time and memory.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVER_PROBE],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr


def test_pairs_row(capsys):
    code, out, _ = _run(
        capsys,
        "pairs", "--alpha", "0.3", "--m", "1001",
        "--delta", "0.2", "--trials", "500", "--seed", "3",
    )
    assert code == 0
    (row,) = _json_payload(out)
    assert 0.0 <= row["empirical_deviation"] <= 1.0
    assert row["expected_pairs"] == pytest.approx(0.3 * 0.7 * 1000)
    assert row["mean_z"] == pytest.approx(row["expected_pairs"], rel=0.05)


def test_pairs_sampler_failure_is_one_error_line(monkeypatch, capsys):
    # A failure inside the pair kernel's sampler is one error line.
    def fails(*args):
        raise MemoryError("injected")

    monkeypatch.setattr(concentration, "segment_stats", fails)
    code, out, err = _run(
        capsys,
        "pairs", "--alpha", "0.3", "--m", "101", "--delta", "0.2", "--trials", "100",
    )
    assert code == 1 and out == ""
    assert err == "error: injected\n"


def test_pairs_past_one_segment_has_the_exact_mean(capsys):
    # m - 1 = 2**30 + 2 bits make three segments per trial; mean_z lies
    # within 4 standard errors of E[Z] (oracles.pair_moments).
    m, trials = 1_073_741_827, 64
    code, out, _ = _run(
        capsys,
        "pairs", "--alpha", "0.3", "--m", str(m), "--delta", "0.1",
        "--trials", str(trials), "--seed", "2",
    )
    assert code == 0
    (row,) = _json_payload(out)
    mean, var = pair_moments(0.3, m)
    assert abs(row["mean_z"] - mean) < 4 * math.sqrt(var / trials)


def test_fees_outputs_cdf_and_classification(capsys):
    code, out, _ = _run(
        capsys,
        "fees", "--input", FIXTURE,
        "--edges", "0.00001,0.0001,0.0005,0.001",
        "--whale-threshold", "0.0001",
    )
    assert code == 0
    rows = _json_payload(out)
    cdf = {r["upper"]: r["value"] for r in rows if r["kind"] == "cdf"}
    assert cdf[0.0001] == 0.778 and cdf[0.0005] == 0.985
    frac = [r for r in rows if r["kind"] == "regular_fraction"]
    assert frac[0]["value"] == 0.778
    buckets = [r for r in rows if r["kind"] == "bucket"]
    assert sum(r["value"] for r in buckets) == 1000


def test_fees_non_numeric_edge_names_the_flag(capsys):
    code, out, err = _run(capsys, "fees", "--input", FIXTURE, "--edges", "x,1")
    assert code == 1 and out == ""
    assert err.startswith("error: argument --edges:") and "'x,1'" in err


def test_fees_parse_error_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1\noops\n")
    code, _, err = _run(capsys, "fees", "--input", str(bad))
    assert code == 1 and "line 2" in err


def test_fees_missing_file_exits_nonzero(capsys):
    code, _, err = _run(capsys, "fees", "--input", "/nonexistent/fees.csv")
    assert code == 1 and err.startswith("error")


def test_fees_empty_file_exits_nonzero(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    code, _, err = _run(capsys, "fees", "--input", str(empty))
    assert code == 1


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "bounds.json"
    code, out, _ = _run(
        capsys, "bounds", "--alpha", "0.2", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())["payload"]
    assert payload[0]["alpha"] == 0.2


def test_out_flag_unwritable_path_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "bounds.json"
    code, out, err = _run(
        capsys, "bounds", "--alpha", "0.25", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    ns: dict = {}
    exec(block, ns)
    interval = ns["feasible_interval"](0.25, "whale")
    assert (round(interval.lower, 4), round(interval.upper, 4)) == (0.3684, 0.4286)
    assert ns["inclusion_attack_revenue"](0.3, 0.2, 1.0) == pytest.approx(0.3265822784810127)
    result, report = ns["result"], ns["report"]
    assert result.revenue == pytest.approx(0.3399, abs=5e-5)
    assert abs(report.relative_revenue - result.revenue) <= 4 * report.std_error
