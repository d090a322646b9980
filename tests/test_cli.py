import csv
import io
import json
from pathlib import Path

import pytest

from ng_incentives.cli import main, parse_grid

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
    with pytest.raises(ValueError):
        parse_grid("0.3:0.1:0.1")
    with pytest.raises(ValueError):
        parse_grid("a:b:c")


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
    args = ["revenue", "--alpha", "0.3", "--r", "0.8", "--rho-grid", "0:1:0.5"]
    code, out_json, _ = _run(capsys, *args, "--format", "json")
    code2, out_csv, _ = _run(capsys, *args, "--format", "csv")
    assert code == code2 == 0
    jrows = _json_payload(out_json)
    crows = _csv_rows(out_csv)
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        assert set(j) == set(c)
        for key, val in j.items():
            if isinstance(val, float):
                assert float(c[key]) == pytest.approx(val, abs=0, rel=0)
            else:
                assert str(val) == c[key]


def test_mdp_single_point(capsys, monkeypatch):
    monkeypatch.setenv("NG_INCENTIVES_THREADS", "1")
    code, out, _ = _run(
        capsys, "mdp", "--alpha", "0.1", "--regime", "fee", "--L", "10"
    )
    assert code == 0
    (row,) = _json_payload(out)
    assert row["revenue"] == pytest.approx(0.1, abs=1e-3)
    assert row["regime"] == "fee" and row["gamma"] == 0.5 and row["r"] == 0.4


def test_mdp_rejects_unknown_regime(capsys):
    code, _, err = _run(capsys, "mdp", "--alpha", "0.1", "--regime", "bogus")
    assert code == 1 and "regime" in err


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


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha = 0.3\nr = 0.2\n")
    code, out, _ = _run(
        capsys, "revenue", "--config", str(cfg), "--rho", "1", "--attack", "inclusion"
    )
    assert code == 0
    (row,) = _json_payload(out)
    assert row["alpha"] == 0.3 and row["r"] == 0.2
    assert row["revenue"] == pytest.approx(0.3265822784810127)


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha = 0.3\n")
    code, out, _ = _run(
        capsys, "revenue", "--config", str(cfg), "--alpha", "0.1",
        "--rho", "0", "--attack", "inclusion",
    )
    assert code == 0
    (row,) = _json_payload(out)
    assert row["alpha"] == 0.1
