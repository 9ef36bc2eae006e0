"""Tests for benchmarks/compare.py (the baseline regression gate)."""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

from benchmarks import compare  # noqa: E402


def _payload(value):
    return {"tables": [{
        "title": "demo table",
        "columns": ["workload", "ms/call", "packets"],
        "rows": [["alpha", value, 10], ["beta", 2.0, 20]],
        "notes": "",
    }]}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_identical_files_report_no_deltas(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _payload(1.0))
    new = _write(tmp_path / "new.json", _payload(1.0))
    assert compare.main([new, "--baseline", base]) == 0
    assert "no deltas" in capsys.readouterr().out


def test_committed_baseline_matches_itself(capsys):
    baseline = os.path.join(REPO_ROOT, "BENCH_BASELINE.json")
    assert compare.main([baseline, "--baseline", baseline]) == 0
    assert "no deltas" in capsys.readouterr().out


def test_drift_is_reported_but_passes_without_threshold(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _payload(1.0))
    new = _write(tmp_path / "new.json", _payload(1.5))
    assert compare.main([new, "--baseline", base]) == 0
    out = capsys.readouterr().out
    assert "demo table" in out
    assert "+50.00%" in out
    assert "alpha" in out and "ms/call" in out
    assert "beta" not in out            # unchanged rows stay quiet


def test_threshold_gate_fails_on_large_drift(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _payload(1.0))
    new = _write(tmp_path / "new.json", _payload(2.0))
    assert compare.main([new, "--baseline", base,
                         "--threshold", "25"]) == 1
    out = capsys.readouterr().out
    assert "exceeds 25%" in out
    assert "1 regression(s)" in out


def test_small_drift_passes_under_threshold(tmp_path):
    base = _write(tmp_path / "base.json", _payload(1.0))
    new = _write(tmp_path / "new.json", _payload(1.1))
    assert compare.main([new, "--baseline", base,
                         "--threshold", "25"]) == 0


def test_missing_and_new_tables_are_flagged(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _payload(1.0))
    other = dict(_payload(1.0))
    other["tables"] = [dict(other["tables"][0], title="renamed table")]
    new = _write(tmp_path / "new.json", other)
    assert compare.main([new, "--baseline", base]) == 0
    out = capsys.readouterr().out
    assert "MISSING table in results: demo table" in out
    assert "NEW table (not in baseline): renamed table" in out


def test_require_all_fails_on_missing_table(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _payload(1.0))
    other = dict(_payload(1.0))
    other["tables"] = [dict(other["tables"][0], title="renamed table")]
    new = _write(tmp_path / "new.json", other)
    assert compare.main([new, "--baseline", base, "--require-all"]) == 1
    assert "MISSING table" in capsys.readouterr().out


def test_require_all_fails_on_missing_row(tmp_path):
    base = _write(tmp_path / "base.json", _payload(1.0))
    other = _payload(1.0)
    other["tables"][0]["rows"] = [["beta", 2.0, 20]]      # alpha dropped
    new = _write(tmp_path / "new.json", other)
    assert compare.main([new, "--baseline", base, "--require-all"]) == 1


def test_committed_perf_baseline_matches_itself(capsys):
    baseline = os.path.join(REPO_ROOT, "BENCH_PERF.json")
    assert compare.main([baseline, "--baseline", baseline,
                         "--threshold", "5", "--require-all"]) == 0
    assert "no deltas" in capsys.readouterr().out


def test_every_numeric_column_gates(tmp_path):
    base = _write(tmp_path / "base.json", _payload(1.0))
    payload = _payload(1.0)
    payload["tables"][0]["rows"][0][2] = 20
    new = _write(tmp_path / "new.json", payload)
    assert compare.main([new, "--baseline", base,
                         "--threshold", "25"]) == 1


def test_percent_delta_edge_cases():
    assert compare.percent_delta(0, 0) is None
    assert compare.percent_delta(0, 1) == float("inf")
    assert compare.percent_delta(2.0, 1.0) == pytest.approx(-50.0)
