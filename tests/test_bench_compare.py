"""Tests for benchmarks/compare.py (the exact baseline gate)."""

import copy
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

from benchmarks import compare  # noqa: E402
from repro.bench.gated import GATED_TABLES  # noqa: E402

with open(compare.BASELINE) as _fh:
    BASELINE = json.load(_fh)


def _payload(value):
    return {"tables": [{
        "title": "demo table",
        "columns": ["workload", "ms/call", "packets"],
        "rows": [["alpha", value, 10], ["beta", 2.0, 20]],
        "notes": "",
    }]}


def _table(payload, prefix):
    (table,) = [t for t in payload["tables"] if t["title"].startswith(prefix)]
    return table


def _gate(tmp_path, capsys, plant):
    """Run the gate on a copy of the committed baseline after
    ``plant(copy)``; returns (exit status, printed lines)."""
    results = copy.deepcopy(BASELINE)
    plant(results)
    path = tmp_path / "results.json"
    path.write_text(json.dumps(results))
    status = compare.main([str(path)])
    return status, capsys.readouterr().out.splitlines()


def test_identical_files_report_no_deltas():
    assert compare.differences(_payload(1.0), _payload(1.0)) == []


def test_committed_baseline_matches_itself(capsys):
    assert compare.main([compare.BASELINE]) == 0
    assert "no deltas" in capsys.readouterr().out


def test_committed_perf_baseline_matches_itself():
    """The work tables ``repro perf`` writes all sit in the one baseline
    and pass the gate against themselves."""
    titles = {spec.title for spec in GATED_TABLES}
    perf = {"tables": [t for t in BASELINE["tables"] if t["title"] in titles]}
    assert sorted(t["title"] for t in perf["tables"]) == sorted(titles)
    assert compare.differences(perf, copy.deepcopy(perf)) == []


def test_any_drift_fails_and_names_the_cell():
    lines = compare.differences(_payload(1.0), _payload(1.0000001))
    assert lines == ["demo table / alpha / ms/call: 1.0 -> 1.0000001"]


def test_every_numeric_column_gates():
    payload = _payload(1.0)
    payload["tables"][0]["rows"][0][2] = 20
    assert compare.differences(_payload(1.0), payload) == \
        ["demo table / alpha / packets: 10 -> 20"]


def test_a_cell_changing_type_fails():
    payload = _payload(1.0)
    payload["tables"][0]["rows"][0][2] = 10.0
    assert compare.differences(_payload(1.0), payload) == \
        ["demo table / alpha / packets: 10 -> 10.0"]


def test_notes_are_not_gated():
    payload = _payload(1.0)
    payload["tables"][0]["notes"] = "reworded"
    assert compare.differences(_payload(1.0), payload) == []


def test_missing_and_new_tables_are_flagged():
    other = _payload(1.0)
    other["tables"][0]["title"] = "renamed table"
    assert compare.differences(_payload(1.0), other) == \
        ["demo table: missing table", "renamed table: extra table"]


def test_changed_columns_fail():
    other = _payload(1.0)
    other["tables"][0]["columns"][2] = "datagrams"
    (line,) = compare.differences(_payload(1.0), other)
    assert line.startswith("demo table / columns: ")


def test_repeated_label_row_is_compared_by_position(tmp_path, capsys):
    eq51 = "Eq 5.1: troupe commit deadlock probability"

    def plant(results):
        rows = _table(results, eq51)["rows"]
        assert [row[0] for row in rows[:3]] == [1, 1, 1]
        rows[0][3] = 0.5

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0] == (_table(BASELINE, eq51)["title"]
                        + " / 1 / measured: 0.0 -> 0.5")


def test_ablation_row_0_is_compared(tmp_path, capsys):
    def plant(results):
        _table(results, "Ablation (Sec 4.2.5)")["rows"][0][3] = 14.0

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0].endswith(
        " / circus-window / packets/transfer: 13.0 -> 14.0")


def test_string_cell_is_compared(tmp_path, capsys):
    def plant(results):
        row = _table(results, "Fig 5.1")["rows"][0]
        assert row[3] == "yes"
        row[3] = "no"

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0].endswith(' / 4 / identical order: "yes" -> "no"')


def test_work_table_cell_is_compared(tmp_path, capsys):
    def plant(results):
        _table(results, "Kernel hot-path proxy")["rows"][1][1] += 0.01

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert " / circus-200 / callbacks/call: " in lines[0]


def test_dropped_row_fails(tmp_path, capsys):
    def plant(results):
        del _table(results, "Table 4.1")["rows"][-1]

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0].endswith(" / Circus(5): missing row")


def test_added_row_fails(tmp_path, capsys):
    def plant(results):
        rows = _table(results, "Table 4.1")["rows"]
        rows.append(list(rows[-1]))

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0].endswith(" / Circus(5): extra row")


def test_added_table_fails(tmp_path, capsys):
    def plant(results):
        results["tables"].append(dict(_payload(1.0)["tables"][0]))

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0] == "demo table: extra table"


def test_missing_table_fails(tmp_path, capsys):
    def plant(results):
        results["tables"].remove(_table(results, "Elastic troupe"))

    status, lines = _gate(tmp_path, capsys, plant)
    assert status == 1
    assert lines[0].endswith(": missing table")


def test_every_cell_of_every_table_gates():
    """Planting a change in any single cell — numeric, string or bool,
    label included — is reported as exactly that cell."""
    tables = BASELINE["tables"]
    for index, old in enumerate(tables):
        for r, row in enumerate(old["rows"]):
            for c, cell in enumerate(row):
                planted = copy.deepcopy(old)
                planted["rows"][r][c] = "x" if cell != "x" else "y"
                results = {"tables": tables[:index] + [planted]
                           + tables[index + 1:]}
                (line,) = compare.differences(BASELINE, results)
                assert line.startswith("%s / %s / %s: " % (
                    old["title"], row[0], old["columns"][c]))
