"""Tier-1 runs the deterministic perf gate (``repro.bench.gated``
against the committed ``BENCH_PERF.json``) and pins ``repro perf``."""

import json
import os

from repro.bench.compare import compare, index_payload, load_tables
from repro.bench.gated import GATED_TABLES, all_gated_tables
from repro.cli import main

BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_PERF.json")


def test_specs_describe_the_committed_baseline():
    with open(BASELINE) as fh:
        committed = json.load(fh)["tables"]
    assert [spec.title for spec in GATED_TABLES] == \
        [table["title"] for table in committed]
    for spec, table in zip(GATED_TABLES, committed):
        assert list(spec.columns) == table["columns"], spec.title
        assert len(spec.formats) == len(spec.columns), spec.title
        assert spec.labels() == [row[0] for row in table["rows"]], spec.title


def test_gated_tables_match_the_committed_baseline():
    results = index_payload(
        {"tables": [table.to_dict() for table in all_gated_tables()]})
    lines, regressions = compare(load_tables(BASELINE), results,
                                 threshold=5, require_all=True)
    assert not regressions, "\n".join(lines)


def test_perf_json_is_byte_identical_and_reads_no_wall_clock(capsys):
    def run():
        assert main(["perf", "--iterations", "20", "--json"]) == 0
        return capsys.readouterr().out

    first = run()
    assert first == run()
    payload = json.loads(first)
    assert sorted(payload) == ["build", "schema_version", "tables"]
    names = list(payload)
    for table in payload["tables"]:
        names += list(table) + [table["title"]] + table["columns"]
    for name in names:
        assert not any(word in name for word in ("wall", "/sec", "speedup"))
