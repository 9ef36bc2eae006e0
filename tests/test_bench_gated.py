"""Tier-1 holds the deterministic work tables (``repro.bench.gated``) to
their rows of the committed ``BENCH_BASELINE.json`` through the gate
``benchmarks/compare.py`` applies, and pins ``repro perf``."""

import collections
import json

from benchmarks import compare
from repro.bench import gated, scenarios
from repro.bench.gated import GATED_TABLES, all_gated_tables
from repro.cli import main


def _committed():
    with open(compare.BASELINE) as fh:
        return {table["title"]: table for table in json.load(fh)["tables"]}


def test_specs_describe_the_committed_baseline():
    committed = _committed()
    for spec in GATED_TABLES:
        table = committed[spec.title]
        assert list(spec.columns) == table["columns"], spec.title
        assert len(spec.formats) == len(spec.columns), spec.title
        assert spec.labels() == [row[0] for row in table["rows"]], spec.title


def test_gated_tables_match_the_committed_baseline():
    committed = _committed()
    built = [table.to_dict() for table in all_gated_tables()]
    baseline = [committed[table["title"]] for table in built]
    lines = compare.differences({"tables": baseline}, {"tables": built})
    assert not lines, "\n".join(lines)


def test_one_gated_build_simulates_each_deterministic_world_once(
        monkeypatch):
    built = collections.Counter()

    def counted(name, make):
        def build(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)
        return build

    monkeypatch.setattr(scenarios, "circus",
                        counted("circus", scenarios.circus))
    monkeypatch.setattr(gated, "lossy_transfer_metrics",
                        counted("pm-loss15", gated.lossy_transfer_metrics))
    all_gated_tables(20)
    # One unobserved circus world, read by five tables, and the two the
    # observability table observes; one pm-loss15 world for two tables.
    assert built == {"circus": 3, "pm-loss15": 1}


def test_perf_json_is_byte_identical_and_reads_no_wall_clock(capsys):
    def run():
        assert main(["perf", "--iterations", "20", "--json"]) == 0
        return capsys.readouterr().out

    first = run()
    assert first == run()
    payload = json.loads(first)
    assert sorted(payload) == ["schema_version", "tables"]
    names = list(payload)
    for table in payload["tables"]:
        names += list(table) + [table["title"]] + table["columns"]
    for name in names:
        assert not any(word in name for word in ("wall", "/sec", "speedup"))
