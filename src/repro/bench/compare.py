"""Benchmark-table drift comparison (the BENCH_*.json gate logic).

Used from two front doors with identical semantics:

- ``benchmarks/compare.py`` — the CI entry point, comparing a
  ``--bench-json`` results file against a committed baseline;
- ``repro perf --compare`` — the local one-command equivalent, which
  rebuilds the gated tables in-process and compares them against
  ``BENCH_PERF.json``.

Both baselines hold the ``{"tables": [Table.to_dict(), ...]}`` shape.
Tables are matched by title and rows by their first column (the
workload label); every shared numeric cell gets a delta and can fail
the gate.

The simulation is deterministic, so most columns should match the
baseline exactly; drift means the protocol's behaviour changed, which
is exactly what a PR reviewer wants surfaced.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: title -> (columns, {row_label -> row})
TableIndex = Dict[str, Tuple[List[str], Dict[str, list]]]


def index_payload(payload: dict) -> TableIndex:
    """Index a ``{"tables": [...]}`` payload for comparison."""
    tables: TableIndex = {}
    for table in payload.get("tables", []):
        rows = {str(row[0]): row for row in table.get("rows", []) if row}
        tables[table["title"]] = (table.get("columns", []), rows)
    return tables


def load_tables(path: str) -> TableIndex:
    """Load and index a benchmark JSON file."""
    with open(path) as fh:
        return index_payload(json.load(fh))


def percent_delta(base, new):
    if base == 0:
        return None if new == 0 else float("inf")
    return (new - base) / abs(base) * 100.0


def compare(baseline: TableIndex, results: TableIndex, threshold: float,
            require_all: bool = False):
    """Yield (table, row, column, base, new, delta%) for every shared
    numeric cell; collect regressions past the threshold.

    With ``require_all``, a baseline table or row missing from the
    results is itself a regression (the perf gate uses this so a deleted
    benchmark cannot silently pass)."""
    regressions = []
    lines = []
    for title, (columns, base_rows) in sorted(baseline.items()):
        if title not in results:
            lines.append("MISSING table in results: %s" % title)
            if require_all:
                regressions.append((title, None, None, None, None, None))
            continue
        _new_columns, new_rows = results[title]
        header_shown = False
        for label, base_row in base_rows.items():
            new_row = new_rows.get(label)
            if new_row is None:
                lines.append("  MISSING row %r in %s" % (label, title))
                if require_all:
                    regressions.append((title, label, None, None, None,
                                        None))
                continue
            for i, (b, n) in enumerate(zip(base_row, new_row)):
                if i == 0 or not isinstance(b, (int, float)) \
                        or not isinstance(n, (int, float)) \
                        or isinstance(b, bool):
                    continue
                delta = percent_delta(b, n)
                if delta is None or delta == 0.0:
                    continue
                if not header_shown:
                    lines.append(title)
                    header_shown = True
                column = columns[i] if i < len(columns) else "col%d" % i
                flag = ""
                if threshold and abs(delta) > threshold:
                    flag = "  <-- exceeds %.0f%%" % threshold
                    regressions.append((title, label, column, b, n, delta))
                lines.append("  %-20s %-18s %12g -> %-12g %+8.2f%%%s"
                             % (label, column, b, n, delta, flag))
    for title in sorted(set(results) - set(baseline)):
        lines.append("NEW table (not in baseline): %s" % title)
    return lines, regressions


def run_compare(baseline: TableIndex, results: TableIndex,
                threshold: float, require_all: bool = False,
                baseline_name: str = "baseline") -> int:
    """Print the report and the verdict; returns the exit status."""
    lines, regressions = compare(baseline, results, threshold,
                                 require_all=require_all)
    if lines:
        print("\n".join(lines))
    else:
        print("no deltas: results match the baseline exactly")
    if regressions:
        print("\n%d regression(s) against %s (threshold %.0f%%)"
              % (len(regressions), baseline_name, threshold))
        return 1
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="report per-benchmark deltas against the committed "
                    "baseline")
    parser.add_argument("results", help="a --bench-json output file")
    parser.add_argument("--baseline", default="BENCH_BASELINE.json",
                        help="baseline file (default BENCH_BASELINE.json)")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="fail when any |delta| exceeds this percent "
                             "(default 0: report only)")
    parser.add_argument("--require-all", action="store_true",
                        help="also fail when a baseline table or row is "
                             "missing from the results")
    args = parser.parse_args(argv)
    return run_compare(load_tables(args.baseline), load_tables(args.results),
                       args.threshold, require_all=args.require_all,
                       baseline_name=args.baseline)
