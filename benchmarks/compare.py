"""The benchmark gate: a ``--bench-json`` run must equal the committed
``BENCH_BASELINE.json`` in every cell.

    PYTHONPATH=src python -m pytest benchmarks/ --bench-json=BENCH_RESULTS.json
    python benchmarks/compare.py BENCH_RESULTS.json

Every cell of every table is a virtual-time reading, a count of
simulated work or a seeded outcome, so it is the same on every machine
and every run.  Tables are matched by title and rows by position.  Any
changed cell (number, string or bool) fails, and so does a missing or
extra table, row or column; each difference prints one line,
``title / row label / column: old -> new``, and the exit status is 1.
``notes`` are prose and are not compared.

A change that moves a cell on purpose regenerates the baseline with
``pytest benchmarks/ --bench-json=BENCH_BASELINE.json`` and says which
cells moved and why.
"""

import argparse
import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_BASELINE.json")


def _text(value):
    # Cells compare as their JSON text: 1, 1.0 and true differ.
    return json.dumps(value)


def _table_differences(title, old, new):
    if old["columns"] != new["columns"]:
        yield "%s / columns: %s -> %s" % (title, _text(old["columns"]),
                                          _text(new["columns"]))
        return
    old_rows, new_rows = old["rows"], new["rows"]
    for old_row, new_row in zip(old_rows, new_rows):
        for column, a, b in zip(old["columns"], old_row, new_row):
            if _text(a) != _text(b):
                yield "%s / %s / %s: %s -> %s" % (title, old_row[0], column,
                                                  _text(a), _text(b))
    for row in old_rows[len(new_rows):]:
        yield "%s / %s: missing row" % (title, row[0])
    for row in new_rows[len(old_rows):]:
        yield "%s / %s: extra row" % (title, row[0])


def differences(baseline, results):
    """One line per difference between two ``{"tables": [...]}``
    payloads; none when they agree in every cell."""
    old = {table["title"]: table for table in baseline["tables"]}
    new = {table["title"]: table for table in results["tables"]}
    lines = []
    for title in sorted(old.keys() | new.keys()):
        if title not in new:
            lines.append("%s: missing table" % title)
        elif title not in old:
            lines.append("%s: extra table" % title)
        else:
            lines.extend(_table_differences(title, old[title], new[title]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail unless a --bench-json run equals "
                    "BENCH_BASELINE.json in every cell")
    parser.add_argument("results", help="a --bench-json output file")
    args = parser.parse_args(argv)
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    with open(args.results) as fh:
        results = json.load(fh)
    lines = differences(baseline, results)
    if not lines:
        print("no deltas: every table matches BENCH_BASELINE.json exactly")
        return 0
    print("\n".join(lines))
    print("\n%d difference(s) from BENCH_BASELINE.json" % len(lines))
    return 1


if __name__ == "__main__":
    sys.exit(main())
