"""Benchmark-suite plumbing: print every registered paper-vs-measured
table in the terminal summary, so the reproduction's rows appear in the
output of ``pytest benchmarks/``, and write the same tables as
machine-readable JSON (``--bench-json=PATH``, sorted by title) — the
file ``benchmarks/compare.py`` holds to ``BENCH_BASELINE.json``."""

import json

from repro.bench.report import registered_tables


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", action="store", default="BENCH_RESULTS.json",
        metavar="PATH",
        help="write registered benchmark tables as JSON to PATH "
             "(default: %(default)s; empty string disables)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = registered_tables()
    if not tables:
        return
    write = terminalreporter.write_line
    write("")
    write("################################################################")
    write("# Reproduction results: paper values vs this simulation        #")
    write("################################################################")
    for table in tables:
        for line in table.render().splitlines():
            write(line)
    write("")
    path = config.getoption("--bench-json")
    if path:
        with open(path, "w") as fh:
            json.dump({"tables": [t.to_dict() for t in tables]}, fh,
                      indent=2)
            fh.write("\n")
        write("benchmark tables written to %s" % path)
