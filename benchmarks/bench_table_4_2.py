"""Table 4.2 — CPU time for the Berkeley 4.2BSD system calls used in Circus.

The simulation charges these costs by construction (they are the
calibration), so this bench *measures them back* through the accounting
machinery (``repro.bench.echo.table_4_2``, which ``repro table42``
prints) — a self-check that the cost model, the per-syscall profile,
and the clock all agree — and prints them against the paper's column.
"""

import pytest

from repro.bench.echo import PAPER_TABLE_4_2, table_4_2
from repro.bench.report import register_table

REPETITIONS = 100


def test_table_4_2():
    (table,), results = table_4_2(REPETITIONS)
    for name, (cost, proc) in results.items():
        # Clock advance, kernel accounting, and the profile must agree.
        assert cost == pytest.approx(proc.kernel_time / REPETITIONS)
        assert proc.syscall_times[name] == pytest.approx(proc.kernel_time)
        assert proc.syscall_counts[name] == REPETITIONS
        assert cost == pytest.approx(PAPER_TABLE_4_2[name]), name
    register_table(table)
    # The paper's ordering: sendmsg is by far the most expensive.
    measured = {name: cost for name, (cost, _proc) in results.items()}
    assert measured["sendmsg"] == max(measured.values())
    assert measured["sendmsg"] > 2.5 * measured["recvmsg"]
