"""Table 4.3 — Execution profile for Circus replicated procedure calls.

The paper profiled the client and found six system calls account for more
than half of total CPU, with sendmsg the largest consumer (27-33%) —
"most of the time ... is spent in the simulation of multicasting by means
of successive sendmsg operations."  This bench reruns the echo workload
with the per-syscall accounting enabled and reports the same percentages
(``repro.bench.echo.table_4_3``, which ``repro table43`` prints).
"""

from repro.bench.echo import table_4_3
from repro.bench.report import register_table


def test_table_4_3():
    (table,), results = table_4_3(iterations=30)
    for row, result in zip(table.rows, results):
        pcts = result.profile_percentages()
        # The headline findings of §4.4.1:
        # 1. sendmsg is the single largest consumer;
        assert pcts["sendmsg"] == max(pcts.values())
        # 2. in the paper's ballpark (a quarter to a half of all CPU);
        assert 20.0 <= pcts["sendmsg"] <= 50.0
        # 3. the six profiled syscalls account for more than half.
        assert row[-1] > 50.0
    register_table(table)
