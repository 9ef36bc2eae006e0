"""Extension — troupe capacity under open-loop load.

Not a table from the paper: the dissertation measures closed-loop latency
only and lists performance evaluation of alternatives as future work
(§8.2).  This bench characterizes what a 1985 reviewer would have asked
next: how does a replicated service behave as offered load rises?  The
syscall cost model bounds a member's service capacity (a call costs
~15 ms of server CPU), so latency should stay flat well below saturation
and grow sharply near it.

The sweep is fixed — 120 Poisson arrivals per rate, enough samples for a
stable tail estimate (a 30-call sweep made the p99 column a coin flip) —
because its table is gated exactly against ``BENCH_BASELINE.json``.  A
sweep at other loads, call counts or arrival processes calls
``repro.bench.workloads.run_load_sweep`` directly.
"""

import pytest

from repro.bench.report import Table, register_table
from repro.bench.workloads import run_load_sweep

RATES = [5.0, 20.0, 40.0, 80.0]   # calls/second offered
TOTAL_CALLS = 120
ARRIVAL = "poisson"
DEGREE = 3


@pytest.fixture(scope="module")
def sweep():
    return run_load_sweep(RATES, degree=DEGREE, total_calls=TOTAL_CALLS,
                          arrival=ARRIVAL)


def test_capacity_sweep(sweep):
    table = Table(
        "Extension: open-loop load sweep (3-member troupe)",
        ["offered calls/s", "throughput calls/s", "mean latency ms",
         "p90 latency ms", "p99 latency ms"],
        notes="Closed-loop measurements (Table 4.1) hide queueing; this "
              "sweep shows the latency knee as offered load approaches "
              "the per-member CPU capacity.  %d %s-arrival calls per "
              "rate." % (TOTAL_CALLS, ARRIVAL))
    for result in sweep:
        table.add_row(result.offered_rate, result.throughput,
                      result.mean_latency, result.percentile_latency(0.9),
                      result.percentile_latency(0.99))
    register_table(table)

    latencies = [r.mean_latency for r in sweep]
    # Low-load latency is near the closed-loop per-call time...
    assert latencies[0] < 120.0
    # ...and latency grows monotonically toward saturation.
    assert latencies[-1] > 1.5 * latencies[0]
    # Throughput is monotone non-decreasing until saturation.
    throughputs = [r.throughput for r in sweep]
    assert throughputs[1] > throughputs[0]
