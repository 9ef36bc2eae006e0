"""Figure 4.8 — Performance of Circus replicated procedure calls.

The figure plots the Table 4.1 measurements against troupe size and shows
every component growing *linearly* — the consequence of simulating
multicast with successive point-to-point sendmsg operations.  This bench
regenerates the series, fits a line, asserts the fit, and renders an
ASCII version of the plot.
"""

import pytest

from repro.bench.echo import linear_fit, run_circus_series
from repro.bench.report import Table, register_table

DEGREES = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def results():
    return run_circus_series(DEGREES, iterations=30)


def sparkline(values, width=40):
    top = max(values)
    return ["%s %6.1f" % ("#" * max(1, int(width * v / top)), v)
            for v in values]


def test_figure_4_8(results):
    xs = list(DEGREES)
    series = {
        "real": [r.real for r in results],
        "total cpu": [r.total for r in results],
        "user cpu": [r.user for r in results],
        "kernel cpu": [r.kernel for r in results],
    }
    table = Table(
        "Figure 4.8: Circus call time vs degree of replication (ms/rpc)",
        ["component", "n=1", "n=2", "n=3", "n=4", "n=5",
         "slope(ms/member)", "R^2"],
        notes="Point-to-point sends make every component linear in troupe "
              "size; compare bench_multicast_logn for the multicast case.")
    for name, ys in series.items():
        slope, _intercept, r_squared = linear_fit(xs, ys)
        table.add_row(name, *ys, slope, r_squared)
        # Linear growth with an excellent fit, as the figure shows.
        assert r_squared > 0.98, (name, r_squared)
        assert slope > 0.0
    register_table(table)

    plot = Table("Figure 4.8 (ASCII): real time per call",
                 ["degree", "bar"])
    for degree, line in zip(DEGREES, sparkline(series["real"])):
        plot.add_row(degree, line)
    register_table(plot)

    # The real-time slope is the paper's 10-20 ms per member.
    slope, _, _ = linear_fit(xs, series["real"])
    assert 8.0 <= slope <= 22.0
