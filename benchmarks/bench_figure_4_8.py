"""Figure 4.8 — Performance of Circus replicated procedure calls.

The figure plots the Table 4.1 measurements against troupe size and shows
every component growing *linearly* — the consequence of simulating
multicast with successive point-to-point sendmsg operations.  This bench
regenerates the series, fits a line, asserts the fit, and renders an
ASCII version of the plot (``repro.bench.echo.figure_4_8``, which
``repro fig48`` prints).
"""

from repro.bench.echo import figure_4_8
from repro.bench.report import register_table


def test_figure_4_8():
    tables, _results = figure_4_8(iterations=30)
    table = tables[0]
    for name, *_ys, slope, r_squared in table.rows:
        # Linear growth with an excellent fit, as the figure shows.
        assert r_squared > 0.98, (name, r_squared)
        assert slope > 0.0
    # The real-time slope is the paper's 10-20 ms per member.
    assert table.rows[0][0] == "real"
    assert 8.0 <= table.rows[0][-2] <= 22.0
    for table in tables:
        register_table(table)
