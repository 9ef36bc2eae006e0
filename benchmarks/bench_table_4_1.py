"""Table 4.1 — Performance of UDP, TCP, and Circus (ms per call).

Regenerates the paper's table (``repro.bench.echo.table_4_1``, which
``repro table41`` prints): the UDP echo lower bound, the TCP echo
baseline, and Circus replicated procedure calls at degrees 1-5, reporting
real time, total/user/kernel CPU time per call.

Shape claims verified:
- TCP total CPU < UDP total CPU (the read/write interface is leaner than
  scatter/gather sendmsg/recvmsg);
- Circus(1) costs roughly twice a raw UDP exchange;
- each extra troupe member adds 10-20 ms of real time per call.
"""

from repro.bench.echo import DEGREES, table_4_1
from repro.bench.report import register_table

ITERATIONS = 40


def test_table_4_1():
    (table,), results = table_4_1(ITERATIONS)
    register_table(table)

    udp, tcp = results["UDP"], results["TCP"]
    # TCP echo beats UDP echo on CPU and real time, as in the paper.
    assert tcp.total < udp.total
    assert tcp.real < udp.real
    # An unreplicated Circus call costs roughly twice a UDP exchange.
    circus1 = results[1]
    assert 1.3 * udp.total < circus1.total < 2.5 * udp.total
    assert 1.2 * udp.real < circus1.real < 2.5 * udp.real
    # Each additional member adds 10-20 ms of real time (§4.4.1).
    for degree in (2, 3, 4, 5):
        increment = results[degree].real - results[degree - 1].real
        assert 8.0 <= increment <= 22.0, (degree, increment)
    # All components increase monotonically with troupe size.
    for metric in ("real", "user", "kernel"):
        series = [getattr(results[d], metric) for d in DEGREES]
        assert series == sorted(series)
