"""Table 4.1 — Performance of UDP, TCP, and Circus (ms per call).

Regenerates the paper's table: the UDP echo lower bound, the TCP echo
baseline, and Circus replicated procedure calls at degrees 1-5, reporting
real time, total/user/kernel CPU time per call.

Shape claims verified:
- TCP total CPU < UDP total CPU (the read/write interface is leaner than
  scatter/gather sendmsg/recvmsg);
- Circus(1) costs roughly twice a raw UDP exchange;
- each extra troupe member adds 10-20 ms of real time per call.
"""

import pytest

from repro.bench.echo import (
    PAPER_TABLE_4_1,
    run_circus_series,
    run_tcp_echo,
    run_udp_echo,
)
from repro.bench.report import Table, register_table

ITERATIONS = 40
DEGREES = (1, 2, 3, 4, 5)


def run_table_4_1():
    rows = {"UDP": run_udp_echo(ITERATIONS), "TCP": run_tcp_echo(ITERATIONS)}
    for result in run_circus_series(DEGREES, ITERATIONS):
        degree = int(result.label[len("Circus("):-1])
        rows[degree] = result
    return rows


@pytest.fixture(scope="module")
def results():
    return run_table_4_1()


def test_table_4_1(results):
    table = Table(
        "Table 4.1: Performance of UDP, TCP, and Circus (ms/rpc)",
        ["workload", "real(paper)", "real(sim)", "total(paper)",
         "total(sim)", "user(paper)", "user(sim)", "kernel(paper)",
         "kernel(sim)"],
        notes=("Simulated hosts charge the Table 4.2 syscall costs; "
               "absolute agreement is calibration, the claims under test "
               "are the orderings and the per-member increment."))
    for key in ["UDP", "TCP", 1, 2, 3, 4, 5]:
        paper = PAPER_TABLE_4_1[key]
        sim = results[key]
        label = key if isinstance(key, str) else "Circus(%d)" % key
        table.add_row(label, paper["real"], sim.real, paper["total"],
                      sim.total, paper["user"], sim.user,
                      paper["kernel"], sim.kernel)
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
