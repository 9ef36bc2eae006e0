"""The §4.4.1 echo experiments: UDP, TCP, and Circus replicated calls.

The experimental setup mirrors the paper's: "six identically configured
VAX-11/750 systems, connected by a single 10 megabit per second Ethernet
cable", lightly loaded.  The client measures the time of day and its
user/kernel CPU time around a loop of echo calls (Figures 4.5-4.7) and
reports milliseconds per call.

The measured quantities come from the simulated process's CPU accounting,
which is charged by the Table 4.2 syscall cost model — so these workloads
reproduce the *shape* of Table 4.1: TCP faster than UDP under the
streamlined read/write interface, an unreplicated Circus call roughly
twice a raw UDP exchange, and a 10-20 ms increment per additional troupe
member (Figure 4.8's linear growth).

:func:`table_4_1`, :func:`table_4_2`, :func:`table_4_3` and
:func:`figure_4_8` build the tables that ``repro table41`` (and the rest)
prints and the ``benchmarks/`` suite gates.  Each returns ``(tables,
results)``: the results are what the suite's shape assertions read.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.bench.report import Table
from repro.core.runtime import ExportedModule, RuntimeConfig
from repro.harness import World
from repro.net.tcp import TcpListener, TcpSocket

#: the troupe sizes of Table 4.1, Table 4.3 and Figure 4.8.
DEGREES = (1, 2, 3, 4, 5)


#: Table 4.1 of the paper (milliseconds per call).
PAPER_TABLE_4_1 = {
    "UDP": {"real": 26.5, "total": 13.3, "user": 0.8, "kernel": 12.4},
    "TCP": {"real": 23.2, "total": 8.3, "user": 0.5, "kernel": 7.8},
    1: {"real": 48.0, "total": 24.1, "user": 5.9, "kernel": 18.2},
    2: {"real": 58.0, "total": 45.2, "user": 10.0, "kernel": 35.2},
    3: {"real": 69.4, "total": 66.8, "user": 13.0, "kernel": 53.8},
    4: {"real": 90.2, "total": 87.2, "user": 16.8, "kernel": 70.4},
    5: {"real": 109.5, "total": 107.2, "user": 21.0, "kernel": 86.1},
}

#: Table 4.2 of the paper (CPU ms per system call).
PAPER_TABLE_4_2 = {
    "sendmsg": 8.1,
    "recvmsg": 2.8,
    "select": 1.8,
    "setitimer": 1.2,
    "gettimeofday": 0.7,
    "sigblock": 0.4,
}

#: Table 4.3 of the paper (% of total CPU per syscall, by degree).
PAPER_TABLE_4_3 = {
    1: {"sendmsg": 27.2, "select": 11.2, "recvmsg": 9.2},
    2: {"sendmsg": 28.8, "select": 12.7, "recvmsg": 10.6},
    3: {"sendmsg": 32.5, "select": 11.7, "recvmsg": 11.9},
    4: {"sendmsg": 32.9, "select": 10.3, "recvmsg": 10.7},
    5: {"sendmsg": 33.0, "select": 9.9, "recvmsg": 11.1},
}


@dataclasses.dataclass
class EchoResult:
    """Per-call averages over the measurement loop (ms/rpc)."""

    label: str
    iterations: int
    real: float
    user: float
    kernel: float
    #: kernel CPU per syscall name, for the Table 4.3 profile.
    profile: Dict[str, float] = dataclasses.field(default_factory=dict)
    user_total: float = 0.0

    @property
    def total(self) -> float:
        return self.user + self.kernel

    def profile_percentages(self) -> Dict[str, float]:
        total = (sum(self.profile.values()) + self.user_total) or 1.0
        return {name: 100.0 * ms / total
                for name, ms in self.profile.items()}


ECHO_PAYLOAD = b"x" * 64


def run_udp_echo(iterations: int = 50, seed: int = 0) -> EchoResult:
    """Figure 4.5: sendmsg / alarm / recvmsg / alarm against an echo
    server — the lower bound for any datagram-based RPC."""
    world = World(machines=2, seed=seed)
    client_proc = world.machines[0].spawn_process("udp-client")
    server_proc = world.machines[1].spawn_process("udp-server")
    client_sock = client_proc.udp_socket()
    server_sock = server_proc.udp_socket(700)

    def server():
        while True:
            datagram = yield from server_proc.recvmsg(server_sock)
            yield from server_proc.sendmsg(server_sock, datagram.payload,
                                           datagram.src)

    world.sim.spawn(server(), name="udp-server", daemon=True)

    def client():
        start_real = world.sim.now
        start_user, start_kernel = client_proc.user_time, client_proc.kernel_time
        for _ in range(iterations):
            yield from client_proc.sendmsg(client_sock, ECHO_PAYLOAD,
                                           server_sock.addr)
            yield client_proc.charge("setitimer")        # alarm(timeout)
            yield from client_proc.recvmsg(client_sock)
            yield client_proc.charge("setitimer")        # alarm(0)
            yield from client_proc.compute(0.8)           # loop body
        return (world.sim.now - start_real,
                client_proc.user_time - start_user,
                client_proc.kernel_time - start_kernel)

    real, user, kernel = world.run(client(), name="udp-client")
    return EchoResult("UDP", iterations, real / iterations,
                      user / iterations, kernel / iterations)


def run_tcp_echo(iterations: int = 50, seed: int = 0) -> EchoResult:
    """Figure 4.6: one connection, then a write/read loop.  The
    streamlined read/write interface (no scatter/gather copying) makes
    this *faster* than the UDP test, as the paper found."""
    world = World(machines=2, seed=seed)
    client_proc = world.machines[0].spawn_process("tcp-client")
    server_proc = world.machines[1].spawn_process("tcp-server")
    listener = TcpListener(world.net, world.machines[1].name, 700)

    def server():
        conn = yield listener.accept()
        while True:
            msg = yield from conn.receive()
            yield server_proc.charge("read")
            yield server_proc.charge("write")
            yield from conn.send(msg)

    world.sim.spawn(server(), name="tcp-server", daemon=True)

    def client():
        sock = TcpSocket(world.net, world.machines[0].name)
        yield from sock.connect(listener.addr)
        start_real = world.sim.now
        start_user, start_kernel = client_proc.user_time, client_proc.kernel_time
        for _ in range(iterations):
            yield client_proc.charge("write")
            yield from sock.send(ECHO_PAYLOAD)
            yield from sock.receive()
            yield client_proc.charge("read")
            yield from client_proc.compute(0.5)
        result = (world.sim.now - start_real,
                  client_proc.user_time - start_user,
                  client_proc.kernel_time - start_kernel)
        sock.close()
        return result

    real, user, kernel = world.run(client(), name="tcp-client")
    return EchoResult("TCP", iterations, real / iterations,
                      user / iterations, kernel / iterations)


def run_circus_echo(degree: int, iterations: int = 50,
                    seed: int = 0) -> EchoResult:
    """Figure 4.7: the rpctest echo interface served by a troupe of the
    given degree, called through the full Circus stack."""
    from repro.pairedmsg.endpoint import PairedMessageConfig
    # A retransmission interval comfortably above the longest per-call
    # time, so steady-state implicit acknowledgment works as §4.2.2
    # intends (an interval shorter than the call loop makes every return
    # retransmit and ack explicitly, which the real system avoided).
    paired = PairedMessageConfig(retransmit_interval=500.0,
                                 probe_interval=1500.0,
                                 crash_timeout=8000.0)
    world = World(machines=degree + 1, seed=seed,
                  runtime_config=RuntimeConfig(paired=paired))

    def echo_module():
        def echo(ctx, args):
            yield from ctx.compute(1.0)   # result := argument
            return args
        return ExportedModule("rpctest", {0: echo})

    troupe, _runtimes = world.make_troupe("rpctest", echo_module,
                                          degree=degree)
    client = world.make_client()
    proc = client.process

    def body():
        # Warm-up call (binding, first-exchange effects), then measure.
        yield from client.call_troupe(troupe, 0, 0, ECHO_PAYLOAD)
        start_real = world.sim.now
        start_user, start_kernel = proc.user_time, proc.kernel_time
        start_profile = dict(proc.syscall_times)
        for _ in range(iterations):
            yield from client.call_troupe(troupe, 0, 0, ECHO_PAYLOAD)
        profile = {
            name: (ms - start_profile.get(name, 0.0)) / iterations
            for name, ms in proc.syscall_times.items()
            if ms - start_profile.get(name, 0.0) > 0.0}
        return (world.sim.now - start_real,
                proc.user_time - start_user,
                proc.kernel_time - start_kernel,
                profile)

    real, user, kernel, profile = world.run(body(), name="circus-client")
    return EchoResult("Circus(%d)" % degree, iterations,
                      real / iterations, user / iterations,
                      kernel / iterations, profile=profile,
                      user_total=user / iterations)


def run_circus_series(iterations: int) -> List[EchoResult]:
    return [run_circus_echo(degree, iterations) for degree in DEGREES]


def linear_fit(xs: List[float], ys: List[float]):
    """Least-squares slope, intercept, and R^2 (for Figure 4.8's
    linear-growth claim)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2
                 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys) or 1.0
    return slope, intercept, 1.0 - ss_res / ss_tot


def table_4_1(iterations: int = 40):
    """Table 4.1 at ``iterations`` calls per workload; the results are
    keyed ``"UDP"``, ``"TCP"`` and by Circus degree."""
    results = {"UDP": run_udp_echo(iterations),
               "TCP": run_tcp_echo(iterations)}
    results.update(zip(DEGREES, run_circus_series(iterations)))
    table = Table(
        "Table 4.1: Performance of UDP, TCP, and Circus (ms/rpc)",
        ["workload", "real(paper)", "real(sim)", "total(paper)",
         "total(sim)", "user(paper)", "user(sim)", "kernel(paper)",
         "kernel(sim)"],
        notes=("Simulated hosts charge the Table 4.2 syscall costs; "
               "absolute agreement is calibration, the claims under test "
               "are the orderings and the per-member increment."))
    for key, sim in results.items():
        paper = PAPER_TABLE_4_1[key]
        table.add_row(sim.label, paper["real"], sim.real, paper["total"],
                      sim.total, paper["user"], sim.user,
                      paper["kernel"], sim.kernel)
    return [table], results


def table_4_2(repetitions: int = 100):
    """Table 4.2, each syscall measured back over ``repetitions`` calls
    on a fresh host; the results map each syscall to ``(ms per call,
    the process that made the calls)``, whose kernel accounting and
    profile must agree with the clock."""
    table = Table(
        "Table 4.2: CPU time for 4.2BSD system calls used in Circus (ms)",
        ["syscall", "paper", "simulated"],
        notes="These costs are the calibration inputs of the whole "
              "reproduction (see DESIGN.md).")
    results = {}
    for name, paper_cost in PAPER_TABLE_4_2.items():
        world = World(machines=1)
        proc = world.machines[0].spawn_process("measure")

        def body():
            start = world.sim.now
            for _ in range(repetitions):
                yield proc.charge(name)
            return (world.sim.now - start) / repetitions

        results[name] = (world.run(body()), proc)
        table.add_row(name, paper_cost, results[name][0])
    return [table], results


def table_4_3(iterations: int = 30):
    """Table 4.3 from a Circus series of ``iterations`` calls per
    degree; the results are the series."""
    results = run_circus_series(iterations)
    table = Table(
        "Table 4.3: Execution profile (% of total CPU per call)",
        ["degree", "sendmsg(paper)", "sendmsg(sim)", "select(paper)",
         "select(sim)", "recvmsg(paper)", "recvmsg(sim)", "six-calls(sim)"],
        notes="six-calls(sim): share of total CPU spent in the six "
              "Table 4.2 syscalls; the paper reports 'more than half'.")
    for degree, result in zip(DEGREES, results):
        pcts = result.profile_percentages()
        paper = PAPER_TABLE_4_3[degree]
        table.add_row(degree, paper["sendmsg"], pcts.get("sendmsg", 0.0),
                      paper["select"], pcts.get("select", 0.0),
                      paper["recvmsg"], pcts.get("recvmsg", 0.0),
                      sum(pcts.get(name, 0.0) for name in PAPER_TABLE_4_2))
    return [table], results


def figure_4_8(iterations: int = 30):
    """Figure 4.8 from a Circus series of ``iterations`` calls per
    degree: each component against troupe size with its linear fit, then
    an ASCII plot of the real time; the results are the series."""
    results = run_circus_series(iterations)
    table = Table(
        "Figure 4.8: Circus call time vs degree of replication (ms/rpc)",
        ["component", "n=1", "n=2", "n=3", "n=4", "n=5",
         "slope(ms/member)", "R^2"],
        notes="Point-to-point sends make every component linear in troupe "
              "size; compare bench_multicast_logn for the multicast case.")
    for name, attr in (("real", "real"), ("total cpu", "total"),
                       ("user cpu", "user"), ("kernel cpu", "kernel")):
        ys = [getattr(result, attr) for result in results]
        slope, _intercept, r_squared = linear_fit(DEGREES, ys)
        table.add_row(name, *ys, slope, r_squared)
    plot = Table("Figure 4.8 (ASCII): real time per call",
                 ["degree", "bar"])
    top = max(result.real for result in results)
    for degree, result in zip(DEGREES, results):
        plot.add_row(degree, "%s %6.1f" % (
            "#" * max(1, int(40 * result.real / top)), result.real))
    return [table, plot], results
