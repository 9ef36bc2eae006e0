"""§4.4.2 — The theoretical analysis: E[T] = H_n * r with multicast.

"Suppose that each T_i is exponentially distributed with mean r.  Then
E[T] = H_n r = r log n + O(r): the expected time per call increases only
logarithmically with the size of the troupe", versus linearly when
multicast is simulated by repeated sends.

The experiment: a troupe whose members' execution times are iid
exponential with mean r; the client waits for all members (unanimous).
With hardware multicast and negligible protocol cost, the measured mean
call time should track H_n * r; with point-to-point simulation of
multicast it grows linearly because each sendmsg serializes.
"""

import pytest

from repro.analysis import expected_max_exponential, harmonic
from repro.bench.report import Table, register_table
from repro.bench.echo import linear_fit
from repro.core.runtime import ExportedModule, RuntimeConfig
from repro.harness import World
from repro.host.syscalls import SyscallCostModel, TABLE_4_2_COSTS
from repro.pairedmsg.endpoint import PairedMessageConfig
from repro.sim import Sleep
from repro.sim.rng import RandomStream

ROUND_TRIP_MEAN = 50.0   # ms: r, the exponential round-trip mean
CALLS = 120
DEGREES = (1, 2, 4, 8, 16)


def run_multicast_calls(degree: int, use_multicast: bool,
                        calls: int = CALLS, seed: int = 7,
                        cheap_syscalls: bool = True) -> float:
    """Mean call time to a troupe with exponential member service times.

    With ``cheap_syscalls`` the protocol CPU is negligible, as the §4.4.2
    model assumes ("an efficient multicast implementation"); without it,
    the Table 4.2 sendmsg cost applies and the Circus-style linear term
    reappears.
    """
    scale = 0.001 if cheap_syscalls else 1.0
    cost_model = SyscallCostModel(TABLE_4_2_COSTS, scale=scale)
    paired = PairedMessageConfig(retransmit_interval=3000.0,
                                 probe_interval=6000.0,
                                 crash_timeout=30000.0,
                                 user_cost_send=0.0, user_cost_receive=0.0)
    world = World(machines=degree + 1, seed=seed,
                  runtime_config=RuntimeConfig(use_multicast=use_multicast,
                                               paired=paired),
                  cost_model=cost_model)
    member_index = [0]

    def factory():
        rng = RandomStream(seed, "service-%d" % member_index[0])
        member_index[0] += 1

        def serve(ctx, args):
            yield Sleep(rng.expovariate(1.0 / ROUND_TRIP_MEAN))
            return b"done"
        return ExportedModule("expsvc", {0: serve})

    troupe, _ = world.make_troupe("expsvc", factory, degree=degree)
    client = world.make_client()

    def body():
        start = world.sim.now
        for _ in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"")
        return (world.sim.now - start) / calls

    return world.run(body())


@pytest.fixture(scope="module")
def measured():
    multicast = {n: run_multicast_calls(n, use_multicast=True)
                 for n in DEGREES}
    # The point-to-point runs pay the full Table 4.2 sendmsg cost — the
    # "two orders of magnitude slower than the network" argument that
    # makes Circus linear (§4.4.2).
    point_to_point = {n: run_multicast_calls(n, use_multicast=False,
                                             calls=40,
                                             cheap_syscalls=False)
                      for n in DEGREES}
    return multicast, point_to_point


def test_multicast_expected_time_is_harmonic(measured):
    multicast, point_to_point = measured
    table = Table(
        "Sec 4.4.2: multicast call time vs H_n * r (r = %.0f ms)"
        % ROUND_TRIP_MEAN,
        ["degree", "H_n*r (theory)", "multicast (sim)", "ratio",
         "point-to-point (sim)"],
        notes="Theory: E[T] = H_n * r (Theorem 4.3). Multicast grows like "
              "log n; simulating multicast by repeated sends grows "
              "linearly (the Circus measurement).")
    for degree in DEGREES:
        theory = expected_max_exponential(degree, ROUND_TRIP_MEAN)
        sim = multicast[degree]
        ratio = sim / theory
        table.add_row(degree, theory, sim, ratio, point_to_point[degree])
        # Within sampling tolerance of the closed form.
        assert 0.8 < ratio < 1.25, (degree, ratio)
    register_table(table)

    # Logarithmic vs linear growth: going 1 -> 16 members multiplies the
    # multicast time by about H_16 ~ 3.4, far below 16.
    growth = multicast[16] / multicast[1]
    assert growth < 6.0
    assert growth == pytest.approx(harmonic(16), rel=0.3)


def test_point_to_point_grows_linearly(measured):
    _multicast, point_to_point = measured
    xs = list(DEGREES)
    ys = [point_to_point[n] for n in xs]
    slope, _intercept, r_squared = linear_fit(xs, ys)
    # The waiting component H_n*r is concave, but the per-member
    # serialized sends add a dominant linear term; check super-harmonic
    # growth relative to the multicast case.
    assert ys[-1] / ys[0] > (harmonic(16) * 1.2)
