"""Fault-injection tests for the paired message protocol.

The §2.2 network assumptions are adversarial — loss, duplication, delay,
crashes, partitions can strike at any point of an exchange.  These tests
aim failures at specific protocol moments and check the §4.2 guarantees:
exactly-once delivery to the application, correct reassembly, and
eventual crash detection.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.explore.driver import ScheduleDriver
from repro.explore.schedule import FaultSchedule, Partition
from repro.pairedmsg import (
    PairedEndpoint,
    PairedMessageConfig,
    PeerCrashed,
)
from repro.sim import Sleep
from tests.pairedmsg.test_endpoint import make_world


def counting_server(endpoint, served):
    def body():
        while True:
            msg = yield from endpoint.next_call()
            served.append((msg.call_number, msg.data))
            yield from endpoint.send_return(msg.peer, msg.call_number,
                                            b"r:" + msg.data)
    return body


def test_partition_mid_call_recovers_after_heal():
    """A partition opens after the call is sent; once it heals,
    retransmission completes the exchange."""
    sim, net, machines, (cp, sp) = make_world()
    config = PairedMessageConfig(crash_timeout=5000.0)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)

    net.partition([{"m0"}, {"m1"}])
    sim.schedule(400.0, net.heal)

    def body():
        reply = yield from client.call(server.addr, 1, b"through")
        return reply, sim.now

    reply, when = sim.run_process(body())
    assert reply == b"r:through"
    assert when > 400.0
    assert served == [(1, b"through")]


def test_crash_mid_multisegment_receive():
    """The server crashes after receiving some segments of a large call;
    the client detects the crash instead of waiting forever."""
    sim, net, machines, (cp, sp) = make_world(latency=5.0)
    config = PairedMessageConfig(max_segment_data=256, crash_timeout=600.0,
                                 probe_interval=100.0)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)
    big = b"z" * 2048  # 8 segments
    # Crash while the segments are in flight.
    sim.schedule(12.0, machines[1].crash)

    def body():
        yield from client.send_call(server.addr, 1, big)
        try:
            yield from client.wait_return(server.addr, 1)
        except PeerCrashed:
            return "detected"

    assert sim.run_process(body()) == "detected"
    assert served == []  # never fully assembled


def test_server_restart_does_not_resurrect_old_exchange():
    """A crashed-and-restarted server has lost all volatile protocol
    state (fail-stop, §3.5.1); the old call is not half-delivered."""
    sim, net, machines, (cp, sp) = make_world()
    config = PairedMessageConfig(max_segment_data=256, crash_timeout=400.0,
                                 probe_interval=100.0, max_retries=3,
                                 retransmit_interval=50.0)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)
    sim.schedule(1.0, machines[1].crash)

    def body():
        yield from client.send_call(server.addr, 1, b"x" * 1000)
        try:
            yield from client.wait_return(server.addr, 1)
            return "returned"
        except PeerCrashed:
            pass
        # The machine restarts with a fresh server process/endpoint.
        machines[1].restart()
        new_proc = machines[1].spawn_process()
        new_server = PairedEndpoint(new_proc, port=500, config=config)
        new_served = []
        new_proc.spawn(counting_server(new_server, new_served)(),
                       daemon=True)
        reply = yield from client.call(server.addr, 2, b"fresh")
        return reply, new_served

    reply, new_served = sim.run_process(body())
    assert reply == b"r:fresh"
    assert new_served == [(2, b"fresh")]
    assert served == []


def test_client_crash_stops_server_retransmissions():
    """The client crashes after its call is served; the server's return
    transfer gives up after max_retries instead of retrying forever."""
    sim, net, machines, (cp, sp) = make_world()
    config = PairedMessageConfig(retransmit_interval=20.0, max_retries=4)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)

    def client_body():
        yield from client.send_call(server.addr, 1, b"bye")
        # Crash before consuming the return.
        machines[0].crash()

    sim.spawn(client_body(), name="client")
    sim.run(until=5000.0)
    assert served == [(1, b"bye")]
    # No outstanding transfers remain at the server.
    assert server._sends == {}


def _partition_heal_run(install_faults):
    """One client/server exchange under a partition that heals at
    t=430; ``install_faults`` decides how the partition is injected."""
    sim, net, machines, (cp, sp) = make_world()
    config = PairedMessageConfig(crash_timeout=5000.0)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)
    cleanup = install_faults(sim, net, machines)

    def body():
        reply = yield from client.call(server.addr, 1, b"through")
        when = sim.now
        yield Sleep(100.0)  # let stray retransmissions drain identically
        return reply, when

    reply, when = sim.run_process(body())
    cleanup()
    counters = (net.packets_sent, net.packets_delivered,
                net.packets_dropped, net.packets_duplicated)
    return reply, when, list(served), counters


def test_schedule_driver_agrees_with_ad_hoc_partition_then_heal():
    """The explorer's ScheduleDriver and the long-standing ad-hoc
    ``net.partition``/``sim.schedule(heal)`` idiom inject the *same*
    fault: identical replies, served lists, and packet counters."""
    def ad_hoc(sim, net, machines):
        net.partition([("m0",), ("m1",)])
        sim.schedule(430.0, net.heal)
        return lambda: None

    def driven(sim, net, machines):
        schedule = FaultSchedule(
            scenario="pairs", seed=0, horizon=1000.0,
            actions=(Partition(at=0.0, duration=430.0,
                               groups=(("m0",), ("m1",))),))
        driver = ScheduleDriver(sim, machines, net, schedule)
        driver.start()
        return driver.stop

    baseline = _partition_heal_run(ad_hoc)
    driven_run = _partition_heal_run(driven)
    assert driven_run == baseline

    reply, when, served, counters = baseline
    assert reply == b"r:through"
    assert when > 430.0       # the exchange completed only after the heal
    assert served == [(1, b"through")]
    assert counters[2] > 0    # the partition really dropped packets


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    loss=st.floats(min_value=0.0, max_value=0.3),
    dup=st.floats(min_value=0.0, max_value=0.3),
    sizes=st.lists(st.integers(min_value=0, max_value=3000),
                   min_size=1, max_size=4),
)
def test_property_exactly_once_under_adversarial_network(seed, loss, dup,
                                                         sizes):
    """Whatever the loss/duplication rates, every call executes exactly
    once at the server and the client gets the right reply, in order."""
    sim, net, machines, (cp, sp) = make_world(
        seed=seed, loss_probability=loss, duplicate_probability=dup)
    config = PairedMessageConfig(max_segment_data=512,
                                 retransmit_interval=25.0,
                                 crash_timeout=60000.0,
                                 probe_interval=500.0,
                                 max_retries=100)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(counting_server(server, served)(), daemon=True)

    def body():
        replies = []
        for number, size in enumerate(sizes, start=1):
            reply = yield from client.call(server.addr, number,
                                           b"p" * size)
            replies.append(reply)
        # Allow stray duplicates to drain before checking exactly-once.
        yield Sleep(500.0)
        return replies

    replies = sim.run_process(body())
    assert replies == [b"r:" + b"p" * size for size in sizes]
    assert [number for number, _data in served] == \
        list(range(1, len(sizes) + 1))
