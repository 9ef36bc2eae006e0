"""Tests for the PARC stop-and-wait variant (§4.2.5) and probing."""

import pytest

from repro.pairedmsg import PairedEndpoint, PairedMessageConfig
from repro.sim import Sleep
from tests.pairedmsg.test_endpoint import make_world


def echo_server(endpoint):
    def body():
        while True:
            msg = yield from endpoint.next_call()
            yield from endpoint.send_return(msg.peer, msg.call_number,
                                            b"ok:%d" % len(msg.data))
    return body


BIG = bytes(range(256)) * 16   # 4096 bytes


def run_exchange(stop_and_wait, loss=0.0, seed=1):
    sim, net, machines, (cp, sp) = make_world(seed=seed,
                                              loss_probability=loss)
    config = PairedMessageConfig(max_segment_data=512,
                                 stop_and_wait=stop_and_wait)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    sp.spawn(echo_server(server)(), daemon=True)

    def body():
        reply = yield from client.call(server.addr, 1, BIG)
        return reply

    reply = sim.run_process(body())
    return reply, net.packets_sent


def test_stop_and_wait_delivers_correctly():
    reply, _packets = run_exchange(stop_and_wait=True)
    assert reply == b"ok:4096"


def test_stop_and_wait_survives_loss():
    reply, _packets = run_exchange(stop_and_wait=True, loss=0.2, seed=9)
    assert reply == b"ok:4096"


def test_stop_and_wait_roughly_doubles_packets():
    _r1, window_packets = run_exchange(stop_and_wait=False)
    _r2, saw_packets = run_exchange(stop_and_wait=True)
    # "This doubles the number of segments sent" — an ack per data
    # segment except the last.
    assert saw_packets > 1.5 * window_packets


def test_stop_and_wait_single_segment_message_is_unchanged():
    sim, net, machines, (cp, sp) = make_world()
    config = PairedMessageConfig(stop_and_wait=True)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    sp.spawn(echo_server(server)(), daemon=True)

    def body():
        return (yield from client.call(server.addr, 1, b"small"))

    assert sim.run_process(body()) == b"ok:5"


def test_retransmit_all_recovers_faster_on_lossy_link():
    """§4.2.4: retransmitting every outstanding segment costs packets but
    fewer rounds on a very lossy network."""
    def run(retransmit_all, seed):
        sim, net, machines, (cp, sp) = make_world(
            seed=seed, loss_probability=0.35)
        config = PairedMessageConfig(max_segment_data=512,
                                     retransmit_interval=30.0,
                                     max_retries=100,
                                     retransmit_all=retransmit_all)
        client = PairedEndpoint(cp, config=config)
        server = PairedEndpoint(sp, port=500, config=config)
        sp.spawn(echo_server(server)(), daemon=True)

        def body():
            start = sim.now
            reply = yield from client.call(server.addr, 1, BIG)
            return reply, sim.now - start

        reply, elapsed = sim.run_process(body())
        assert reply == b"ok:4096"
        return elapsed, net.packets_sent

    seeds = range(1, 8)
    first_only = [run(False, s) for s in seeds]
    everything = [run(True, s) for s in seeds]
    mean = lambda xs: sum(xs) / len(xs)
    # Retransmit-all completes faster on average...
    assert mean([e for e, _ in everything]) < mean([e for e, _ in first_only])
    # ...at the price of more packets on the wire.
    assert mean([p for _, p in everything]) > mean([p for _, p in first_only])


def test_ping_alive_peer():
    sim, net, machines, (cp, sp) = make_world()
    client = PairedEndpoint(cp)
    server = PairedEndpoint(sp, port=500)

    def body():
        return (yield from client.ping(server.addr, timeout=200.0))

    assert sim.run_process(body()) is True


def test_ping_dead_peer():
    sim, net, machines, (cp, sp) = make_world()
    client = PairedEndpoint(cp)
    server = PairedEndpoint(sp, port=500)
    machines[1].crash()

    def body():
        start = sim.now
        alive = yield from client.ping(server.addr, timeout=200.0)
        return alive, sim.now - start

    alive, elapsed = sim.run_process(body())
    assert alive is False
    assert elapsed >= 200.0


def test_ping_unbound_port():
    sim, net, machines, (cp, sp) = make_world()
    client = PairedEndpoint(cp)

    def body():
        from repro.net import ProcessAddress
        return (yield from client.ping(ProcessAddress("m1", 999),
                                       timeout=100.0))

    assert sim.run_process(body()) is False
