"""Tests for endpoint state bookkeeping and idle sweeping (§4.2.4)."""

import random
from types import SimpleNamespace

import pytest

from repro.host import Machine
from repro.net import Network
from repro.pairedmsg import PairedEndpoint, PairedMessageConfig
from repro.pairedmsg.segments import MSG_CALL
from repro.sim import Simulator, Sleep


def make_pair():
    sim = Simulator()
    net = Network(sim, seed=4)
    machines = [Machine(sim, net, "m%d" % i) for i in range(2)]
    cp, sp = [m.spawn_process() for m in machines]
    client = PairedEndpoint(cp)
    server = PairedEndpoint(sp, port=500)

    def echo():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number,
                                          b"r:" + msg.data)

    sp.spawn(echo(), daemon=True)
    return sim, client, server


def test_stats_reflect_activity():
    sim, client, server = make_pair()

    def body():
        yield from client.call(server.addr, 1, b"one")
        yield from client.call(server.addr, 2, b"two")
        yield Sleep(1000.0)  # drain retransmissions

    sim.run_process(body())
    stats = server.stats()
    assert stats["delivered_call_memory"] == 2
    assert stats["peers_heard"] == 1
    assert stats["incoming_assemblies"] == 0
    # The returns were consumed by wait_return: no residue at the client.
    assert client.stats()["buffered_returns"] == 0


def test_sweep_idle_clears_stale_peers():
    sim, client, server = make_pair()

    def body():
        yield from client.call(server.addr, 1, b"x")
        yield Sleep(5000.0)  # silence

    sim.run_process(body())
    swept = server.sweep_idle(max_age=2000.0)
    assert swept == 1
    stats = server.stats()
    assert stats["peers_heard"] == 0
    assert stats["delivered_call_memory"] == 0


def test_sweep_spares_recent_peers():
    sim, client, server = make_pair()

    def body():
        yield from client.call(server.addr, 1, b"x")
        yield Sleep(100.0)

    sim.run_process(body())
    assert server.sweep_idle(max_age=60000.0) == 0
    assert server.stats()["peers_heard"] == 1


def test_exchange_works_after_sweep():
    """Sweeping must not break future exchanges with the same peer —
    though a swept channel would accept a replayed old call number, which
    is exactly why the sweep age must exceed maximum datagram lifetime."""
    sim, client, server = make_pair()

    def body():
        yield from client.call(server.addr, 1, b"a")
        yield Sleep(3000.0)
        server.sweep_idle(max_age=1000.0)
        return (yield from client.call(server.addr, 2, b"b"))

    assert sim.run_process(body()) == b"r:b"


def test_delivery_memory_is_bounded_and_forgets_the_oldest_first():
    """§4.2.4: the replay-suppression table keeps ``delivered_memory``
    call numbers per peer, in the order first delivered — a re-delivery
    keeps its place in line."""
    sim, client, server = make_pair()
    server.config = PairedMessageConfig(delivered_memory=3)
    table, peer = server._delivered_calls, client.addr
    for number in (1, 2, 3, 1):
        server._remember_delivery(table, peer, number)
    assert list(table[peer]) == [1, 2, 3]
    server._remember_delivery(table, peer, 4)
    assert list(table[peer]) == [2, 3, 4]
    assert type(table[peer]) is tuple
    assert server.stats()["delivered_call_memory"] == 3


def _fifo_remember(reference, peer, number, limit):
    """The delivered-call memory as a plain dict per peer: insertion
    order, a re-delivery keeps its place, the oldest evicted first."""
    per_peer = reference.setdefault(peer, {})
    per_peer[number] = None
    while len(per_peer) > limit:
        del per_peer[next(iter(per_peer))]


@pytest.mark.parametrize("limit", [1, 3, 8, 9, 128])
def test_delivery_memory_matches_a_dict_fifo_in_lockstep(limit):
    """Random deliveries (repeats included) from three peers, remembered
    by the endpoint and by a plain-dict FIFO: after every step both
    answer "already delivered?" alike for every number and hold the same
    numbers in the same order.  A peer's memory is a tuple up to eight
    numbers and a dict past them."""
    _sim, client, server = make_pair()
    server.config = PairedMessageConfig(delivered_memory=limit)
    table, reference = server._delivered_calls, {}
    peers = [client.addr, server.addr, "elsewhere"]
    rng = random.Random(limit)
    for step in range(3000):
        peer = rng.choice(peers)
        # mostly fresh numbers, often one heard lately, now and then one
        # long gone: repeats, re-deliveries and evicted numbers
        number = rng.choice((step, step, rng.randrange(max(1, step)),
                             step - rng.randrange(1, 12)))
        server._remember_delivery(table, peer, number)
        _fifo_remember(reference, peer, number, limit)
        held = table[peer]
        assert list(held) == list(reference[peer]), (step, peer)
        assert (type(held) is tuple) == (len(held) <= 8), (step, peer)
        for probe in range(step - 140, step + 2):
            segment = SimpleNamespace(msg_type=MSG_CALL, call_number=probe)
            assert server._already_delivered(peer, segment) \
                == (probe in reference[peer]), (step, peer, probe)


def test_sweep_drops_a_silent_peers_discarded_return_marks():
    """A return forgotten before it completed (a first-come collator
    decided early) is marked until it arrives; from a peer that crashed
    it never does, so sweeping the peer must take the mark with it."""
    sim, client, server = make_pair()

    def body():
        yield from client.call(server.addr, 1, b"x")
        server.process.machine.crash()
        yield from client.send_call(server.addr, 2, b"y")
        client.forget_return(server.addr, 2)
        yield Sleep(5000.0)  # silence

    sim.run_process(body())
    assert (server.addr, 2) in client._discarded_returns
    assert client.sweep_idle(max_age=2000.0) == 1
    assert not client._discarded_returns
