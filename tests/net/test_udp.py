"""Tests for UDP-analogue sockets."""

import pytest

from repro.net import Network, NetworkConfig, PortInUse, ProcessAddress, UdpSocket
from repro.sim import Simulator, Sleep
from repro.sim.events import Queue


def make_net(**config):
    sim = Simulator()
    net = Network(sim, seed=7, config=NetworkConfig(**config))
    net.add_host("a")
    net.add_host("b")
    return sim, net


def test_send_and_recv():
    sim, net = make_net()
    a = UdpSocket(net, "a", 100)
    b = UdpSocket(net, "b", 200)

    def receiver():
        dgram = yield b.recv()
        return dgram.payload, dgram.src

    a.sendto(b"ping", b.addr)
    assert sim.run_process(receiver()) == (b"ping", a.addr)


def test_ephemeral_port_allocation():
    sim, net = make_net()
    s1 = UdpSocket(net, "a")
    s2 = UdpSocket(net, "a")
    assert s1.addr.port != s2.addr.port
    assert s1.addr.host == "a"


def test_port_in_use():
    sim, net = make_net()
    UdpSocket(net, "a", 100)
    with pytest.raises(PortInUse):
        UdpSocket(net, "a", 100)


def test_close_releases_port():
    sim, net = make_net()
    s = UdpSocket(net, "a", 100)
    s.close()
    UdpSocket(net, "a", 100)  # no PortInUse


def test_operations_on_closed_socket_rejected():
    sim, net = make_net()
    s = UdpSocket(net, "a", 100)
    s.close()
    with pytest.raises(RuntimeError):
        s.sendto(b"x", ProcessAddress("b", 1))
    with pytest.raises(RuntimeError):
        s.recv()


def test_recv_timeout_returns_none_on_silence():
    sim, net = make_net()
    s = UdpSocket(net, "a", 100)

    def body():
        dgram = yield from s.recv_timeout(10.0)
        return dgram, sim.now

    assert sim.run_process(body()) == (None, 10.0)


def test_recv_timeout_returns_datagram_when_it_arrives():
    sim, net = make_net()
    a = UdpSocket(net, "a", 100)
    b = UdpSocket(net, "b", 200)

    def sender():
        yield Sleep(3.0)
        a.sendto(b"late", b.addr)

    def receiver():
        dgram = yield from b.recv_timeout(10.0)
        return dgram.payload

    sim.spawn(sender())
    assert sim.run_process(receiver()) == b"late"


def test_recv_nowait_and_pending():
    sim, net = make_net()
    a = UdpSocket(net, "a", 100)
    b = UdpSocket(net, "b", 200)
    a.sendto(b"one", b.addr)
    a.sendto(b"two", b.addr)
    sim.run()
    assert b.pending() == 2
    assert b.recv_nowait().payload == b"one"
    assert b.recv_nowait().payload == b"two"
    assert b.recv_nowait() is None


def test_recv_nowait_on_an_empty_socket_raises_nothing(monkeypatch):
    """The receive loop polls before it parks: an empty socket answers
    ``None`` without asking its queue for an item that is not there."""
    sim, net = make_net()
    b = UdpSocket(net, "b", 200)

    def refuse(queue):
        raise AssertionError("get_nowait on %r" % queue)

    monkeypatch.setattr(Queue, "get_nowait", refuse)
    assert b.recv_nowait() is None
    assert b.recv_nowait() is None


def test_multicast_from_socket():
    sim, net = make_net()
    net.add_host("c")
    a = UdpSocket(net, "a", 100)
    b = UdpSocket(net, "b", 200)
    c = UdpSocket(net, "c", 200)
    a.multicast(b"m", [b.addr, c.addr])
    sim.run()
    assert b.pending() == 1
    assert c.pending() == 1
    assert net.packets_sent == 1
