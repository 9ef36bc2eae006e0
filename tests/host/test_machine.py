"""Tests for machines, crash/restart, and OS processes."""

import pytest

from repro.host import Machine, MachineCrashed
from repro.net import Network
from repro.sim import Simulator, Sleep


def make_world(n=2):
    sim = Simulator()
    net = Network(sim, seed=5)
    machines = [Machine(sim, net, "m%d" % i) for i in range(n)]
    return sim, net, machines


def test_machine_registers_host():
    sim, net, (m0, m1) = make_world()
    assert net.host("m0") is m0.host
    assert m0.up


def test_spawn_process_assigns_pids():
    sim, net, (m0, _) = make_world()
    p1 = m0.spawn_process()
    p2 = m0.spawn_process()
    assert p1.pid != p2.pid
    assert m0.processes == [p1, p2]


def test_crash_kills_threads():
    sim, net, (m0, _) = make_world()
    proc = m0.spawn_process()
    log = []

    def body():
        try:
            yield Sleep(100.0)
            log.append("survived")
        except MachineCrashed:
            log.append("crashed")
            raise

    proc.spawn(body())
    sim.schedule(5.0, m0.crash)
    sim.run()
    assert log == ["crashed"]
    assert not m0.up
    assert not proc.alive
    assert m0.processes == []


def test_crash_drops_network_traffic():
    sim, net, (m0, m1) = make_world()
    p0 = m0.spawn_process()
    p1 = m1.spawn_process()
    sock0 = p0.udp_socket(100)
    sock1 = p1.udp_socket(200)
    m1.crash()
    sock0.sendto(b"x", sock1.addr)
    sim.run()
    assert net.packets_delivered == 0


def test_restart_brings_machine_back_empty():
    sim, net, (m0, _) = make_world()
    m0.spawn_process()
    m0.crash()
    m0.restart()
    assert m0.up
    assert m0.processes == []
    assert m0.crash_count == 1
    # New processes can be spawned after restart.
    m0.spawn_process()


def test_spawn_on_crashed_machine_rejected():
    sim, net, (m0, _) = make_world()
    m0.crash()
    with pytest.raises(MachineCrashed):
        m0.spawn_process()


def test_attributes():
    sim = Simulator()
    net = Network(sim)
    m = Machine(sim, net, "UCB-Monet",
                attributes={"memory": 10, "has-floating-point": True})
    assert m.attribute("name") == "UCB-Monet"
    assert m.attribute("memory") == 10
    assert m.attribute("missing") is None
    m.set_attribute("memory", 16)
    assert m.attribute("memory") == 16


def test_process_exit_is_not_a_crash():
    sim, net, (m0, _) = make_world()
    proc = m0.spawn_process()
    proc.exit()
    assert m0.up
    assert m0.processes == []
    assert not proc.alive
