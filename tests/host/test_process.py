"""Tests for CPU accounting and syscall wrappers (Table 4.2 cost model)."""

import pytest

from repro.host import Machine, SyscallCostModel, TABLE_4_2_COSTS
from repro.net import Network
from repro.sim import Simulator


def make_proc():
    sim = Simulator()
    net = Network(sim, seed=1)
    m = Machine(sim, net, "m0")
    other = Machine(sim, net, "m1")
    return sim, net, m.spawn_process(), other.spawn_process()


def test_syscall_charges_kernel_time_and_advances_clock():
    sim, net, proc, _ = make_proc()

    def body():
        yield proc.charge("sendmsg")
        return sim.now

    assert sim.run_process(body()) == pytest.approx(8.1)
    assert proc.kernel_time == pytest.approx(8.1)
    assert proc.user_time == 0.0
    assert proc.syscall_counts["sendmsg"] == 1


def test_unknown_syscall_rejected():
    sim, net, proc, _ = make_proc()

    def body():
        yield proc.charge("forkbomb")

    with pytest.raises(KeyError):
        sim.run_process(body())


def test_compute_charges_user_time():
    sim, net, proc, _ = make_proc()

    def body():
        yield from proc.compute(5.0)

    sim.run_process(body())
    assert proc.user_time == pytest.approx(5.0)
    assert proc.kernel_time == 0.0


def test_sendmsg_recvmsg_roundtrip():
    sim, net, client, server = make_proc()
    client_sock = client.udp_socket(100)
    server_sock = server.udp_socket(200)

    def server_body():
        dgram = yield from server.recvmsg(server_sock)
        yield from server.sendmsg(server_sock, b"pong", dgram.src)

    def client_body():
        yield from client.sendmsg(client_sock, b"ping", server_sock.addr)
        dgram = yield from client.recvmsg(client_sock)
        return dgram.payload

    sim.spawn(server_body())
    assert sim.run_process(client_body()) == b"pong"
    assert client.syscall_counts == {"sendmsg": 1, "recvmsg": 1}
    assert server.syscall_counts == {"sendmsg": 1, "recvmsg": 1}


def test_select_returns_ready_socket_without_consuming():
    sim, net, client, server = make_proc()
    client_sock = client.udp_socket(100)
    server_sock = server.udp_socket(200)

    def server_body():
        yield from server.sendmsg(server_sock, b"data", client_sock.addr)

    def client_body():
        ready = yield from client.select([client_sock], timeout=1000.0)
        assert ready == [client_sock]
        dgram = yield from client.recvmsg(client_sock)
        return dgram.payload

    sim.spawn(server_body())
    assert sim.run_process(client_body()) == b"data"
    assert client.syscall_counts["select"] == 1


def test_select_timeout_returns_empty():
    sim, net, client, _ = make_proc()
    sock = client.udp_socket(100)

    def body():
        ready = yield from client.select([sock], timeout=5.0)
        return ready

    assert sim.run_process(body()) == []


def test_cost_model_scaling():
    model = SyscallCostModel(TABLE_4_2_COSTS, scale=0.5)
    assert model.cost("sendmsg") == pytest.approx(4.05)
    faster = model.with_scale(0.5)
    assert faster.cost("sendmsg") == pytest.approx(2.025)


def test_cost_model_rejects_bad_scale():
    with pytest.raises(ValueError):
        SyscallCostModel(scale=0.0)


def test_dead_process_rejects_syscalls():
    sim, net, proc, _ = make_proc()
    proc.machine.crash()

    def body():
        yield proc.charge("sendmsg")

    from repro.host import MachineCrashed
    with pytest.raises(MachineCrashed):
        sim.run_process(body())


def test_finished_threads_are_retired_from_both_tables():
    """A long run must not retain its finished threads: every replicated
    call spawns (and finishes) an ``await-*`` thread per member, and both
    the kernel's process table and the OS process's thread table used to
    keep all of them — ~1.7 KiB per call, forever."""
    from repro.core import ExportedModule
    from repro.harness import World
    from repro.sim.kernel import Process
    from tests.census import tracked

    def echo_module():
        def echo(ctx, args):
            return args
            yield
        return ExportedModule("echo", {0: echo})

    world = World(machines=3, seed=3)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()
    sim = world.sim

    def tables():
        threads = [t for runtime in world.runtimes
                   for t in runtime.process._threads]
        return list(sim._processes), threads

    def body(calls):
        for _ in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"x")

    def held():
        """This world's kernel processes alive anywhere, finished or not."""
        return sum(type(o) is Process and o.sim is sim for o in tracked())

    world.run(body(50))
    settled = tuple(len(table) for table in tables()) + (held(),)
    world.run(body(250))
    processes, threads = tables()
    # Bounded by what is alive — not by how long the world has run.
    assert all(p.alive for p in processes) and all(t.alive for t in threads)
    assert processes == sim.live_processes()
    assert (len(processes), len(threads), held()) == settled
    assert len(processes) < 40


def test_default_thread_names_count_spawns_not_live_threads():
    """Names (and so every sim.spawn event and digest) must not depend on
    how many earlier threads have already exited."""
    sim, _net, proc, _other = make_proc()

    def brief():
        yield from proc.compute(1.0)

    first = proc.spawn(brief())
    sim.run()
    assert not first.alive and first not in proc._threads
    named = proc.spawn(brief(), name="worker")
    third = proc.spawn(brief())
    assert first.name.endswith("/thread0")
    assert named.name.endswith("/worker")
    assert third.name.endswith("/thread2")     # not thread1, nor thread0
