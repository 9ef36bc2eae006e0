"""Differential test: the fused receive loop against the four-sleep one.

``PairedEndpoint._receive_loop`` sleeps once per run of back-to-back
syscalls (recvmsg + sigblock, then sigsetmask + select) and takes a
queued datagram without bouncing it through the socket queue.  That is
host work only: every packet, ack, retransmission and charge must land
where the plain loop — one sleep per syscall, kept below as the
specification — puts it.
"""

import pytest

from repro.bench.scenarios import echo_module
from repro.core import RuntimeConfig
from repro.harness import World
from repro.host import TABLE_4_2_COSTS, Machine
from repro.net import Network, NetworkConfig
from repro.pairedmsg import (PairedEndpoint, PairedMessageConfig,
                             PeerCrashed)
from repro.pairedmsg import segments as seg
from repro.pairedmsg.segments import SegmentFormatError
from repro.sim import Simulator
from repro.sim.sharded import PacketDigest


def _reference_receive_loop(self):
    """``PairedEndpoint._receive_loop`` as it was before the fusion: the
    §4.4.1 profile spelled as one generator resume per system call, with
    ``select`` handing the datagram back for ``recvmsg`` to take again.
    Kept verbatim as the specification the fused loop must match."""
    while not self.closed and self.process.alive:
        yield from self.process.select([self.sock])
        datagram = yield from self.process.recvmsg(self.sock)
        yield from self.process.sigblock()
        try:
            segment = seg.decode(datagram.payload)
        except SegmentFormatError:
            segment = None  # garbled: checksum already made it "lost"
        if segment is not None:
            self._handle_segment(datagram.src, segment)
        yield from self.process.sigsetmask()
        # Flush control traffic (acks, probe replies) generated above.
        while self._pending_control:
            control, dst = self._pending_control.pop(0)
            if control.ack:
                self.counters["acks_sent"] += 1
            yield from self._transmit(self._wire(control), dst)


def _both(scenario, *args):
    """``scenario`` under the fused loop, then under the reference."""
    fused = scenario(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairedEndpoint, "_receive_loop",
                      _reference_receive_loop)
        return fused, scenario(*args)


def _reading(sim, digest, endpoints, processes, **extra):
    """Everything the two loops must agree on, read at quiescence."""
    assert sim.next_event_time() is None, "not quiescent"
    return dict(
        extra, end=sim.now, digest=(digest.partial, digest.events),
        stats=[endpoint.stats() for endpoint in endpoints],
        cpu={proc.name + "@" + proc.host:
             dict(counts=proc.syscall_counts, times=proc.syscall_times,
                  kernel=proc.kernel_time, user=proc.user_time)
             for proc in processes},
        callbacks=sim.callbacks_run)


def _assert_same_simulation(fused, reference, ahead=()):
    """Equal in everything but host work.  ``ahead`` is ``(process,
    syscall)`` for a process killed while a fused pair was in flight: the
    pair was charged in full as it began, so the fused loop is the second
    syscall ahead of the reference, which had not reached it."""
    assert fused.pop("callbacks") < reference.pop("callbacks")
    if ahead:
        name, syscall = ahead
        cost = TABLE_4_2_COSTS[syscall]
        cpu = reference["cpu"][name]
        cpu["counts"][syscall] = cpu["counts"].get(syscall, 0) + 1
        cpu["times"][syscall] = cpu["times"].get(syscall, 0.0) + cost
        cpu["kernel"] += cost
    # kernel_time is one running sum that concurrent threads now charge
    # in another order; every other figure is exact.
    for name, cpu in reference["cpu"].items():
        assert fused["cpu"][name].pop("kernel") == pytest.approx(
            cpu.pop("kernel"), rel=1e-9), name
    assert fused == reference


# ---------------------------------------------------------------------------
# Replicated calls through a world: lossless, lossy, and a crash
# ---------------------------------------------------------------------------

#: 13 segments per 6 KiB message on a lossy, duplicating wire, as
#: wallbench's lossy-bulk.
_BULK = PairedMessageConfig(max_segment_data=512, retransmit_interval=30.0,
                            max_retries=64)
_LOSSY = NetworkConfig(loss_probability=0.10, duplicate_probability=0.02)


def _troupe_calls(calls, size, net_config, paired, crash_after=None):
    runtime_config = RuntimeConfig(paired=paired) if paired else None
    # Troupe IDs ride in every payload, hence in the digest: pin them.
    world = World(machines=4, seed=11, net_config=net_config,
                  runtime_config=runtime_config, troupe_id_base=1000)
    digest = PacketDigest(world.sim)
    troupe, _members = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()
    processes = [proc for machine in world.machines
                 for proc in machine.processes]
    latencies = []

    def body():
        sim = world.sim
        for i in range(calls):
            if i == 2 and crash_after is not None:
                victim = world.machine(troupe.members[1].process.host)
                sim.schedule(crash_after, victim.crash)
            payload = bytes([i % 251]) * size
            start = sim.now
            assert (yield from client.call_troupe(
                troupe, 0, 0, payload)) == b"echo:" + payload
            latencies.append(sim.now - start)

    world.run(body())
    world.sim.run()         # ... until the last ack and timer have settled
    return _reading(world.sim, digest,
                    [runtime.endpoint for runtime in world.runtimes],
                    processes, latencies=latencies)


def test_circus_lossless_is_the_same_simulation():
    fused, reference = _both(_troupe_calls, 40, 8, None, None)
    _assert_same_simulation(fused, reference)
    assert fused["digest"][1] > 40 * 2 * 6     # send + deliver, 6 packets


def test_bulk_calls_under_loss_and_duplication_are_the_same_simulation():
    fused, reference = _both(_troupe_calls, 25, 6144, _LOSSY, _BULK)
    _assert_same_simulation(fused, reference)
    totals = {key: sum(stats[key] for stats in fused["stats"])
              for key in ("retransmit_rounds", "acks_sent")}
    assert totals["retransmit_rounds"] > 25 and totals["acks_sent"] > 25


@pytest.mark.parametrize("crash_after,ahead", [
    (131.5, "sigblock"),    # the victim dies inside recvmsg + sigblock
    (157.0, "select"),      # ... inside sigsetmask + select
    (160.0, None),          # ... between two segments, waiting in select
])
def test_a_member_crash_mid_transfer_is_the_same_simulation(crash_after,
                                                            ahead):
    fused, reference = _both(_troupe_calls, 6, 6144, _LOSSY, _BULK,
                             crash_after)
    # The victim died holding part of a message.
    assert reference["stats"][1]["incoming_assemblies"] == 1
    _assert_same_simulation(fused, reference,
                            ahead=("echo@host1", ahead) if ahead else ())


# ---------------------------------------------------------------------------
# endpoint.close() while a fused pair is in flight
# ---------------------------------------------------------------------------

def _close_after_arrival(offset):
    """One single-segment call; the server endpoint closes ``offset`` ms
    after the datagram reaches its socket, i.e. somewhere inside
    recvmsg (2.8) → sigblock (0.4) → sigsetmask (0.4) → select (1.8)."""
    sim = Simulator()
    net = Network(sim, seed=3, config=NetworkConfig())
    digest = PacketDigest(sim)
    client_p, server_p = (Machine(sim, net, name).spawn_process()
                          for name in ("m0", "m1"))
    client = PairedEndpoint(client_p)
    server = PairedEndpoint(server_p, port=500)
    armed = []

    def on_deliver(event):
        if event.dst == server.addr and not armed:
            armed.append(sim.schedule(offset, server.close))

    sim.bus.subscribe(on_deliver, "net.deliver")

    def body():
        with pytest.raises(PeerCrashed):
            yield from client.call(server.addr, 1, b"anyone?")

    sim.run_process(body())
    sim.run()
    assert armed and server.closed
    return _reading(sim, digest, [client, server], [client_p, server_p])


@pytest.mark.parametrize("offset,ahead", [
    (1.0, "sigblock"),      # in recvmsg: sigblock is already charged
    (3.0, None),            # in sigblock: both loops have charged both
    (3.4, "select"),        # in sigsetmask: select is already charged
    (4.0, None),            # in select
])
def test_close_while_a_fused_pair_is_in_flight(offset, ahead):
    fused, reference = _both(_close_after_arrival, offset)
    counts = dict(reference["cpu"]["pid1@m1"]["counts"])
    assert counts["recvmsg"] == 1 and "sendmsg" not in counts
    _assert_same_simulation(fused, reference,
                            ahead=("pid1@m1", ahead) if ahead else ())
