"""Tests for the optimized message path: encode-once segment caching,
the per-endpoint retransmit scheduler and shared multicast segments."""

import dataclasses

import pytest

from repro.host import Machine
from repro.net import Network, NetworkConfig
from repro.pairedmsg import (
    MSG_CALL,
    PairedEndpoint,
    PairedMessageConfig,
    PeerCrashed,
)
from repro.pairedmsg.segments import PLEASE_ACK, Segment, decode, split_message
from repro.sim import Queue, Simulator, Sleep
from repro.sim.sharded import PacketDigest, merge_digests
from tests.pairedmsg.test_endpoint import echo_server, make_world


# ---------------------------------------------------------------------------
# Encode-once segments
# ---------------------------------------------------------------------------

def test_split_message_slices_without_copying():
    """Payload slices are memoryviews over the original message buffer."""
    data = bytes(range(256)) * 4
    segs = split_message(MSG_CALL, 7, data, max_data=100)
    for segment in segs:
        assert isinstance(segment.data, memoryview)
        assert segment.data.obj is data
    assert b"".join(bytes(s.data) for s in segs) == data


def test_wire_is_cached_and_identical_to_encode():
    segs = split_message(MSG_CALL, 9, b"abcdefgh", max_data=4)
    for segment in segs:
        wire = segment.wire()
        assert wire == segment.encode()
        assert segment.wire() is wire          # cached, not re-encoded
        assert decode(wire) == segment


def test_wire_marked_splices_control_byte_from_cached_wire():
    segment = split_message(MSG_CALL, 3, b"payload", max_data=16)[0]
    plain = segment.wire()
    marked = segment.wire_marked()
    assert segment.wire_marked() is marked      # cached too
    assert marked[0] == plain[0]
    assert marked[1] == plain[1] | PLEASE_ACK
    assert marked[2:] == plain[2:]
    assert decode(marked).please_ack
    # An already-marked segment's marked wire is just its wire.
    probe = Segment(MSG_CALL, True, False, 1, 1, 5, b"")
    assert probe.wire_marked() == probe.wire()


def test_retransmissions_reuse_cached_encoding():
    """Under 100% loss the sender keeps retransmitting: the encode
    counter must stay flat across retries while packets keep going out."""
    sim, net, machines, (client_p, server_p) = make_world(
        loss_probability=1.0)
    config = PairedMessageConfig(max_segment_data=64,
                                 retransmit_interval=20.0, max_retries=50)
    client = PairedEndpoint(client_p, config=config)
    server = PairedEndpoint(server_p, port=500, config=config)

    def body():
        yield from client.send_message(server.addr, MSG_CALL, 1, b"z" * 128)
        encodes_after_send = client.counters["segment_encodes"]
        packets_after_send = client.counters["packets_sent"]
        yield Sleep(110.0)   # ~5 retransmission rounds
        assert client.counters["packets_sent"] >= packets_after_send + 4
        # No new encodes: one control-byte patch, then pure cache hits.
        assert client.counters["segment_encodes"] == encodes_after_send
        assert client.counters["wire_patches"] == 1
        assert client.counters["wire_cache_hits"] >= 3

    sim.run_process(body())


# ---------------------------------------------------------------------------
# The per-endpoint retransmit scheduler
# ---------------------------------------------------------------------------

def test_single_scheduler_replaces_per_call_daemons():
    """N calls spawn O(1) helper processes per endpoint (receiver +
    scheduler), not one retransmit daemon per transfer."""
    sim, net, machines, (client_p, server_p) = make_world()
    client = PairedEndpoint(client_p)
    server = PairedEndpoint(server_p, port=500)
    server_p.spawn(echo_server(server)(), daemon=True)

    def body():
        for number in range(1, 21):
            yield from client.call(server.addr, number, b"m%d" % number)

    sim.run_process(body())
    assert client.counters["daemons_spawned"] == 2    # pm-recv + pm-sched
    assert server.counters["daemons_spawned"] == 2
    assert client.stats()["watched_transfers"] == 0


def test_scheduler_survives_abandon_peer_and_close():
    """Declaring a peer crashed cancels its transfers without killing the
    scheduler; close() tears the scheduler down so no timers outlive the
    endpoint."""
    sim, net, machines, procs = make_world(n_machines=3,
                                           loss_probability=1.0)
    config = PairedMessageConfig(retransmit_interval=20.0,
                                 probe_interval=30.0, crash_timeout=100.0)
    client = PairedEndpoint(procs[0], config=config)
    dead = PairedEndpoint(procs[1], port=500, config=config)

    def body():
        yield from client.send_message(dead.addr, MSG_CALL, 1, b"x")
        with pytest.raises(PeerCrashed):
            yield from client.wait_return(dead.addr, 1)
        # _abandon_peer cancelled the transfer; the scheduler reaps it.
        yield Sleep(50.0)
        assert client.stats()["watched_transfers"] == 0
        assert client.stats()["outgoing_transfers"] == 0
        assert client._scheduler is not None and client._scheduler.alive

        # The scheduler is reusable for later sends to other peers.
        yield from client.send_message(dead.addr, MSG_CALL, 2, b"y")
        assert client.stats()["watched_transfers"] == 1

        client.close()
        assert not client._scheduler.alive
        assert client.stats()["watched_transfers"] == 0
        # No orphaned timers: with the endpoint closed, nothing keeps
        # transmitting.
        packets = client.counters["packets_sent"]
        yield Sleep(200.0)
        assert client.counters["packets_sent"] == packets

    sim.run_process(body())


def test_busy_scheduler_keeps_every_decision():
    """A hot server under 10% loss: 240 clients' three-segment calls
    leave one endpoint watching over 200 return transfers at once, rounds
    come due together (concurrent workers, some still running when an
    implicit ack completes their transfer), and 30 calls to a dead peer
    are abandoned in one ``_abandon_peer`` sweep.  The scheduler
    decides in watch order — which helper spawns first decides every later
    timestamp — so the counts, syscalls and packet digest below, captured
    from the scanning scheduler this one replaced, move if any decision or
    wake-up does."""
    sim = Simulator()
    net = Network(sim, seed=5, config=NetworkConfig(loss_probability=0.10))
    digest = PacketDigest(sim)
    machines = [Machine(sim, net, "m%d" % i) for i in range(6)]
    procs = [m.spawn_process() for m in machines]
    config = PairedMessageConfig(max_segment_data=512,
                                 retransmit_interval=2000.0, max_retries=64,
                                 probe_interval=3000.0, crash_timeout=15000.0)
    hub = PairedEndpoint(procs[0], port=500, config=config)
    dead = PairedEndpoint(procs[5], port=500, config=config)
    # The saturated hub goes quiet for seconds; only it declares crashes.
    patient = dataclasses.replace(config, crash_timeout=1e6)
    clients = [PairedEndpoint(proc, config=patient)
               for proc in procs[1:5] for _ in range(60)]
    outcomes = {"echoed": 0, "crashed": 0}
    most_watched = [0]
    finished = Queue(sim, "finished")

    def reply(msg):
        yield from hub.send_return(msg.peer, msg.call_number, msg.data)
        most_watched[0] = max(most_watched[0],
                              hub.stats()["watched_transfers"])

    def serve():
        while True:
            msg = yield from hub.next_call()
            procs[0].spawn(reply(msg), daemon=True)

    def client_calls(client, index):
        for number in (1, 2):
            data = bytes([index % 251, number]) * 750       # 3 segments
            assert (yield from client.call(hub.addr, number, data)) == data
            outcomes["echoed"] += 1
        finished.put(client)

    def doomed_call(number):
        with pytest.raises(PeerCrashed):
            yield from hub.call(dead.addr, number, b"d" * 1500)
        outcomes["crashed"] += 1
        finished.put(number)

    def main():
        procs[0].spawn(serve(), daemon=True)
        machines[5].crash()
        threads = [client.process.spawn(client_calls(client, index))
                   for index, client in enumerate(clients)]
        threads += [procs[0].spawn(doomed_call(number))
                    for number in range(1, 31)]
        for _ in threads:
            yield finished.get()

    sim.run_process(main())
    assert outcomes == {"echoed": 480, "crashed": 30}
    assert most_watched[0] >= 200
    assert sim.now == 48407.050644766874
    assert hub.stats() == {
        "outgoing_transfers": 2, "incoming_assemblies": 0,
        "buffered_returns": 0, "peers_heard": 241,
        "delivered_call_memory": 480, "watched_transfers": 2,
        "segment_encodes": 3575, "wire_patches": 604,
        "wire_cache_hits": 2431, "packets_sent": 6610,
        "daemons_spawned": 3067, "retransmit_rounds": 3035,
        "acks_sent": 1925, "bytes_copied": 1826132}
    assert sum(c.stats()["packets_sent"] for c in clients) == 6200
    assert [p.syscall_counts for p in procs[:5]] == [
        {"gettimeofday": 510, "recvmsg": 5609, "select": 5610,
         "sendmsg": 6610, "setitimer": 1018, "sigblock": 8644,
         "sigsetmask": 8644},
        {"gettimeofday": 240, "recvmsg": 1343, "select": 1403,
         "sendmsg": 1502, "setitimer": 240, "sigblock": 1783,
         "sigsetmask": 1783},
        {"gettimeofday": 240, "recvmsg": 1388, "select": 1448,
         "sendmsg": 1534, "setitimer": 240, "sigblock": 1814,
         "sigsetmask": 1814},
        {"gettimeofday": 240, "recvmsg": 1449, "select": 1508,
         "sendmsg": 1618, "setitimer": 240, "sigblock": 1936,
         "sigsetmask": 1936},
        {"gettimeofday": 240, "recvmsg": 1387, "select": 1447,
         "sendmsg": 1546, "setitimer": 240, "sigblock": 1855,
         "sigsetmask": 1855}]
    assert digest.events == 25618
    assert merge_digests([digest.partial]) == (
        "14ccacbbff2c646aea8ab3554894c1b5406ffa28909665d363a87f885eefd86a")


def test_retransmission_timeout_still_fires():
    """The scheduler preserves the fail-after-max_retries behaviour."""
    sim, net, machines, (client_p, _server_p) = make_world(
        loss_probability=1.0)
    config = PairedMessageConfig(retransmit_interval=10.0, max_retries=3)
    client = PairedEndpoint(client_p, config=config)
    peer = machines[1].spawn_process().udp_socket(700).addr

    def body():
        transfer = yield from client.send_message(peer, MSG_CALL, 1, b"x")
        outcome = yield transfer.done
        return outcome, sim.now

    outcome, now = sim.run_process(body())
    assert outcome == "timeout"
    assert now < 200.0


# ---------------------------------------------------------------------------
# Multicast segment sharing
# ---------------------------------------------------------------------------

def test_multicast_transfers_share_segment_tuple():
    sim, net, machines, procs = make_world(n_machines=3)
    client = PairedEndpoint(procs[0])
    servers = [PairedEndpoint(procs[1], port=500),
               PairedEndpoint(procs[2], port=500)]
    for server in servers:
        server.process.spawn(echo_server(server)(), daemon=True)
    data = bytes(range(256)) * 8   # multi-segment

    def body():
        transfers = yield from client.send_message_multicast(
            [s.addr for s in servers], MSG_CALL, 1, data)
        # One immutable tuple shared by the per-peer transfers; only the
        # acknowledged prefix is private: acking one peer's transfer
        # moves that transfer's first unacked segment and no other's.
        assert isinstance(transfers[0].segments, tuple)
        assert transfers[0].segments is transfers[1].segments
        assert [t.first_unacked().segment_number for t in transfers] == [1, 1]
        transfers[0].ack_through(1)
        assert [t.first_unacked().segment_number for t in transfers] == [2, 1]
        for transfer in transfers:
            yield transfer.done
        return [t.done.value for t in transfers]

    # Both returns implicitly acknowledge the multicast call.
    assert sim.run_process(body()) == ["acked", "acked"]
