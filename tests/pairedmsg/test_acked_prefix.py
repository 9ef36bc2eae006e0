"""A transfer's unacknowledged queue is one acknowledged-prefix count.

Acks are cumulative and ``complete`` / ``cancel`` clear the queue, so
§4.2.2's queue of unacked segments is always ``segments[acked:]``.  The
dict of unacked segments it replaced lives on here as
:class:`_DictTransfer`, driven op by op beside the real transfer; the
two senders that read the whole suffix (stop-and-wait, retransmit-all),
which no workload runs, are pinned by packet digest and endpoint stats
taken from the dict version."""

import random
import types

import pytest

from repro.host import Machine
from repro.net import Network, NetworkConfig
from repro.pairedmsg import MSG_CALL, PairedEndpoint, PairedMessageConfig
from repro.pairedmsg.endpoint import _OutgoingTransfer
from repro.pairedmsg.segments import split_message
from repro.sim import Simulator
from repro.sim.sharded import PacketDigest, merge_digests


class _DictTransfer:
    """The dict-of-unacked-segments bookkeeping, as it was."""

    def __init__(self, segs):
        self.unacked = {s.segment_number: s for s in segs}
        self.retries = 0
        self.signals = []
        self.done_value = None

    def first_unacked(self):
        if not self.unacked:
            return None
        return self.unacked[min(self.unacked)]

    def ack_through(self, ack_number):
        acked = [n for n in self.unacked if n <= ack_number]
        for n in acked:
            del self.unacked[n]
        if acked:
            self.retries = 0
            self.signals.append(ack_number)
        if not self.unacked:
            self.complete()

    def _fire(self, value):
        if self.done_value is None:
            self.done_value = value

    def complete(self):
        self.unacked = {}
        self._fire("acked")

    def fail(self):
        self._fire("timeout")

    def cancel(self):
        self.unacked = {}
        self._fire("crashed")


def _real_transfer(sim, segs):
    endpoint = types.SimpleNamespace(
        sim=sim, addr=None, process=types.SimpleNamespace(name="p"),
        _transfer_finished=lambda transfer: None)
    return _OutgoingTransfer(endpoint, None, MSG_CALL, 1, segs)


def _random_ops(rng, total, length):
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.7:
            ops.append(("ack_through", rng.randint(0, total + 1)))
        elif roll < 0.8:
            ops.append(("retry", None))
        else:
            ops.append((rng.choice(("complete", "cancel", "fail")), None))
    return ops


@pytest.mark.parametrize("total", [1, 2, 13])
@pytest.mark.parametrize("watched", [True, False])
def test_acked_prefix_matches_the_dict_op_by_op(total, watched):
    """Random acks in ``0..total+1`` (repeats and stale ones included)
    interleaved with retries, ``complete``, ``cancel`` and ``fail``:
    after every op, equal first unacked segment, retries, ``progress``
    signals and ``done`` value.  ``watched=False`` never reads
    ``progress``, so it is never built."""
    rng = random.Random(total * 2 + watched)
    for _ in range(300):
        sim = Simulator()
        segs = split_message(MSG_CALL, 1, b"x" * total, max_data=1)
        reference, transfer = _DictTransfer(segs), _real_transfer(sim, segs)
        signals = []
        for op, arg in _random_ops(rng, total, rng.randint(1, 12)):
            if watched:
                waiter = transfer.progress._subscribe(signals.append)
            for side in (reference, transfer):
                if op == "ack_through":
                    side.ack_through(arg)
                elif op == "retry":
                    side.retries += 1
                else:
                    getattr(side, op)()
            if watched:
                waiter.cancel()   # a no-op once signalled
            sim.run()
            assert transfer.first_unacked() is reference.first_unacked()
            assert transfer.retries == reference.retries
            assert transfer.done.value == reference.done_value
            if watched:
                assert signals == reference.signals
        assert (transfer._progress is not None) == watched


def _lossy_exchange(**config_fields):
    """Six 13-segment calls on a wire losing 15 % of datagrams."""
    sim = Simulator()
    net = Network(sim, seed=11, config=NetworkConfig(loss_probability=0.15))
    digest = PacketDigest(sim)
    machines = [Machine(sim, net, "m%d" % i) for i in range(2)]
    cp, sp = [m.spawn_process() for m in machines]
    config = PairedMessageConfig(max_segment_data=512, max_retries=100,
                                 **config_fields)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)

    def serve():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number,
                                          msg.data[::-1])

    sp.spawn(serve(), daemon=True)

    def body():
        for number in range(1, 7):
            data = bytes([number]) * 6144
            assert (yield from client.call(server.addr, number, data)) \
                == data[::-1]

    sim.run_process(body())
    return (sim.now, merge_digests([digest.partial]), client.stats(),
            server.stats())


def _stats(acks, copied, encodes, hits, patches, packets, rounds, memory):
    """An endpoint's ``stats()`` after the exchange (client: ``memory``
    0, no transfer left; server: its last return still watched)."""
    left = int(bool(memory))
    return {
        "outgoing_transfers": left, "incoming_assemblies": 0,
        "buffered_returns": 0, "peers_heard": 1,
        "delivered_call_memory": memory, "watched_transfers": left,
        "segment_encodes": encodes, "wire_patches": patches,
        "wire_cache_hits": hits, "packets_sent": packets,
        "daemons_spawned": 2, "retransmit_rounds": rounds,
        "acks_sent": acks, "bytes_copied": copied}


#: (sim.now, packet digest, client stats, server stats), taken from the
#: dict-bookkeeping sender.
_PINNED = {
    "retransmit_all": (
        2332.354243403035,
        "ef1bae7eb6c97407c04bb299da6cfb406f65839dae23699c053f01fb51e30c5f",
        _stats(51, 92392, 123, 20, 34, 177, 9, 0),
        _stats(64, 89376, 136, 3, 28, 167, 5, 6)),
    "stop_and_wait": (
        5558.898839608249,
        "279cc47870e8f49f06d82011793a9160828386a36238a2d5f84a42b993b2581e",
        _stats(80, 74944, 86, 0, 66, 172, 0, 0),
        _stats(75, 75424, 81, 0, 67, 172, 1, 6)),
}


@pytest.mark.parametrize("mode", sorted(_PINNED))
def test_whole_suffix_senders_are_pinned(mode):
    assert _lossy_exchange(**{mode: True}) == _PINNED[mode]
