"""Zero-copy discipline on the message path.

The wire format is materialized exactly once per segment (one join of a
pooled header and the payload view), decode returns ``memoryview``
slices over the datagram buffer, reassembly stores those views, and the
message bytes are joined exactly once at the application hand-off.  The
``bytes_copied`` counter records every materialization, which gives an
exact conservation law these tests enforce end to end — including under
loss, duplication, and reordering fault windows:

    sum(bytes_copied over endpoints)
        == sum(len of each distinct wire buffer put on the network)
         + sum(size of each delivered message)

Any hidden copy on the receive path (``bytes(view)``, a per-segment
join, a defensive slice copy) breaks the equality.
"""

from repro.net import LinkFault
from repro.pairedmsg import PairedEndpoint, PairedMessageConfig
from repro.pairedmsg import endpoint as endpoint_mod
from repro.pairedmsg import segments as seg
from tests.pairedmsg.test_endpoint import make_world


def echo_server(endpoint, served=None):
    def body():
        while True:
            msg = yield from endpoint.next_call()
            if served is not None:
                served.append((msg.call_number, msg.data))
            yield from endpoint.send_return(msg.peer, msg.call_number,
                                            msg.data)
    return body


class _WireLedger:
    """Bus subscriber keeping every distinct wire buffer (strong refs,
    so ids cannot be recycled) and every delivered-message size."""

    def __init__(self, sim):
        self.wires = {}          # id(payload) -> payload
        self.delivered = []      # MessageDelivered sizes
        sim.bus.subscribe(self._on_send, "net.send")
        sim.bus.subscribe(self._on_deliver, "pm.deliver")

    def _on_send(self, event):
        self.wires[id(event.payload)] = event.payload

    def _on_deliver(self, event):
        self.delivered.append(event.size)

    def wire_bytes(self):
        return sum(len(p) for p in self.wires.values())


# ---------------------------------------------------------------------------
# decode: views over the wire, no payload copies
# ---------------------------------------------------------------------------

def test_decode_returns_views_over_the_wire_buffer():
    message = bytes(range(256)) * 8      # 2048 bytes -> 4 segments of 512
    segments = seg.split_message(seg.MSG_CALL, 9, message, 512)
    wires = [s.wire() for s in segments]
    decoded = [seg.decode(w) for s, w in zip(segments, wires)]
    for wire, parsed in zip(wires, decoded):
        assert type(parsed.data) is memoryview
        # The payload is a slice of the datagram buffer itself.
        assert parsed.data.obj is wire
        assert parsed.data.nbytes == len(wire) - seg.HEADER_SIZE
    decoded.sort(key=lambda s: s.segment_number)
    assert b"".join(s.data for s in decoded) == message


def test_decode_of_control_segments_has_empty_view():
    ack = seg.make_ack(seg.MSG_CALL, 3, 4, 2)
    parsed = seg.decode(ack.wire())
    assert parsed.is_control
    assert len(parsed.data) == 0


def test_marked_wire_is_a_single_fresh_buffer():
    """wire_marked() materializes the please_ack variant directly (one
    join); it neither copies nor forces the plain wire."""
    segment = seg.split_message(seg.MSG_CALL, 5, b"x" * 300, 512)[0]
    marked = segment.wire_marked()
    assert seg.decode(marked).please_ack
    assert segment._wire is None          # plain wire never materialized
    assert bytes(seg.decode(marked).data) == b"x" * 300


# ---------------------------------------------------------------------------
# reassembly: stores wire views, joins exactly once per delivery
# ---------------------------------------------------------------------------

def test_reassembly_stores_wire_views_and_joins_exactly_once(monkeypatch):
    sim, net, machines, (cp, sp) = make_world(latency=2.0)
    ledger = _WireLedger(sim)
    config = PairedMessageConfig(max_segment_data=512)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    sp.spawn(echo_server(server)(), daemon=True)

    joins = []
    real_assemble = endpoint_mod._IncomingAssembly.assemble

    def spying_assemble(self):
        for view in self.received.values():
            assert type(view) is memoryview
            # Each stored segment payload aliases a transmitted wire
            # buffer — reassembly never copied it.
            assert id(view.obj) in ledger.wires
        joins.append((self.msg_type, self.call_number))
        return real_assemble(self)

    monkeypatch.setattr(endpoint_mod._IncomingAssembly, "assemble",
                        spying_assemble)

    message = bytes(range(256)) * 8      # 4 data segments each way

    def body():
        return (yield from client.call(server.addr, 1, message))

    reply = sim.run_process(body())
    assert reply == message
    # Exactly one join per delivered message: the call at the server,
    # the return at the client.
    assert joins == [(seg.MSG_CALL, 1), (seg.MSG_RETURN, 1)]
    assert ledger.delivered == [len(message), len(message)]

    copied = (client.counters["bytes_copied"]
              + server.counters["bytes_copied"])
    assert copied == ledger.wire_bytes() + sum(ledger.delivered)


def test_lossy_reassembly_under_fault_windows_keeps_exact_accounting():
    """Loss, duplication, and reordering force retransmissions (fresh
    marked wires) and duplicate/overlapping segment arrivals; delivery
    stays exactly-once and the copy ledger stays exact."""
    sim, net, machines, (cp, sp) = make_world(seed=7, latency=2.0)
    ledger = _WireLedger(sim)
    config = PairedMessageConfig(max_segment_data=256,
                                 retransmit_interval=40.0)
    client = PairedEndpoint(cp, config=config)
    server = PairedEndpoint(sp, port=500, config=config)
    served = []
    sp.spawn(echo_server(server, served)(), daemon=True)

    fault = LinkFault(loss=0.15, duplicate=0.15, reorder=0.4,
                      reorder_hold=10.0)
    payloads = {n: bytes([n]) * 1500 for n in range(1, 5)}  # 6 segments

    def body():
        replies = []
        net.add_fault(fault)
        for call_number, payload in payloads.items():
            reply = yield from client.call(server.addr, call_number,
                                           payload)
            replies.append(reply)
            if call_number == 2:
                net.remove_fault(fault)   # close the fault window
        return replies

    replies = sim.run_process(body())
    assert replies == list(payloads.values())
    assert served == list(payloads.items())

    # The fault window actually bit.
    assert net.packets_dropped > 0
    assert net.packets_duplicated > 0
    assert client.counters["wire_patches"] > 0   # marked retransmissions

    # Exactly-once delivery despite duplicates and retransmissions: one
    # reassembled hand-off per call and per return.
    assert sorted(ledger.delivered) == sorted(
        len(p) for p in payloads.values()) * 2

    # The conservation law: every byte the message path materialized is
    # either a distinct wire buffer or a delivered join — duplicates,
    # retransmission resends of cached wires, and dropped packets add
    # nothing, and reassembly itself copies nothing.
    copied = (client.counters["bytes_copied"]
              + server.counters["bytes_copied"])
    assert copied == ledger.wire_bytes() + sum(ledger.delivered)
