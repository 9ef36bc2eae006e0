"""Segment format (Figure 4.2 of the paper).

A segment is a UDP datagram with an 8-byte header:

    byte 0   message type: 0 = call, 1 = return (2/3 = probe/probe reply,
             the "special control segment" of §4.2.3)
    byte 1   control bits: bit 0 = please ack, bit 1 = ack
    byte 2   total segments in the message (1..255)
    byte 3   segment number (data: 1..total; ack: cumulative ack number 0..total)
    bytes 4-7  call number, 32-bit unsigned, most significant byte first

A *data segment* carries a portion of the message after the header; a
*control segment* is header-only and carries or requests acknowledgment.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Final, List, Optional, Union


#: Anything the wire layer may hand us or we may hand it.  Payload slices
#: travel as :class:`memoryview` so reassembly never copies them; the
#: single ``bytes`` materialization happens at the application hand-off.
BytesLike = Union[bytes, bytearray, memoryview]

MSG_CALL: Final = 0
MSG_RETURN: Final = 1
MSG_PROBE: Final = 2
MSG_PROBE_REPLY: Final = 3

_MESSAGE_TYPES: Final = (MSG_CALL, MSG_RETURN, MSG_PROBE, MSG_PROBE_REPLY)

PLEASE_ACK: Final = 0x01
ACK: Final = 0x02

_HEADER: Final = struct.Struct("!BBBBI")
HEADER_SIZE: Final = _HEADER.size

MAX_SEGMENTS: Final = 255
MAX_CALL_NUMBER: Final = 0xFFFFFFFF


class SegmentFormatError(Exception):
    """A datagram could not be parsed as a protocol segment."""


class MessageTooLarge(Exception):
    """The message needs more than 255 segments (§4.2.1's byte-wide field)."""


@dataclasses.dataclass(slots=True)
class Segment:
    """One protocol segment, decoded.

    ``data`` may be any bytes-like object; :func:`split_message` passes
    the message itself when it fits one segment and memoryview slices
    otherwise, so a large message is never copied segment-wise.
    The encoded datagram is cached (:meth:`wire`) so retransmissions and
    multicast fan-out reuse one buffer instead of repacking the header
    and recopying the payload per transmission.
    """

    msg_type: int
    please_ack: bool
    ack: bool
    total_segments: int
    segment_number: int
    call_number: int
    data: BytesLike = b""
    #: cached encodings; ``dataclasses.replace`` resets them.
    _wire: Optional[bytes] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)
    _wire_marked: Optional[bytes] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def _control(self, marked: bool) -> int:
        control = ACK if self.ack else 0
        if marked or self.please_ack:
            control |= PLEASE_ACK
        return control

    def encode(self) -> bytes:
        """Encode into a fresh datagram: the payload crosses into exactly
        one new buffer (the ``join``); header-only segments are just the
        packed header."""
        header = _HEADER.pack(self.msg_type, self._control(False),
                              self.total_segments, self.segment_number,
                              self.call_number)
        if len(self.data):
            return b"".join((header, self.data))
        return header

    def encode_with(self, header_scratch: bytearray,
                    marked: bool = False) -> bytes:
        """Encode using a caller-owned ``HEADER_SIZE`` scratch buffer.

        The header is packed in place — no per-encode header object —
        and the datagram is materialized by a single ``join``.  With
        ``marked=True`` the *please ack* bit is set directly in the
        header, so a retransmission wire is built without ever touching
        (or forcing) the plain wire.
        """
        _HEADER.pack_into(header_scratch, 0, self.msg_type,
                          self._control(marked), self.total_segments,
                          self.segment_number, self.call_number)
        if len(self.data):
            return b"".join((header_scratch, self.data))
        return bytes(header_scratch)

    def wire(self) -> bytes:
        """The encoded datagram, computed once and cached."""
        wire = self._wire
        if wire is None:
            wire = self._wire = self.encode()
        return wire

    def wire_marked(self) -> bytes:
        """The datagram with *please ack* set, as retransmissions send it
        (§4.2.2).  Built directly from the header fields and the payload
        view in one materialization — the plain wire is neither forced
        nor copied — and itself cached for later rounds."""
        wire = self._wire_marked
        if wire is None:
            if self.please_ack:
                wire = self.wire()
            else:
                header = _HEADER.pack(self.msg_type, self._control(True),
                                      self.total_segments,
                                      self.segment_number, self.call_number)
                if len(self.data):
                    wire = b"".join((header, self.data))
                else:
                    wire = header
            self._wire_marked = wire
        return wire

    @property
    def is_control(self) -> bool:
        return not len(self.data) and (self.ack or self.msg_type in
                                       (MSG_PROBE, MSG_PROBE_REPLY))

    def __repr__(self) -> str:
        kind = {MSG_CALL: "call", MSG_RETURN: "return",
                MSG_PROBE: "probe", MSG_PROBE_REPLY: "probe-reply"}[self.msg_type]
        flags = ""
        if self.please_ack:
            flags += "+please_ack"
        if self.ack:
            flags += "+ack"
        return "<Segment %s#%d %d/%d%s (%d bytes)>" % (
            kind, self.call_number, self.segment_number,
            self.total_segments, flags, len(self.data))


def decode(payload: BytesLike) -> Segment:
    """Parse a datagram into a :class:`Segment`.

    Zero-copy: the header is unpacked in place and ``data`` is a
    :class:`memoryview` slice over the datagram, so the payload bytes
    are never duplicated between the wire and reassembly.
    """
    if len(payload) < HEADER_SIZE:
        raise SegmentFormatError("short datagram: %d bytes" % len(payload))
    msg_type, control, total, number, call_number = _HEADER.unpack_from(
        payload, 0)
    if msg_type not in _MESSAGE_TYPES:
        raise SegmentFormatError("bad message type: %d" % msg_type)
    if control & ~(PLEASE_ACK | ACK):
        raise SegmentFormatError("unknown control bits: %#x" % control)
    view = payload if type(payload) is memoryview else memoryview(payload)
    return Segment(
        msg_type=msg_type,
        please_ack=bool(control & PLEASE_ACK),
        ack=bool(control & ACK),
        total_segments=total,
        segment_number=number,
        call_number=call_number,
        data=view[HEADER_SIZE:],
    )


def split_message(msg_type: int, call_number: int, data: BytesLike,
                  max_data: int) -> List[Segment]:
    """Divide a message into numbered segments (§4.2.2).

    Segment numbers start at 1; every segment of the message carries the
    same type, total count, and call number.
    """
    if max_data < 1:
        raise ValueError("max_data must be at least 1")
    if not 0 <= call_number <= MAX_CALL_NUMBER:
        raise ValueError("call number out of range: %r" % call_number)
    if len(data) <= max_data:
        return [Segment(msg_type, False, False, 1, 1, call_number, data)]
    view = memoryview(data)
    chunks = [view[i:i + max_data] for i in range(0, len(data), max_data)]
    if len(chunks) > MAX_SEGMENTS:
        raise MessageTooLarge(
            "%d bytes needs %d segments (max %d)" % (
                len(data), len(chunks), MAX_SEGMENTS))
    return [
        Segment(msg_type=msg_type, please_ack=False, ack=False,
                total_segments=len(chunks), segment_number=index + 1,
                call_number=call_number, data=chunk)
        for index, chunk in enumerate(chunks)
    ]


def make_ack(msg_type: int, call_number: int, total_segments: int,
             ack_number: int) -> Segment:
    """An explicit acknowledgment: all segments <= ack_number received."""
    return Segment(msg_type=msg_type, please_ack=False, ack=True,
                   total_segments=total_segments, segment_number=ack_number,
                   call_number=call_number)


def make_probe(call_number: int) -> Segment:
    """The §4.2.3 crash-detection probe ("are you there?")."""
    return Segment(msg_type=MSG_PROBE, please_ack=True, ack=False,
                   total_segments=1, segment_number=1,
                   call_number=call_number)


def make_probe_reply(call_number: int) -> Segment:
    return Segment(msg_type=MSG_PROBE_REPLY, please_ack=False, ack=True,
                   total_segments=1, segment_number=1,
                   call_number=call_number)
