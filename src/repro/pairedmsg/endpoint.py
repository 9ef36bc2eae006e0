"""The paired message endpoint: send/receive protocol state machines (§4.2).

One :class:`PairedEndpoint` lives inside an OS process and multiplexes
paired-message exchanges with any number of peers over a single datagram
socket.  The protocol follows §4.2.2–§4.2.4 of the paper:

*Sending*: a message is divided into numbered segments, all transmitted
initially with no control bits; the sender then periodically retransmits
the first unacknowledged segment with *please ack* set, while removing
acknowledged segments from its queue.

*Receiving*: the receiver tracks the highest consecutively received
segment number (the acknowledgment number); on *please ack* it sends an
explicit acknowledgment; an out-of-order arrival triggers an immediate
acknowledgment so the sender retransmits the first lost segment.

*Implicit acknowledgments*: a return segment acknowledges the call with
the same call number; a call segment acknowledges any earlier return.

*Postponed acks*: when a segment completes a call message, the explicit
acknowledgment is postponed once in the hope that the return message will
serve as the implicit acknowledgment (§4.2.4).

*Crash detection*: while waiting for a return, the client probes the
server with a special control segment; silence beyond a timeout raises
:class:`PeerCrashed` (§4.2.3).

Every packet transmission and reception is charged to the owning process
(its syscall wrappers, or ``charge`` where the receive loop sleeps through
two calls at once), so the Table 4.3 execution profile falls out of running
this code.
"""

from __future__ import annotations

import dataclasses
import itertools
from heapq import heappop, heappush
from operator import attrgetter
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.host.process import OsProcess
from repro.net.addresses import ProcessAddress
from repro.obs import events as obs_events
from repro.pairedmsg import segments as seg
from repro.pairedmsg.segments import (
    MSG_CALL,
    MSG_PROBE,
    MSG_PROBE_REPLY,
    MSG_RETURN,
    Segment,
    SegmentFormatError,
)
from repro.sim.events import Condition, Event, Queue
from repro.sim.kernel import AnyOf, Sleep, SleepUntil

#: sort key: the order transfers came under the scheduler's watch.
_watch_order = attrgetter("watch_seq")

#: what an endpoint's keyed tables (``_sends``, ``_assemblies``,
#: ``_completed_returns``, ``_return_waiters``) hold before their first
#: entry and again once they drain: CPython never shrinks a dict.  Shared,
#: so never written: an insert swaps in a dict of its own
#: (``is _NO_ENTRIES``) first.
_NO_ENTRIES: Dict = {}

#: the same for ``_discarded_returns``, a set.
_NO_MARKS: set = set()

#: a peer's delivered call numbers stay a tuple up to this many.
_TUPLE_MEMORY = 8


@dataclasses.dataclass
class PairedMessageConfig:
    """Protocol tunables (milliseconds)."""

    max_segment_data: int = 1024
    retransmit_interval: float = 40.0
    max_retries: int = 10
    #: False (default): the Circus scheme — send all segments, retransmit
    #: the first unacknowledged one periodically (§4.2.2).  True: the
    #: Xerox PARC scheme — "an explicit acknowledgment of every segment
    #: but the last", one segment in flight at a time (§4.2.5); half the
    #: buffering, twice the packets.
    stop_and_wait: bool = False
    #: §4.2.4: "the retransmission strategy can be changed to retransmit
    #: all the remaining unacknowledged segments rather than just the
    #: first, depending on the reliability characteristics of the
    #: network."  True trades extra packets for fewer retransmission
    #: rounds on very lossy links.
    retransmit_all: bool = False
    probe_interval: float = 150.0   # silence before probing a peer
    crash_timeout: float = 800.0    # silence before declaring a crash
    delivered_memory: int = 128     # completed call numbers kept per peer
    #: user-mode CPU charged per message sent / received (protocol
    #: processing outside the kernel: header construction, queue
    #: management).  Calibrated so Circus(n=1) lands near Table 4.1.
    user_cost_send: float = 2.0
    user_cost_receive: float = 3.5


@dataclasses.dataclass
class CompletedMessage:
    """A fully reassembled incoming message, handed to the layer above."""

    peer: ProcessAddress
    msg_type: int
    call_number: int
    data: bytes


class PeerCrashed(Exception):
    """The peer stopped answering probes (crash or partition, §4.3.5)."""

    def __init__(self, peer: ProcessAddress):
        super().__init__("peer %s presumed crashed" % (peer,))
        self.peer = peer


class SendTimeout(Exception):
    """A message was retransmitted max_retries times with no acknowledgment."""

    def __init__(self, peer: ProcessAddress, call_number: int):
        super().__init__("send to %s (call %d) timed out" % (peer, call_number))
        self.peer = peer
        self.call_number = call_number


class _OutgoingTransfer:
    """Sender-side state for one message (§4.2.2's queue of unacked
    segments: acks are cumulative, so it is always ``segments[acked:]``)."""

    __slots__ = ("endpoint", "peer", "msg_type", "call_number", "segments",
                 "acked", "done", "retries", "watch_seq", "worker_active",
                 "_progress")

    def __init__(self, endpoint: "PairedEndpoint", peer: ProcessAddress,
                 msg_type: int, call_number: int, segs: Sequence[Segment]):
        self.endpoint = endpoint
        self.peer = peer
        self.msg_type = msg_type
        self.call_number = call_number
        #: may be shared between the per-peer transfers of one multicast
        #: send — per-transfer state lives in ``acked``, not here.
        self.segments = segs
        self.acked = 0
        self.done = Event(endpoint.sim, "xfer-done")
        self.retries = 0
        #: position in the endpoint's watch order, assigned when the
        #: retransmit scheduler takes the transfer on; 0 until then.
        self.watch_seq = 0
        #: True while an ephemeral worker process owns this transfer's
        #: current retransmission round.
        self.worker_active = False
        self._progress: Optional[Condition] = None

    @property
    def progress(self) -> Condition:
        """Signalled when the acknowledged prefix advances; built on first
        read, as only the stop-and-wait sender waits on it."""
        if self._progress is None:
            self._progress = Condition(self.endpoint.sim, "xfer-progress")
        return self._progress

    @property
    def key(self) -> Tuple[ProcessAddress, int, int]:
        return (self.peer, self.msg_type, self.call_number)

    def first_unacked(self) -> Optional[Segment]:
        if self.acked < len(self.segments):
            return self.segments[self.acked]
        return None

    def ack_through(self, ack_number: int) -> None:
        """Explicit cumulative acknowledgment: segments <= n received."""
        total = len(self.segments)
        acked = min(ack_number, total)
        if acked > self.acked:
            self.acked = acked
            self.retries = 0
            if self._progress is not None:
                self._progress.signal(ack_number)
        if self.acked == total:
            self.complete()

    def complete(self) -> None:
        self.acked = len(self.segments)
        if not self.done.fired:
            self.done.fire("acked")
            self.endpoint._transfer_finished(self)

    def fail(self) -> None:
        if not self.done.fired:
            sim = self.endpoint.sim
            if "pm.timeout" in sim.bus.wanted:
                sim.bus.emit(obs_events.TransferTimedOut(
                    t=sim.now, endpoint=self.endpoint.addr, peer=self.peer,
                    call_number=self.call_number,
                    proc=self.endpoint.process.name))
            self.done.fire("timeout")
            self.endpoint._transfer_finished(self)

    def cancel(self) -> None:
        """Abandon silently: the peer was declared crashed (§4.2.3), so
        the transfer ends with neither an ack nor a timeout — and, above
        all, no further retransmission."""
        self.acked = len(self.segments)
        if not self.done.fired:
            self.done.fire("crashed")
            self.endpoint._transfer_finished(self)


class _IncomingAssembly:
    """Receiver-side state for one message: segment queue + ack number."""

    def __init__(self, peer: ProcessAddress, msg_type: int,
                 call_number: int, total: int):
        self.peer = peer
        self.msg_type = msg_type
        self.call_number = call_number
        self.total = total
        #: segment payload views, joined into ``bytes`` exactly once at
        #: the application hand-off (:meth:`assemble`).
        self.received: Dict[int, seg.BytesLike] = {}
        self.ack_number = 0   # highest consecutive segment number received

    def add(self, segment: Segment) -> bool:
        """Insert a data segment; returns True if it was new."""
        if segment.segment_number in self.received:
            return False
        self.received[segment.segment_number] = segment.data
        while (self.ack_number + 1) in self.received:
            self.ack_number += 1
        return True

    @property
    def complete(self) -> bool:
        return self.ack_number == self.total

    def assemble(self) -> bytes:
        return b"".join(self.received[n] for n in range(1, self.total + 1))


class PairedEndpoint:
    """A connectionless paired-message protocol instance in one process."""

    # A new attribute is a new name here, set in __init__; a slotted name
    # takes no class-level default.
    __slots__ = ("process", "sim", "config", "sock", "_acked_by_return",
                 "_acked_by_call", "incoming_calls", "_sends", "_assemblies",
                 "_delivered_calls", "_delivered_returns",
                 "_completed_returns", "_return_waiters",
                 "_discarded_returns", "_last_heard", "_pending_control",
                 "counters", "_header_scratch", "_watched", "_watch_seq",
                 "_finished", "_due", "_sched_wake", "_scheduler",
                 "closed", "_receiver")

    def __init__(self, process: OsProcess, port: Optional[int] = None,
                 config: Optional[PairedMessageConfig] = None):
        self.process = process
        self.sim = process.sim
        self.config = config or PairedMessageConfig()
        self.sock = process.udp_socket(port)
        #: this endpoint's label values in the bus's site counts
        #: (``EventBus.counts``) of implicit acks by a RETURN and by a
        #: CALL; its duplicates are counted under ``addr`` itself.
        self._acked_by_return = (self.sock.addr, "return")
        self._acked_by_call = (self.sock.addr, "call")
        #: completed incoming call messages, for the RPC layer.
        self.incoming_calls: Queue = Queue(self.sim, "incoming-calls")
        self._sends: Dict[Tuple[ProcessAddress, int, int],
                          _OutgoingTransfer] = _NO_ENTRIES
        self._assemblies: Dict[Tuple[ProcessAddress, int, int],
                               _IncomingAssembly] = _NO_ENTRIES
        #: per peer, the call numbers delivered upward, oldest first: a
        #: tuple (most peers see one to three), a dict's keys past eight.
        self._delivered_calls: Dict[ProcessAddress, Collection[int]] = {}
        self._delivered_returns: Dict[ProcessAddress, Collection[int]] = {}
        self._completed_returns: Dict[Tuple[ProcessAddress, int],
                                      bytes] = _NO_ENTRIES
        self._return_waiters: Dict[Tuple[ProcessAddress, int],
                                   Event] = _NO_ENTRIES
        #: returns forgotten before they completed (:meth:`forget_return`)
        self._discarded_returns: set = _NO_MARKS
        self._last_heard: Dict[ProcessAddress, float] = {}
        self._pending_control: List[Tuple[Segment, ProcessAddress]] = []
        #: deterministic message-path work counters, surfaced by
        #: :meth:`stats` and aggregated by ``repro.bench.gated``.
        self.counters: Dict[str, int] = {
            "segment_encodes": 0,    # plain wires materialized (one join)
            "wire_patches": 0,       # marked wires materialized (one join)
            "wire_cache_hits": 0,    # transmissions served from a cache
            "packets_sent": 0,       # datagrams handed to sendmsg
            "daemons_spawned": 0,    # helper processes this endpoint made
            "retransmit_rounds": 0,
            "acks_sent": 0,
            "bytes_copied": 0,       # payload+header bytes written into
                                     # fresh message-path buffers (see
                                     # docs/PERFORMANCE.md): one wire per
                                     # segment, one marked wire per
                                     # retransmitted segment, one join at
                                     # the application hand-off — decode
                                     # and reassembly contribute zero.
        }
        #: the single preallocated header buffer all of this endpoint's
        #: encodes pack into (zero per-encode header objects).
        self._header_scratch = bytearray(seg.HEADER_SIZE)
        #: transfers under watch by the per-endpoint retransmit scheduler,
        #: by ``watch_seq`` — so in watch order, which is the order the
        #: scheduler spawns helpers in and therefore decides timestamps.
        self._watched: Dict[int, _OutgoingTransfer] = {}
        self._watch_seq = itertools.count(1)
        #: watched transfers whose ``done`` has fired and that no round
        #: worker owns: what the scheduler reaps on its next pass.
        self._finished: List[_OutgoingTransfer] = []
        #: ``(next_due, watch_seq)`` per scheduled retransmission round.
        #: Invalidated lazily: an entry whose transfer has finished since
        #: is skipped when it surfaces.
        self._due: List[Tuple[float, int]] = []
        self._sched_wake = Condition(self.sim, "pm-sched-wake")
        self._scheduler = None
        self.closed = False
        self.counters["daemons_spawned"] += 1
        self._receiver = process.spawn(self._receive_loop(), name="pm-recv",
                                       daemon=True)

    @property
    def addr(self) -> ProcessAddress:
        return self.sock.addr

    def __repr__(self) -> str:
        return "<PairedEndpoint %s>" % (self.addr,)

    # ------------------------------------------------------------------
    # Wire encoding (encode-once) and transmission accounting
    # ------------------------------------------------------------------

    def _wire(self, segment: Segment) -> bytes:
        """The segment's datagram, encoding at most once per segment.

        The header packs into the endpoint's preallocated scratch buffer
        and the payload view crosses into exactly one new buffer (the
        datagram itself) — the single copy the wire actually requires.
        """
        wire = segment._wire
        if wire is not None:
            self.counters["wire_cache_hits"] += 1
            return wire
        self.counters["segment_encodes"] += 1
        self.counters["bytes_copied"] += seg.HEADER_SIZE + len(segment.data)
        wire = segment.encode_with(self._header_scratch)
        segment._wire = wire
        return wire

    def _wire_marked(self, segment: Segment) -> bytes:
        """The *please ack* retransmission datagram, materialized once
        per segment directly from the header fields and the payload view
        (the plain wire is neither forced nor recopied)."""
        wire = segment._wire_marked
        if wire is not None:
            self.counters["wire_cache_hits"] += 1
            return wire
        if segment.please_ack:
            wire = self._wire(segment)
        else:
            self.counters["wire_patches"] += 1
            self.counters["bytes_copied"] += (seg.HEADER_SIZE
                                              + len(segment.data))
            wire = segment.encode_with(self._header_scratch, marked=True)
        segment._wire_marked = wire
        return wire

    def _transmit(self, wire: bytes, dst: ProcessAddress):
        self.counters["packets_sent"] += 1
        yield from self.process.sendmsg(self.sock, wire, dst)

    def _spawn_helper(self, gen, name: str):
        self.counters["daemons_spawned"] += 1
        return self.process.spawn(gen, name=name, daemon=True)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send_message(self, peer: ProcessAddress, msg_type: int,
                     call_number: int, data: bytes):
        """Generator: begin transmitting a message; returns the transfer.

        The transfer's ``done`` event fires with ``"acked"`` when every
        segment has been (explicitly or implicitly) acknowledged, or
        ``"timeout"`` after max_retries unanswered retransmissions.
        """
        self._require_open()
        key = (peer, msg_type, call_number)
        if key in self._sends:
            raise RuntimeError("duplicate send: %r" % (key,))
        segs = seg.split_message(msg_type, call_number, data,
                                 self.config.max_segment_data)
        transfer = _OutgoingTransfer(self, peer, msg_type, call_number, segs)
        if self._sends is _NO_ENTRIES:
            self._sends = {}
        self._sends[key] = transfer
        if "pm.send" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.MessageSent(
                t=self.sim.now, endpoint=self.addr, peer=peer,
                msg_type=msg_type, call_number=call_number,
                segments=len(segs), size=len(data),
                proc=self.process.name))
        # Protocol processing in user mode, then a timestamp and the
        # retransmission timer (the setitimer traffic of Table 4.3).
        yield from self.process.compute(self.config.user_cost_send)
        yield self.process.charge("setitimer")
        if self.config.stop_and_wait and len(segs) > 1:
            yield from self._send_stop_and_wait(transfer)
        else:
            for segment in segs:
                yield from self._transmit(self._wire(segment), peer)
        yield self.process.charge("gettimeofday")
        self._watch(transfer)
        return transfer

    def _send_stop_and_wait(self, transfer: _OutgoingTransfer):
        """The PARC scheme (§4.2.5): every segment but the last requests
        an explicit acknowledgment and waits for it before the next is
        sent — one segment's worth of buffering, twice the segments."""
        config = self.config
        for segment in transfer.segments[:-1]:
            # Encoded once per segment: the marked wire is spliced from
            # the cached plain encoding and reused by every retry below.
            marked_wire = self._wire_marked(segment)
            retries = 0
            sent_once = False
            while transfer.acked < segment.segment_number:
                if sent_once and "pm.retransmit" in self.sim.bus.wanted:
                    self.sim.bus.emit(obs_events.SegmentRetransmitted(
                        t=self.sim.now, endpoint=self.addr,
                        peer=transfer.peer, msg_type=transfer.msg_type,
                        call_number=transfer.call_number,
                        segment=segment.segment_number,
                        proc=self.process.name))
                sent_once = True
                yield from self._transmit(marked_wire, transfer.peer)
                index, _ = yield AnyOf(transfer.progress, transfer.done,
                                       Sleep(config.retransmit_interval))
                if index == 1:
                    return
                if index == 2:
                    retries += 1
                    if retries > config.max_retries:
                        transfer.fail()
                        return
        last = transfer.segments[-1]
        yield from self._transmit(self._wire(last), transfer.peer)

    def send_message_multicast(self, peers, msg_type: int, call_number: int,
                               data: bytes):
        """Generator: transmit one message to several peers with hardware
        multicast — one sendmsg per segment instead of one per peer per
        segment (§4.3.3).  Retransmission remains point-to-point.

        Returns the list of per-peer transfers.
        """
        self._require_open()
        peers = list(peers)
        # One immutable segment tuple shared by every per-peer transfer:
        # the segments (and their cached wire encodings) are common, only
        # the per-transfer acknowledged-prefix count is private.
        segs = tuple(seg.split_message(msg_type, call_number, data,
                                       self.config.max_segment_data))
        transfers = []
        for peer in peers:
            key = (peer, msg_type, call_number)
            if key in self._sends:
                raise RuntimeError("duplicate send: %r" % (key,))
            transfer = _OutgoingTransfer(self, peer, msg_type, call_number,
                                         segs)
            if self._sends is _NO_ENTRIES:
                self._sends = {}
            self._sends[key] = transfer
            transfers.append(transfer)
            if "pm.send" in self.sim.bus.wanted:
                self.sim.bus.emit(obs_events.MessageSent(
                    t=self.sim.now, endpoint=self.addr, peer=peer,
                    msg_type=msg_type, call_number=call_number,
                    segments=len(segs), size=len(data),
                    proc=self.process.name))
        yield from self.process.compute(self.config.user_cost_send)
        yield self.process.charge("setitimer")
        for segment in segs:
            self.counters["packets_sent"] += 1
            yield from self.process.sendmsg_multicast(
                self.sock, self._wire(segment), peers)
        yield self.process.charge("gettimeofday")
        for transfer in transfers:
            self._watch(transfer)
        return transfers

    def _abandon_peer(self, peer: ProcessAddress) -> None:
        """§4.2.3: a peer declared crashed gets silence — cancel every
        outstanding transfer addressed to it so the retransmission loops
        stop.  New calls may still be sent later (the peer may restart);
        only in-flight exchanges are abandoned."""
        for key, transfer in list(self._sends.items()):
            if key[0] == peer and not transfer.done.fired:
                transfer.cancel()

    def forget_return(self, peer: ProcessAddress, call_number: int) -> None:
        """Discard a return message nobody will wait for (a first-come
        collator decided early, §4.3.4): drop it if already complete and
        mark it so a late completion is dropped on arrival."""
        key = (peer, call_number)
        if self._pop_completed_return(key) is not None:
            return
        self._drop_return_waiter(key)
        if self._discarded_returns is _NO_MARKS:
            self._discarded_returns = set()
        self._discarded_returns.add(key)

    def _pop_completed_return(self, key: Tuple[ProcessAddress, int]):
        """The completed return message under ``key``, taken — or None."""
        returns = self._completed_returns
        data = returns.pop(key, None)
        if data is not None and not returns:
            self._completed_returns = _NO_ENTRIES
        return data

    def _drop_return_waiter(self, key: Tuple[ProcessAddress, int]) -> None:
        waiters = self._return_waiters
        if waiters.pop(key, None) is not None and not waiters:
            self._return_waiters = _NO_ENTRIES

    def send_call(self, peer: ProcessAddress, call_number: int, data: bytes):
        return (yield from self.send_message(peer, MSG_CALL, call_number, data))

    def send_return(self, peer: ProcessAddress, call_number: int, data: bytes):
        return (yield from self.send_message(peer, MSG_RETURN, call_number, data))

    # ------------------------------------------------------------------
    # The per-endpoint retransmit scheduler
    # ------------------------------------------------------------------
    #
    # §4.2.4's "general timer package" over the single interval timer:
    # one timer-wheel process per endpoint walks the due transfers,
    # replacing the old design of one ``pm-rexmit-%d`` daemon per call:
    # O(calls) process spawns and kernel timer wake-ups collapse to O(1)
    # per endpoint.  The scheduler is timing-exact with the old daemons:
    # a round fires at the same virtual time the per-transfer timer
    # would have, with the same syscall sequence, and the timer-cancel
    # ``setitimer`` is still charged when a transfer finishes.  When
    # several transfers are due (or finish) at once, ephemeral worker
    # processes restore the old daemons' concurrency so the packet
    # timeline is unchanged.

    def _watch(self, transfer: _OutgoingTransfer) -> None:
        """Place a transfer under the retransmit scheduler's watch."""
        transfer.watch_seq = next(self._watch_seq)
        self._watched[transfer.watch_seq] = transfer
        self._schedule_round(transfer)
        if transfer.done.fired:
            # Acknowledged while its segments were still going out.
            self._finished.append(transfer)
        self._ensure_scheduler()

    def _schedule_round(self, transfer: _OutgoingTransfer) -> None:
        heappush(self._due, (self.sim.now + self.config.retransmit_interval,
                             transfer.watch_seq))

    def _ensure_scheduler(self) -> None:
        if self._scheduler is None or not self._scheduler.alive:
            self._scheduler = self._spawn_helper(self._scheduler_loop(),
                                                 name="pm-sched")
        else:
            self._sched_wake.signal()

    def _transfer_finished(self, transfer: _OutgoingTransfer) -> None:
        """A transfer's ``done`` fired: wake the scheduler so it cancels
        the retransmission timer and drops the sender-side state at the
        completion time, exactly as the per-transfer daemon did.  (A
        transfer not yet watched is reported by :meth:`_watch`, one whose
        round is still running by :meth:`_round_worker`.)"""
        if transfer.watch_seq and not transfer.worker_active:
            self._finished.append(transfer)
        if self._scheduler is not None and self._scheduler.alive:
            self._sched_wake.signal()

    def _scheduler_loop(self):
        watched = self._watched
        due_heap = self._due
        while True:
            # Finished transfers first: charge the timer-cancel setitimer
            # and drop the _sends entry (the old daemon's epilogue).
            finished = self._finished
            if finished:
                self._finished = []
                for transfer in finished:
                    del watched[transfer.watch_seq]
                if not watched:
                    watched.clear()   # give back a grown table's slots
                if len(finished) == 1:
                    yield from self._cancel_timer(finished[0])
                else:
                    # Simultaneous completions (e.g. _abandon_peer) were
                    # reaped by concurrent daemons; keep that concurrency,
                    # in watch order (they were reported in completion
                    # order).
                    finished.sort(key=_watch_order)
                    for transfer in finished:
                        self._spawn_helper(self._cancel_timer(transfer),
                                           name="pm-reap")
                continue
            now = self.sim.now
            # Surface the rounds that are due.  What stays on top of the
            # heap afterwards is the earliest round, in the future, of a
            # transfer still in progress: the next deadline.
            due = []
            while due_heap:
                transfer = watched.get(due_heap[0][1])
                if transfer is None or transfer.done.fired:
                    heappop(due_heap)   # finished since it was scheduled
                elif due_heap[0][0] <= now:
                    heappop(due_heap)
                    due.append(transfer)
                else:
                    break
            if due:
                if len(due) == 1 and len(watched) == 1:
                    # The only watched transfer: nothing else can come
                    # due mid-round, so run it inline with no spawn.
                    yield from self._retransmit_round(due[0])
                else:
                    due.sort(key=_watch_order)
                    for transfer in due:
                        transfer.worker_active = True
                        self._spawn_helper(self._round_worker(transfer),
                                           name="pm-rexmit")
                continue
            if not due_heap:
                yield self._sched_wake
                continue
            yield AnyOf(self._sched_wake, Sleep(due_heap[0][0] - now))

    def _cancel_timer(self, transfer: _OutgoingTransfer):
        # Cancelling the retransmission timer is one more setitimer.
        yield self.process.charge("setitimer")
        sends = self._sends
        if sends.pop(transfer.key, None) is not None and not sends:
            self._sends = _NO_ENTRIES

    def _retransmit_round(self, transfer: _OutgoingTransfer):
        """One retransmission round (§4.2.2): the body of the old
        per-transfer loop, with the wire bytes served from the cache."""
        config = self.config
        if transfer.done.fired:
            return
        first = transfer.first_unacked()
        if first is None:
            transfer.complete()
            return
        transfer.retries += 1
        if transfer.retries > config.max_retries:
            transfer.fail()
            return
        if config.retransmit_all:
            outstanding = transfer.segments[transfer.acked:]
        else:
            outstanding = [first]
        self.counters["retransmit_rounds"] += 1
        yield from self.process.sigblock()
        for segment in outstanding:
            if "pm.retransmit" in self.sim.bus.wanted:
                self.sim.bus.emit(obs_events.SegmentRetransmitted(
                    t=self.sim.now, endpoint=self.addr,
                    peer=transfer.peer, msg_type=transfer.msg_type,
                    call_number=transfer.call_number,
                    segment=segment.segment_number,
                    proc=self.process.name))
            yield from self._transmit(self._wire_marked(segment),
                                      transfer.peer)
        yield from self.process.sigsetmask()
        self._schedule_round(transfer)

    def _round_worker(self, transfer: _OutgoingTransfer):
        try:
            yield from self._retransmit_round(transfer)
        finally:
            transfer.worker_active = False
            if transfer.done.fired:
                self._finished.append(transfer)
            self._sched_wake.signal()

    # ------------------------------------------------------------------
    # Waiting for a return message (client side)
    # ------------------------------------------------------------------

    def wait_return(self, peer: ProcessAddress, call_number: int):
        """Generator: the return message for a call, with crash detection.

        Probes the peer during long silences (§4.2.3); raises
        :class:`PeerCrashed` when the silence exceeds the crash timeout.
        """
        self._require_open()
        config = self.config
        key = (peer, call_number)
        started = self.sim.now
        self._last_heard.setdefault(peer, started)
        while True:
            data = self._pop_completed_return(key)
            if data is not None:
                self._drop_return_waiter(key)
                yield from self.process.compute(config.user_cost_receive)
                yield self.process.charge("gettimeofday")
                return data
            waiter = self._return_waiters.get(key)
            if waiter is None or waiter.fired:
                waiter = Event(self.sim, "return-waiter")
                if self._return_waiters is _NO_ENTRIES:
                    self._return_waiters = {}
                self._return_waiters[key] = waiter
            index, _ = yield AnyOf(waiter, Sleep(config.probe_interval))
            if index == 0:
                continue  # loop re-checks _completed_returns
            silence = self.sim.now - self._last_heard.get(peer, started)
            if silence >= config.crash_timeout:
                self._drop_return_waiter(key)
                if "pm.crash" in self.sim.bus.wanted:
                    self.sim.bus.emit(obs_events.PeerCrashDeclared(
                        t=self.sim.now, endpoint=self.addr, peer=peer,
                        silence=silence, call_number=call_number,
                        proc=self.process.name))
                self._abandon_peer(peer)
                raise PeerCrashed(peer)
            if silence >= config.probe_interval:
                probe = seg.make_probe(call_number)
                if "pm.probe" in self.sim.bus.wanted:
                    self.sim.bus.emit(obs_events.ProbeSent(
                        t=self.sim.now, endpoint=self.addr, peer=peer,
                        call_number=call_number, proc=self.process.name))
                yield from self._transmit(self._wire(probe), peer)

    def call(self, peer: ProcessAddress, call_number: int, data: bytes):
        """Generator: a complete one-to-one exchange (send call, await return).

        This is the conventional-RPC degenerate case the Table 4.1 tests
        exercise with a troupe of one.
        """
        yield from self.send_call(peer, call_number, data)
        return (yield from self.wait_return(peer, call_number))

    # ------------------------------------------------------------------
    # Receiving (server side surface)
    # ------------------------------------------------------------------

    def ping(self, peer: ProcessAddress, timeout: float = 500.0):
        """Generator: an "are you there?" probe (§6.1's null call used by
        the binding agent's garbage collector).  Returns True if the peer
        answered within the timeout."""
        self._require_open()
        sent_at = self.sim.now
        probe = seg.make_probe(0)
        if "pm.probe" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.ProbeSent(
                t=self.sim.now, endpoint=self.addr, peer=peer,
                call_number=0, proc=self.process.name))
        yield from self._transmit(self._wire(probe), peer)
        deadline = sent_at + timeout
        while self.sim.now < deadline:
            remaining = deadline - self.sim.now
            step = min(remaining, 20.0)
            yield Sleep(step)
            heard = self._last_heard.get(peer)
            if heard is not None and heard >= sent_at:
                return True
        return False

    def next_call(self):
        """Generator: the next completed incoming call message."""
        self._require_open()
        message = yield self.incoming_calls.get()
        yield from self.process.compute(self.config.user_cost_receive)
        return message

    # ------------------------------------------------------------------
    # The receive loop
    # ------------------------------------------------------------------

    def _receive_loop(self):
        """select → recvmsg → sigblock → handle → sigsetmask, per datagram
        (§4.4.1) — with each run of back-to-back syscalls charged as it
        begins and slept through in one wake-up, at the float the chain
        of single sleeps reaches: ``(now + c1) + c2``, in that order."""
        sim, sock, charge = self.sim, self.sock, self.process.charge
        pending = self._pending_control
        yield charge("select")
        while not self.closed and self.process.alive:
            datagram = sock.recv_nowait()
            if datagram is None:
                datagram = yield sock.recv()
            yield SleepUntil((sim.now + charge("recvmsg").delay)
                             + charge("sigblock").delay)
            try:
                segment = seg.decode(datagram.payload)
            except SegmentFormatError:
                segment = None  # garbled: checksum already made it "lost"
            if segment is not None:
                self._handle_segment(datagram.src, segment)
            if pending:
                yield charge("sigsetmask")
                # Flush control traffic (acks, probe replies) generated
                # above: each goes out between two sleeps.
                for control, dst in pending:
                    if control.ack:
                        self.counters["acks_sent"] += 1
                    yield from self._transmit(self._wire(control), dst)
                pending.clear()
                yield charge("select")
            else:
                yield SleepUntil((sim.now + charge("sigsetmask").delay)
                                 + charge("select").delay)

    def _handle_segment(self, src: ProcessAddress, segment: Segment) -> None:
        self._last_heard[src] = self.sim.now
        if segment.msg_type == MSG_PROBE:
            self._pending_control.append(
                (seg.make_probe_reply(segment.call_number), src))
            return
        if segment.msg_type == MSG_PROBE_REPLY:
            return  # its only effect is updating _last_heard
        if segment.ack:
            self._handle_explicit_ack(src, segment)
            return
        self._handle_data_segment(src, segment)

    def _handle_explicit_ack(self, src: ProcessAddress, segment: Segment) -> None:
        transfer = self._sends.get((src, segment.msg_type, segment.call_number))
        if transfer is not None:
            if "pm.ack_explicit" in self.sim.bus.wanted:
                self.sim.bus.emit(obs_events.ExplicitAckReceived(
                    t=self.sim.now, endpoint=self.addr, peer=src,
                    msg_type=segment.msg_type,
                    call_number=segment.call_number,
                    ack_number=segment.segment_number,
                    proc=self.process.name))
            transfer.ack_through(segment.segment_number)

    def _handle_data_segment(self, src: ProcessAddress, segment: Segment) -> None:
        # Implicit acknowledgments (§4.2.2).
        if segment.msg_type == MSG_RETURN:
            call_xfer = self._sends.get((src, MSG_CALL, segment.call_number))
            if call_xfer is not None:
                if not call_xfer.done.fired:
                    bus = self.sim.bus
                    acks = bus.counts["pm.ack_implicit"]
                    by_return = self._acked_by_return
                    acks[by_return] = acks.get(by_return, 0) + 1
                    if "pm.ack_implicit" in bus.wanted:
                        bus.emit(obs_events.ImplicitAck(
                            t=self.sim.now, endpoint=self.addr, peer=src,
                            call_number=segment.call_number, by="return",
                            proc=self.process.name))
                call_xfer.complete()
        elif segment.msg_type == MSG_CALL:
            for key, transfer in list(self._sends.items()):
                if (key[0] == src and key[1] == MSG_RETURN
                        and key[2] < segment.call_number):
                    if not transfer.done.fired:
                        bus = self.sim.bus
                        acks = bus.counts["pm.ack_implicit"]
                        by_call = self._acked_by_call
                        acks[by_call] = acks.get(by_call, 0) + 1
                        if "pm.ack_implicit" in bus.wanted:
                            bus.emit(obs_events.ImplicitAck(
                                t=self.sim.now, endpoint=self.addr,
                                peer=src, call_number=key[2], by="call",
                                proc=self.process.name))
                    transfer.complete()

        # Duplicate suppression for messages already delivered upward.
        if self._already_delivered(src, segment):
            bus = self.sim.bus
            dups = bus.counts["pm.dup"]
            addr = self.addr
            dups[addr] = dups.get(addr, 0) + 1
            if "pm.dup" in bus.wanted:
                bus.emit(obs_events.DuplicateSuppressed(
                    t=self.sim.now, endpoint=addr, peer=src,
                    msg_type=segment.msg_type,
                    call_number=segment.call_number,
                    proc=self.process.name))
            self._pending_control.append(
                (seg.make_ack(segment.msg_type, segment.call_number,
                              segment.total_segments, segment.total_segments),
                 src))
            return

        key = (src, segment.msg_type, segment.call_number)
        assemblies = self._assemblies
        assembly = assemblies.get(key)
        held = assembly is not None
        if not held:
            assembly = _IncomingAssembly(src, segment.msg_type,
                                         segment.call_number,
                                         segment.total_segments)
        out_of_order = segment.segment_number > assembly.ack_number + 1
        assembly.add(segment)

        if assembly.complete:
            # A message complete on its first segment is never tabled.
            if held:
                del assemblies[key]
                if not assemblies:
                    self._assemblies = _NO_ENTRIES
            self._deliver(assembly, requested_ack=segment.please_ack)
            return
        if not held:
            if assemblies is _NO_ENTRIES:
                assemblies = self._assemblies = {}
            assemblies[key] = assembly

        if out_of_order or segment.please_ack:
            # §4.2.4: a revealed gap is acked at once, unasked, so the
            # sender retransmits the first lost segment rather than an
            # earlier one.
            self._pending_control.append(
                (seg.make_ack(segment.msg_type, segment.call_number,
                              segment.total_segments, assembly.ack_number),
                 src))

    def _deliver(self, assembly: _IncomingAssembly, requested_ack: bool) -> None:
        src = assembly.peer
        key = (src, assembly.msg_type, assembly.call_number)
        if "pm.deliver" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.MessageDelivered(
                t=self.sim.now, endpoint=self.addr, peer=src,
                msg_type=assembly.msg_type,
                call_number=assembly.call_number,
                size=sum(len(d) for d in assembly.received.values()),
                proc=self.process.name))
        if assembly.msg_type == MSG_CALL:
            self._remember_delivery(self._delivered_calls, src,
                                    assembly.call_number)
            # §4.2.4: the ack of a just-completed call is postponed even if
            # please_ack was set, hoping the return message arrives soon
            # enough to serve as the implicit acknowledgment.  Subsequent
            # retransmissions hit the duplicate path and are acked promptly.
            data = assembly.assemble()
            self.counters["bytes_copied"] += len(data)
            self.incoming_calls.put(CompletedMessage(
                src, MSG_CALL, assembly.call_number, data))
        else:
            self._remember_delivery(self._delivered_returns, src,
                                    assembly.call_number)
            if requested_ack:
                # A return completed by a retransmission: ack promptly so
                # the server stops retransmitting.
                self._pending_control.append(
                    (seg.make_ack(MSG_RETURN, assembly.call_number,
                                  assembly.total, assembly.total), src))
            key = (src, assembly.call_number)
            marks = self._discarded_returns
            if key in marks:
                marks.discard(key)
                if not marks:
                    self._discarded_returns = _NO_MARKS
                return
            data = assembly.assemble()
            self.counters["bytes_copied"] += len(data)
            if self._completed_returns is _NO_ENTRIES:
                self._completed_returns = {}
            self._completed_returns[key] = data
            waiter = self._return_waiters.get(key)
            if waiter is not None and not waiter.fired:
                waiter.fire()

    def _already_delivered(self, src: ProcessAddress, segment: Segment) -> bool:
        if segment.msg_type == MSG_CALL:
            table = self._delivered_calls
        else:
            table = self._delivered_returns
        return segment.call_number in table.get(src, ())

    def _remember_delivery(self, table, src: ProcessAddress,
                           call_number: int) -> None:
        """Remember a delivered call number long enough to suppress replays
        of delayed duplicates (§4.2.4), bounded in size."""
        per_peer = table.get(src, ())
        limit = self.config.delivered_memory
        if per_peer.__class__ is tuple:
            if call_number not in per_peer:
                per_peer = (*per_peer, call_number)[-limit:] if limit else ()
                table[src] = per_peer if len(per_peer) <= _TUPLE_MEMORY \
                    else dict.fromkeys(per_peer)
            return
        per_peer[call_number] = None
        while len(per_peer) > limit:
            del per_peer[next(iter(per_peer))]   # the oldest: insertion order

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Protocol state occupancy — the §4.2.4 bookkeeping a
        connectionless endpoint must bound."""
        stats = {
            "outgoing_transfers": len(self._sends),
            "incoming_assemblies": len(self._assemblies),
            "buffered_returns": len(self._completed_returns),
            "peers_heard": len(self._last_heard),
            "delivered_call_memory": sum(
                len(v) for v in self._delivered_calls.values()),
            "watched_transfers": len(self._watched),
        }
        stats.update(self.counters)
        return stats

    def sweep_idle(self, max_age: float) -> int:
        """Discard state for peers silent longer than ``max_age`` ms
        (§4.2.4: exchange state "may be discarded once sufficient time
        has passed to guarantee that no delayed segments ... can
        arrive").  Returns the number of peers swept."""
        now = self.sim.now
        stale = [peer for peer, heard in self._last_heard.items()
                 if now - heard > max_age]
        for peer in stale:
            del self._last_heard[peer]
            self._delivered_calls.pop(peer, None)
            self._delivered_returns.pop(peer, None)
            for key in [k for k in self._completed_returns if k[0] == peer]:
                self._pop_completed_return(key)
            for key in [k for k in self._assemblies if k[0] == peer]:
                del self._assemblies[key]
            # a forgotten return from a silent (crashed) peer never
            # completes, so its mark goes with the peer.
            marks = self._discarded_returns
            for key in [k for k in marks if k[0] == peer]:
                marks.discard(key)
        if not self._assemblies:
            self._assemblies = _NO_ENTRIES
        if not self._discarded_returns:
            self._discarded_returns = _NO_MARKS
        return len(stale)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._receiver.kill()
            # Tear down the retransmit scheduler so no timers outlive the
            # endpoint (the per-transfer daemons used to keep running).
            if self._scheduler is not None and self._scheduler.alive:
                self._scheduler.kill()
            self._watched.clear()
            del self._finished[:], self._due[:]
            self.sock.close()

    def _require_open(self) -> None:
        if self.closed:
            raise RuntimeError("endpoint %s is closed" % (self.addr,))
