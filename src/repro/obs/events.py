"""The event taxonomy: one typed dataclass per observable occurrence.

Kinds are dotted names grouped by layer; subscribe with a prefix filter
(``"pm."`` for every paired-message event).  The full taxonomy is
documented in ``docs/OBSERVABILITY.md``.

=========  ==========================================================
prefix     layer
=========  ==========================================================
``sim.``   simulation kernel: process spawn/exit
``net.``   the wire: per-datagram send/deliver/drop/duplicate
``pm.``    paired messages: sends, retransmits, acks, probes, crashes
``rpc.``   replicated calls: one-to-many start, per-replica results,
           collation verdicts, many-to-one gather/execute/return
``txn.``   transactions: lock waits, deadlocks, commit votes/outcomes
``bind.``  the Ringmaster: lookups, membership changes, stale
           bindings, get_state transfers
=========  ==========================================================

Every event carries ``t``, the virtual time (ms) at emission.  Fields
referencing addresses hold :class:`~repro.net.addresses.ProcessAddress`
values (render with ``str``); thread IDs are pre-stringified so events
are cheap to serialize.

Each class also declares whether its kind is *causal* (``causal = True``;
the default is False, "passive").  The causal kinds are the fixed
vocabulary the causal clocks (:mod:`repro.obs.clocks`) tick on, and what
the bus builds under a stamper whether or not anybody subscribed:

- the two ends of every happens-before edge — ``pm.send`` /
  ``pm.retransmit`` → ``pm.deliver``, ``rpc.call_start`` →
  ``rpc.exec_start``, ``rpc.return`` → ``rpc.result``, and
  ``mon.violation``, which merges its evidence;
- every kind a built-in monitor cites as evidence (``rpc.collate``,
  ``txn.vote``, ``txn.commit``, ``pm.crash``, ``pm.probe``,
  ``bind.member``): a violation's frontier is the merge of its evidence
  stamps, so evidence must own a tick;
- ``rpc.call_end``, whose stamp the operation history records as
  ``vc_return``.

Everything else (``net.*``, ``sim.*``, acks, duplicates, lock traffic,
…) is passive: built only when somebody subscribed to it, and stamped
without moving a clock.  A new kind is causal only if it is one of those
three things; a custom monitor should cite causal kinds as evidence.

A stamped event holds its stamp as one tuple it shares with every other
holder of that stamp: the Lamport clock first, then one count per node
of the domain; ``lamport`` and ``vc`` are read from it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Optional, Tuple


class _Stamped:
    """The causal stamp a :class:`~repro.obs.clocks.ClockDomain` sets at
    emission time.  Slots rather than fields: an event that was never
    stamped has none of them (``getattr(event, "vc", None)``).  Both
    clocks are read from the domain's shared stamp tuple ``_vt``: entry
    0 is ``lamport``, entry ``i + 1`` counts node ``_names[i]``, and
    ``vc`` is built on every read.  The setters are for hand-built
    evidence."""

    __slots__ = ("node", "_vt", "_names")

    node: str

    @property
    def lamport(self) -> int:
        return self._vt[0]

    @lamport.setter
    def lamport(self, lamport: int) -> None:
        self._vt = (lamport,) + getattr(self, "_vt", (0,))[1:]

    @property
    def vc(self) -> Dict[str, int]:
        return {name: count for name, count in zip(self._names, self._vt[1:])
                if count}

    @vc.setter
    def vc(self, vc: Dict[str, int]) -> None:
        self._names = tuple(vc)
        self._vt = (getattr(self, "_vt", (0,))[0],) + tuple(vc.values())


@dataclasses.dataclass(slots=True)
class ObsEvent(_Stamped):
    """Base class: a kind tag plus the virtual time of emission."""

    kind: ClassVar[str] = "event"
    #: does this kind tick its node's causal clocks (module docstring)?
    causal: ClassVar[bool] = False
    t: float


# ---------------------------------------------------------------------------
# sim.* — the discrete-event kernel
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class ProcessSpawned(ObsEvent):
    kind: ClassVar[str] = "sim.spawn"
    name: str = ""
    daemon: bool = False


@dataclasses.dataclass(slots=True)
class ProcessExited(ObsEvent):
    kind: ClassVar[str] = "sim.exit"
    name: str = ""
    killed: bool = False
    failed: bool = False     # terminated by an unhandled exception


# ---------------------------------------------------------------------------
# net.* — the simulated wire
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class PacketSent(ObsEvent):
    """One datagram handed to the wire (multicast emits one per
    destination, mirroring per-recipient delivery)."""

    kind: ClassVar[str] = "net.send"
    src: Any = None          # ProcessAddress
    dst: Any = None          # ProcessAddress
    payload: bytes = b""

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclasses.dataclass(slots=True)
class PacketDelivered(ObsEvent):
    kind: ClassVar[str] = "net.deliver"
    src: Any = None
    dst: Any = None
    size: int = 0


@dataclasses.dataclass(slots=True)
class PacketDropped(ObsEvent):
    kind: ClassVar[str] = "net.drop"
    src: Any = None
    dst: Any = None
    #: why: 'loss' | 'host-down' | 'partition' | 'no-host' | 'no-port'
    #: | 'dst-down' | 'partition-in-flight'
    reason: str = "loss"


@dataclasses.dataclass(slots=True)
class PacketDuplicated(ObsEvent):
    kind: ClassVar[str] = "net.dup"
    src: Any = None
    dst: Any = None


# ---------------------------------------------------------------------------
# pm.* — the paired message protocol (§4.2)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class MessageSent(ObsEvent):
    """A call/return message began transmission (all initial segments)."""

    kind: ClassVar[str] = "pm.send"
    causal: ClassVar[bool] = True
    endpoint: Any = None     # sender's ProcessAddress
    peer: Any = None
    msg_type: int = 0
    call_number: int = 0
    segments: int = 0
    size: int = 0
    proc: str = ""           # owning process name (causal attribution)


@dataclasses.dataclass(slots=True)
class SegmentRetransmitted(ObsEvent):
    kind: ClassVar[str] = "pm.retransmit"
    causal: ClassVar[bool] = True
    endpoint: Any = None
    peer: Any = None
    msg_type: int = 0
    call_number: int = 0
    segment: int = 0
    proc: str = ""


@dataclasses.dataclass(slots=True)
class DuplicateSuppressed(ObsEvent):
    """A segment of an already-delivered message arrived again (§4.2.4)."""

    kind: ClassVar[str] = "pm.dup"
    endpoint: Any = None
    peer: Any = None
    msg_type: int = 0
    call_number: int = 0
    proc: str = ""


@dataclasses.dataclass(slots=True)
class ExplicitAckReceived(ObsEvent):
    kind: ClassVar[str] = "pm.ack_explicit"
    endpoint: Any = None
    peer: Any = None
    msg_type: int = 0
    call_number: int = 0
    ack_number: int = 0
    proc: str = ""


@dataclasses.dataclass(slots=True)
class ImplicitAck(ObsEvent):
    """A data segment served as the acknowledgment of an earlier
    transfer: a return acks its call, a call acks earlier returns."""

    kind: ClassVar[str] = "pm.ack_implicit"
    endpoint: Any = None
    peer: Any = None
    call_number: int = 0
    by: str = "return"       # 'return' | 'call'
    proc: str = ""


@dataclasses.dataclass(slots=True)
class ProbeSent(ObsEvent):
    kind: ClassVar[str] = "pm.probe"
    causal: ClassVar[bool] = True
    endpoint: Any = None
    peer: Any = None
    call_number: int = 0
    proc: str = ""


@dataclasses.dataclass(slots=True)
class PeerCrashDeclared(ObsEvent):
    kind: ClassVar[str] = "pm.crash"
    causal: ClassVar[bool] = True
    endpoint: Any = None
    peer: Any = None
    silence: float = 0.0     # ms since last heard
    call_number: int = 0     # the transfer whose silence triggered it
    proc: str = ""


@dataclasses.dataclass(slots=True)
class TransferTimedOut(ObsEvent):
    kind: ClassVar[str] = "pm.timeout"
    endpoint: Any = None
    peer: Any = None
    call_number: int = 0
    proc: str = ""


@dataclasses.dataclass(slots=True)
class MessageDelivered(ObsEvent):
    """A fully reassembled message was handed to the layer above."""

    kind: ClassVar[str] = "pm.deliver"
    causal: ClassVar[bool] = True
    endpoint: Any = None
    peer: Any = None
    msg_type: int = 0
    call_number: int = 0
    size: int = 0
    proc: str = ""


# ---------------------------------------------------------------------------
# rpc.* — replicated procedure calls (§4.3)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class CallStarted(ObsEvent):
    """One-to-many multicast begins: the client half of a replicated
    call.  ``(thread_id, call_number)`` is the propagated trace context —
    it rides the §3.4.1 call header to every replica."""

    kind: ClassVar[str] = "rpc.call_start"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    troupe: str = ""
    troupe_id: int = 0       # the target troupe's incarnation ID
    members: int = 0
    module: int = 0
    procedure: int = 0


@dataclasses.dataclass(slots=True)
class ReplicaResult(ObsEvent):
    """One member's return message arrived at (or crash was declared to)
    the calling client."""

    kind: ClassVar[str] = "rpc.result"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    member: Any = None
    status: str = "ok"       # 'ok' | 'crashed'


@dataclasses.dataclass(slots=True)
class Collated(ObsEvent):
    """The collator's verdict over the result set."""

    kind: ClassVar[str] = "rpc.collate"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    troupe: str = ""
    #: 'agreed' (needs-all collator satisfied) | 'decided_early'
    #: | 'disagreement' (collator rejected a conflicting response)
    #: | 'failed' (no decision from the final set)
    verdict: str = "agreed"
    responses: int = 0


@dataclasses.dataclass(slots=True)
class CallCompleted(ObsEvent):
    kind: ClassVar[str] = "rpc.call_end"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    troupe: str = ""
    #: 'ok' | 'remote_error:<kind>' | 'stale_binding' | 'troupe_failure'
    #: | 'collation_error' | the exception type name
    outcome: str = "ok"


@dataclasses.dataclass(slots=True)
class GatherStarted(ObsEvent):
    """Server half: the first call message of a replicated call arrived
    and the many-to-one gather began (§4.3.2)."""

    kind: ClassVar[str] = "rpc.gather"
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    expected: int = -1       # -1: client troupe membership unknown


@dataclasses.dataclass(slots=True)
class ExecutionStarted(ObsEvent):
    kind: ClassVar[str] = "rpc.exec_start"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    troupe_id: int = 0       # the serving member's own troupe ID
    module: int = 0
    procedure: int = 0
    callers: int = 0
    group_complete: bool = True


@dataclasses.dataclass(slots=True)
class ExecutionFinished(ObsEvent):
    kind: ClassVar[str] = "rpc.exec_end"
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    module: int = 0
    procedure: int = 0
    outcome: str = "ok"      # 'ok' | the RemoteError kind


@dataclasses.dataclass(slots=True)
class ReturnSent(ObsEvent):
    """Many-to-one completion: results go to the client troupe."""

    kind: ClassVar[str] = "rpc.return"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    thread_id: str = ""
    call_number: int = 0
    recipients: int = 0


@dataclasses.dataclass(slots=True)
class StaleCallRejected(ObsEvent):
    """A member rejected a call bearing a stale destination troupe ID
    (§6.2) — the server side of binding invalidation."""

    kind: ClassVar[str] = "rpc.stale"
    host: str = ""
    proc: str = ""
    call_number: int = 0
    expected_id: int = 0


# ---------------------------------------------------------------------------
# txn.* — transactions (Chapter 5)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class LockWait(ObsEvent):
    kind: ClassVar[str] = "txn.lock_wait"
    txn: str = ""
    key: str = ""
    mode: str = ""
    holders: Tuple[str, ...] = ()


@dataclasses.dataclass(slots=True)
class LockGranted(ObsEvent):
    """A blocked acquisition finally succeeded; ``waited`` is the time
    spent in the queue (ms)."""

    kind: ClassVar[str] = "txn.lock_grant"
    txn: str = ""
    key: str = ""
    mode: str = ""
    waited: float = 0.0


@dataclasses.dataclass(slots=True)
class DeadlockDetected(ObsEvent):
    kind: ClassVar[str] = "txn.deadlock"
    cycle: Tuple[str, ...] = ()
    victim: str = ""


@dataclasses.dataclass(slots=True)
class CommitVote(ObsEvent):
    """One server member's ready_to_commit vote, as seen by the
    coordinator (§5.3)."""

    kind: ClassVar[str] = "txn.vote"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    peer: Any = None
    serial: int = 0
    ready: bool = True


@dataclasses.dataclass(slots=True)
class CommitOutcome(ObsEvent):
    kind: ClassVar[str] = "txn.commit"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    decision: str = "commit"     # 'commit' | 'abort'
    votes: int = 0
    group_complete: bool = True
    serials: Tuple[int, ...] = ()   # per-peer serials, vote order


# ---------------------------------------------------------------------------
# bind.* — the Ringmaster binding agent (Chapter 6)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class BindingLookup(ObsEvent):
    kind: ClassVar[str] = "bind.lookup"
    host: str = ""
    proc: str = ""
    op: str = "by_name"      # 'by_name' | 'by_id' | 'rebind' | 'list'
    name: str = ""
    found: bool = True


@dataclasses.dataclass(slots=True)
class MembershipChanged(ObsEvent):
    kind: ClassVar[str] = "bind.member"
    causal: ClassVar[bool] = True
    host: str = ""
    proc: str = ""
    op: str = "add"          # 'register' | 'add' | 'remove'
    name: str = ""
    new_id: int = 0
    members: int = 0
    old_id: int = 0          # incarnation being replaced (0: fresh)


@dataclasses.dataclass(slots=True)
class StaleBindingInvalidated(ObsEvent):
    """Client side: a cached binding was discovered stale and must be
    refreshed via rebind (§6.1)."""

    kind: ClassVar[str] = "bind.stale"
    host: str = ""
    proc: str = ""
    troupe: str = ""


@dataclasses.dataclass(slots=True)
class StateTransferred(ObsEvent):
    """A get_state call externalized a member's state for a joining
    replica (§6.4.1)."""

    kind: ClassVar[str] = "bind.get_state"
    module: str = ""
    size: int = 0


# ---------------------------------------------------------------------------
# mon.* — the invariant monitors (repro.obs.monitor)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class InvariantViolation(ObsEvent):
    """An online monitor caught the protocol breaking one of the paper's
    correctness claims.  ``evidence`` holds the bus events (in emission
    order) whose combination violates the predicate; when causal clocks
    are installed the violation's own vector clock is the merge of the
    evidence clocks — the causal frontier the flight recorder cuts at."""

    kind: ClassVar[str] = "mon.violation"
    causal: ClassVar[bool] = True
    monitor: str = ""        # monitor class name
    invariant: str = ""      # short invariant slug, e.g. 'exactly-once'
    section: str = ""        # paper section the claim comes from
    message: str = ""
    subject: str = ""        # the entity that violated (call, troupe, …)
    evidence: Tuple[Any, ...] = ()


@dataclasses.dataclass(slots=True)
class MonitorError(ObsEvent):
    """A bus subscriber raised; the exception was contained by the bus
    instead of unwinding into (and killing) the emitting protocol code."""

    kind: ClassVar[str] = "mon.error"
    handler: str = ""        # repr of the failing handler
    event_kind: str = ""     # kind of the event being delivered
    error: str = ""          # repr of the exception


@dataclasses.dataclass(slots=True)
class MonitorWarning(ObsEvent):
    """Degraded observability, announced on the bus itself — e.g. the
    flight-recorder ring overflowed, so the eventual post-mortem only
    covers a suffix of the run."""

    kind: ClassVar[str] = "mon.warn"
    source: str = ""         # who is warning (e.g. 'FlightRecorder')
    message: str = ""
    dropped: int = 0         # events lost so far, when applicable


#: every event class, keyed by kind: the event *vocabulary*.  The bus
#: resolves subscription prefixes against it to build the per-kind guard
#: (``EventBus.wanted``), so a new event class must be listed here or its
#: emission site's guard can never be true.
ALL_EVENTS = {
    cls.kind: cls
    for cls in (
        ProcessSpawned, ProcessExited,
        PacketSent, PacketDelivered, PacketDropped, PacketDuplicated,
        MessageSent, SegmentRetransmitted, DuplicateSuppressed,
        ExplicitAckReceived, ImplicitAck, ProbeSent, PeerCrashDeclared,
        TransferTimedOut, MessageDelivered,
        CallStarted, ReplicaResult, Collated, CallCompleted,
        GatherStarted, ExecutionStarted, ExecutionFinished, ReturnSent,
        StaleCallRejected,
        LockWait, LockGranted, DeadlockDetected, CommitVote, CommitOutcome,
        BindingLookup, MembershipChanged, StaleBindingInvalidated,
        StateTransferred,
        InvariantViolation, MonitorError, MonitorWarning,
    )
}

#: the vocabulary's kinds, as the bus sees them.
KINDS = frozenset(ALL_EVENTS)

#: the kinds that tick the causal clocks: wanted under a stamper whoever
#: is subscribed, so that a causal stamp never depends on the audience.
CAUSAL_KINDS = frozenset(kind for kind, cls in ALL_EVENTS.items()
                         if cls.causal)
