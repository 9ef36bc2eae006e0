"""The Circus run-time system: replicated procedure call (§4.3).

A many-to-many call from an m-member client troupe to an n-member server
troupe factors into two sub-algorithms that this runtime implements:

*One-to-many* (client half, §4.3.1): send the same call message — with the
same call number — to every server troupe member, then collect the return
messages, feeding them to a :class:`~repro.core.collators.Collator`.  With
the default unanimous collator the client waits for every available member
and checks the responses for agreement; first-come and majority collators
let computation proceed early (§4.3.4).  Crashed members are detected by
the paired message layer's probing and excluded.

*Many-to-one* (server half, §4.3.2): call messages bearing the same thread
ID and call sequence number belong to the same replicated call.  The
client troupe ID in the call header is mapped to the set of client troupe
members (via the resolver — "consulting a local cache or contacting the
binding agent"), which tells the server how many call messages to expect.
The procedure executes exactly once, and a return message goes to every
member of the client troupe.

The runtime also enforces the §6.2 incarnation rule: every call carries
the destination troupe ID, and a member rejects calls bearing a stale one,
which is how clients discover that their cached binding is out of date.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.collators import (
    CollationError,
    Collator,
    UnanimousCollator,
)
from repro.core.troupe import NO_TROUPE, TroupeDescriptor, TroupeId
from repro.host.machine import MachineCrashed
from repro.host.process import OsProcess
from repro.net.addresses import ModuleAddress, ProcessAddress
from repro.obs import events as obs_events
from repro.pairedmsg.endpoint import (
    PairedEndpoint,
    PairedMessageConfig,
    PeerCrashed,
)
from repro.pairedmsg.segments import MSG_CALL, MSG_RETURN
from repro.rpc.messages import (
    CallHeader,
    RemoteError,
    decode_call,
    decode_return,
    encode_call,
    encode_error,
    encode_return,
    raise_if_error,
)
from repro.rpc.threads import ThreadContext, ThreadId
from repro.sim.events import Queue
from repro.sim.kernel import ProcessKilled

STALE_BINDING_ERROR = "StaleBinding"
BAD_MODULE_ERROR = "BadModule"
BAD_PROCEDURE_ERROR = "BadProcedure"
INTERNAL_ERROR = "InternalError"

#: Reserved module number for the runtime's control interface; its
#: procedure 0 is the automatically generated set_troupe_id of §6.2.
CONTROL_MODULE = 0xFFFF
SET_TROUPE_ID_PROC = 0


def _thread_name(thread_id: ThreadId) -> str:
    """An event's ``thread_id``: one string object per value, however
    many retained events carry it."""
    return sys.intern(str(thread_id))


class ReplicatedCallError(Exception):
    """Base class for replicated-call failures."""


class TroupeFailure(ReplicatedCallError):
    """Every member of the server troupe crashed: a total failure (§3.5.1)."""

    def __init__(self, troupe_name: str):
        super().__init__("total failure of troupe %r" % troupe_name)
        self.troupe_name = troupe_name


class StaleBindingError(ReplicatedCallError):
    """The server rejected our destination troupe ID: our cached binding is
    out of date and we must rebind (§6.1/§6.2)."""

    def __init__(self, troupe_name: str):
        super().__init__("stale binding for troupe %r" % troupe_name)
        self.troupe_name = troupe_name


class CallerCrashed(ReplicatedCallError):
    """The *calling* process's host fail-stopped mid-call.

    The reply waiters died with their parent process, so the call's
    outcome is unknowable to whoever was driving the call generator from
    another machine (protocol helpers such as §6.4.1 ``join_troupe`` run
    one runtime's call loop from a coordinator elsewhere)."""

    def __init__(self, troupe_name: str):
        super().__init__(
            "caller crashed during replicated call to %r" % troupe_name)
        self.troupe_name = troupe_name


@dataclasses.dataclass
class RuntimeConfig:
    """Tunables for the replicated call algorithms."""

    #: 'serial' executes incoming calls one at a time by arrival order
    #: (what Circus did, §4.3.7); 'parallel' gives each call its own
    #: thread (the invocation semantics Nelson argues for).
    execution: str = "serial"
    #: use hardware multicast for one-to-many sends (§4.3.3).
    use_multicast: bool = False
    #: 'all' waits for the call messages of every expected client troupe
    #: member; 'first' executes on the first and broadcasts the return
    #: (the client-side-buffering variant of §4.3.4); 'majority' proceeds
    #: once a majority of the expected set has arrived — the §4.3.5 rule
    #: that stops members in different network partitions from diverging.
    server_wait: str = "all"
    #: how long a server waits for the remaining call messages of a
    #: replicated call before proceeding without them (covers crashed
    #: client members), in ms.
    gather_timeout: float = 1000.0
    #: executed calls remembered so that late/slow client members can be
    #: sent the buffered return message (§4.3.4).
    finished_memory: int = 256
    paired: PairedMessageConfig = dataclasses.field(
        default_factory=PairedMessageConfig)


class ExportedModule:
    """A module's implementation as registered with the runtime.

    ``procedures`` maps procedure numbers (assigned by the stub compiler,
    §4.3) to handlers.  A handler is called as ``handler(ctx, args)`` with
    the raw argument bytes and may be a plain function returning bytes or
    a generator (so it can make nested calls / sleep); it signals
    application errors by raising :class:`RemoteError`.
    """

    def __init__(self, name: str,
                 procedures: Optional[Dict[int, Callable]] = None):
        self.name = name
        self.procedures: Dict[int, Callable] = dict(procedures or {})

    def define(self, number: int, handler: Callable) -> None:
        if number in self.procedures:
            raise ValueError("procedure %d already defined in %s" % (
                number, self.name))
        self.procedures[number] = handler


@dataclasses.dataclass
class CallResult:
    """One member's response in a result stream (explicit replication)."""

    member: ProcessAddress
    status: str          # 'ok' | 'error' | 'crashed'
    data: Optional[bytes] = None
    error: Optional[RemoteError] = None


class ExplicitProcedure:
    """Marks a server procedure that wants *explicit replication* (§7.4):
    instead of the unanimity-collated arguments, the handler receives the
    whole mapping of caller address -> argument bytes (the "argument
    generator" of Figure 7.7) and can collate it itself — averaging,
    voting, or, as the §5.3 commit protocol does, AND-ing votes.
    """

    def __init__(self, handler: Callable):
        self.handler = handler

    def __call__(self, ctx: "CallContext", args_by_peer: Dict) -> Any:
        return self.handler(ctx, args_by_peer)


class CallContext:
    """Execution context of one incoming replicated call.

    Handlers receive this as their first argument; it carries the adopted
    thread ID (§3.4.1) and lets the handler make nested replicated calls
    and call back the client troupe (the §5.3 commit protocol does this).
    """

    def __init__(self, runtime: "TroupeRuntime", header: CallHeader,
                 call_number: int, callers: Sequence[ProcessAddress],
                 expected: Optional[frozenset] = None,
                 group_complete: bool = True):
        self.runtime = runtime
        self.thread_id = header.thread_id
        self.client_troupe_id = header.client_troupe_id
        self.call_number = call_number
        self.callers = tuple(callers)
        #: the client troupe members this call was expected from (None if
        #: membership was unknown to the resolver).
        self.expected = expected
        #: False when the gather timed out before every expected client
        #: member's call message arrived (§4.3.5 partition/crash handling).
        self.group_complete = group_complete

    def call(self, troupe: TroupeDescriptor, module: int, procedure: int,
             args: bytes, collator: Optional[Collator] = None):
        """Generator: a nested replicated call on behalf of this thread."""
        return (yield from self.runtime.call_troupe(
            troupe, module, procedure, args, collator=collator,
            thread_id=self.thread_id))

    def compute(self, ms: float):
        """Generator: charge user-mode CPU for procedure execution."""
        return (yield from self.runtime.process.compute(ms))


class _ManyToOneCall:
    """Server-side state for one replicated call being gathered (§4.3.2)."""

    def __init__(self, key, header: CallHeader, call_number: int,
                 expected: Optional[frozenset]):
        self.key = key
        self.header = header
        self.call_number = call_number
        self.expected = expected          # None if membership unknown
        self.args_by_peer: Dict[ProcessAddress, bytes] = {}
        self.executed = False
        self.timed_out = False

    def add(self, peer: ProcessAddress, args: bytes) -> None:
        self.args_by_peer.setdefault(peer, args)

    def complete(self) -> bool:
        if self.expected is None:
            return True  # no membership information: execute on first
        return self.expected.issubset(self.args_by_peer.keys())

    def collate_args(self) -> bytes:
        """Unanimity check over the argument messages (error detection)."""
        values = list(self.args_by_peer.values())
        first = values[0]
        for other in values[1:]:
            if other != first:
                raise RemoteError(
                    INTERNAL_ERROR,
                    "client troupe members disagree on arguments")
        return first


def _set_troupe_id_proc(ctx: "CallContext", args: bytes) -> bytes:
    (new_id,) = struct.unpack("!Q", args)
    ctx.runtime.set_troupe_id(new_id)
    return b""


#: The §6.2 control interface, one module for every runtime: the binding
#: agent informs members of their new troupe ID when the membership
#: changes.
_CONTROL = ExportedModule("control", {SET_TROUPE_ID_PROC: _set_troupe_id_proc})

#: the export table of every runtime that has exported nothing yet.
#: Shared, so never written: :meth:`TroupeRuntime.export` copies it first.
_CONTROL_ONLY: Dict[int, ExportedModule] = {CONTROL_MODULE: _CONTROL}

#: ``TroupeRuntime._groups`` while no call is being gathered, and
#: ``_finished`` until a call has executed.  Shared, so never written: an
#: insert swaps in a dict of its own (``is _NO_CALLS``) first.
_NO_CALLS: Dict = {}


class TroupeRuntime:
    """One troupe member's (or client's) Circus run-time system."""

    __slots__ = ("process", "sim", "_host", "config", "endpoint",
                 "troupe_id", "threads", "resolver", "exports",
                 "_next_module_number", "_groups", "_finished", "_ready",
                 "_server_threads", "calls_executed")

    def __init__(self, process: OsProcess, port: Optional[int] = None,
                 config: Optional[RuntimeConfig] = None,
                 resolver: Optional[Callable[[TroupeId],
                                             Optional[List[ProcessAddress]]]] = None,
                 troupe_id: TroupeId = NO_TROUPE,
                 thread_id: Optional[ThreadId] = None):
        self.process = process
        self.sim = process.sim
        #: this runtime's label value in the bus's site counts
        self._host = process.host
        self.config = config or RuntimeConfig()
        self.endpoint = PairedEndpoint(process, port, self.config.paired)
        self.troupe_id = troupe_id
        if thread_id is None:
            thread_id = ThreadId(process.host, process.pid)
        self.threads = ThreadContext(default=thread_id)
        #: maps a client troupe ID to its member process addresses
        #: ("consulting a local cache or contacting the binding agent").
        self.resolver = resolver or (lambda tid: None)
        self.exports: Dict[int, ExportedModule] = _CONTROL_ONLY
        self._next_module_number = 0
        # keyed (thread_id, client_troupe_id, call_number) — see the
        # grouping note in _dispatch_loop.
        self._groups: Dict[Tuple[ThreadId, TroupeId, int],
                           _ManyToOneCall] = _NO_CALLS
        #: buffered returns of executed calls, oldest first (insertion
        #: order), at most ``config.finished_memory`` of them.
        self._finished: Dict[Tuple[ThreadId, TroupeId, int],
                             bytes] = _NO_CALLS
        self._ready: Queue = Queue(self.sim, "ready-calls")
        self._server_threads = []
        self.calls_executed = 0

    @property
    def addr(self) -> ProcessAddress:
        return self.endpoint.addr

    def __repr__(self) -> str:
        return "<TroupeRuntime %s troupe_id=%d>" % (self.addr, self.troupe_id)

    # ------------------------------------------------------------------
    # Exporting modules and serving calls
    # ------------------------------------------------------------------

    def export(self, module: ExportedModule) -> ModuleAddress:
        """Register a module; returns its module address.  The module
        number is an index into the table of exported interfaces (§4.3)."""
        number = self._next_module_number
        self._next_module_number += 1
        if self.exports is _CONTROL_ONLY:
            self.exports = dict(_CONTROL_ONLY)
        self.exports[number] = module
        return ModuleAddress(self.addr, number)

    def set_troupe_id(self, troupe_id: TroupeId) -> None:
        """Installed by the binding agent when troupe membership changes
        (the generated set_troupe_id procedure of §6.2)."""
        self.troupe_id = troupe_id

    def start_server(self) -> None:
        """Begin accepting incoming calls (idempotent)."""
        if self._server_threads:
            return
        self._server_threads.append(
            self.process.spawn(self._dispatch_loop(), name="rpc-dispatch",
                               daemon=True))
        if self.config.execution == "serial":
            self._server_threads.append(
                self.process.spawn(self._serial_executor(), name="rpc-exec",
                                   daemon=True))

    def _dispatch_loop(self):
        while True:
            msg = yield from self.endpoint.next_call()
            try:
                header, args = decode_call(msg.data)
            except Exception:
                continue  # not a well-formed call: drop
            if (header.dest_troupe_id != NO_TROUPE
                    and self.troupe_id != NO_TROUPE
                    and header.dest_troupe_id != self.troupe_id):
                # §6.2: stale destination troupe ID — reject so the client
                # rebinds; never execute a call meant for an old incarnation.
                if "rpc.stale" in self.sim.bus.wanted:
                    self.sim.bus.emit(obs_events.StaleCallRejected(
                        t=self.sim.now, host=self.process.host,
                        proc=self.process.name,
                        call_number=msg.call_number,
                        expected_id=self.troupe_id))
                self.process.spawn(
                    self.endpoint.send_return(
                        msg.peer, msg.call_number,
                        encode_error(STALE_BINDING_ERROR,
                                     "expected troupe %d" % self.troupe_id)),
                    daemon=True)
                continue
            # §4.3.2 matches call messages on (thread ID, call sequence
            # number).  Call numbers are per *process pair*, so two
            # different caller processes acting for the same thread at
            # different call depths can reuse a number; including the
            # client troupe ID in the key keeps their calls distinct
            # (members of one replicated call always share it).
            key = (header.thread_id, header.client_troupe_id,
                   msg.call_number)
            if key in self._finished:
                # A slow client troupe member whose call arrived after the
                # procedure ran: retransmit the buffered return (§4.3.4).
                self.process.spawn(
                    self._send_return_if_new(msg.peer, msg.call_number,
                                             self._finished[key]),
                    daemon=True)
                continue
            group = self._groups.get(key)
            if group is None:
                expected = self._expected_callers(header)
                group = _ManyToOneCall(key, header, msg.call_number, expected)
                if self._groups is _NO_CALLS:
                    self._groups = {}
                self._groups[key] = group
                bus = self.sim.bus
                gathers = bus.counts["rpc.gather"]
                host = self._host
                gathers[host] = gathers.get(host, 0) + 1
                if "rpc.gather" in bus.wanted:
                    bus.emit(obs_events.GatherStarted(
                        t=self.sim.now, host=host,
                        proc=self.process.name,
                        thread_id=_thread_name(header.thread_id),
                        call_number=msg.call_number,
                        expected=-1 if expected is None else len(expected)))
                if (expected is not None and len(expected) > 1
                        and self.config.server_wait == "all"):
                    self.sim.schedule(self.config.gather_timeout,
                                      self._gather_timed_out, key)
            group.add(msg.peer, args)
            if group.executed:
                continue
            if self._gather_satisfied(group):
                self._enqueue(group)

    def _gather_satisfied(self, group: _ManyToOneCall) -> bool:
        mode = self.config.server_wait
        if mode == "first" or group.expected is None:
            return True
        if mode == "majority":
            # §4.3.5: proceed only with a majority of the expected set of
            # messages, so a minority partition can never execute.
            return 2 * len(group.args_by_peer) > len(group.expected)
        return group.complete()

    def _expected_callers(self, header: CallHeader) -> Optional[frozenset]:
        if header.client_troupe_id == NO_TROUPE:
            return None
        members = self.resolver(header.client_troupe_id)
        if members is None:
            return None
        return frozenset(members)

    def _gather_timed_out(self, key) -> None:
        group = self._groups.get(key)
        if group is not None and not group.executed:
            # Some expected client members never called (crashed or
            # partitioned): under 'all', proceed with the ones that did;
            # under 'majority', never execute a minority (§4.3.5) — the
            # group stays pending until more call messages arrive.
            if (self.config.server_wait == "majority"
                    and not self._gather_satisfied(group)):
                return
            group.timed_out = True
            self._enqueue(group)

    def _enqueue(self, group: _ManyToOneCall) -> None:
        if group.executed:
            return
        group.executed = True
        if self.config.execution == "serial":
            self._ready.put(group)
        else:
            self.process.spawn(self._run_group(group),
                               name="rpc-call-%d" % group.call_number,
                               daemon=True)

    def _serial_executor(self):
        while True:
            group = yield self._ready.get()
            yield from self._run_group(group)

    def _run_group(self, group: _ManyToOneCall):
        header = group.header
        key = group.key
        if "rpc.exec_start" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.ExecutionStarted(
                t=self.sim.now, host=self.process.host,
                proc=self.process.name,
                thread_id=_thread_name(header.thread_id),
                call_number=group.call_number, troupe_id=self.troupe_id,
                module=header.module, procedure=header.procedure,
                callers=len(group.args_by_peer),
                group_complete=group.complete()))
        exec_outcome = "ok"
        try:
            module = self.exports.get(header.module)
            if module is None:
                raise RemoteError(BAD_MODULE_ERROR,
                                  "module %d" % header.module)
            handler = module.procedures.get(header.procedure)
            if handler is None:
                raise RemoteError(BAD_PROCEDURE_ERROR, "procedure %d of %s"
                                  % (header.procedure, module.name))
            if isinstance(handler, ExplicitProcedure):
                # §7.4 explicit replication: the handler collates.
                args = dict(group.args_by_peer)
            else:
                args = group.collate_args()
            ctx = CallContext(self, header, group.call_number,
                              sorted(group.args_by_peer.keys()),
                              expected=group.expected,
                              group_complete=group.complete())
            # Thread ID adoption (§3.4.1).  The shared stack is only
            # coherent under serial execution; parallel handlers carry the
            # thread ID in their CallContext instead.
            adopt = self.config.execution == "serial"
            if adopt:
                self.threads.adopt(header.thread_id)
            try:
                result = handler(ctx, args)
                if hasattr(result, "send"):  # a generator: run it
                    result = yield from result
                if result is None:
                    result = b""
                payload = encode_return(result)
            finally:
                if adopt:
                    self.threads.release(header.thread_id)
        except RemoteError as exc:
            exec_outcome = exc.kind
            payload = encode_error(exc.kind, exc.detail)
        if "rpc.exec_end" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.ExecutionFinished(
                t=self.sim.now, host=self.process.host,
                proc=self.process.name,
                thread_id=_thread_name(header.thread_id),
                call_number=group.call_number, module=header.module,
                procedure=header.procedure, outcome=exec_outcome))
        if header.module != CONTROL_MODULE:
            # calls_executed counts application procedure executions; the
            # runtime's own control traffic (set_troupe_id) is excluded.
            self.calls_executed += 1
        self._remember_finished(key, payload)
        groups = self._groups
        if groups.pop(key, None) is not None and not groups:
            self._groups = _NO_CALLS
        yield from self._send_returns(group, payload)

    def _send_returns(self, group: _ManyToOneCall, payload: bytes):
        """Return the results to every member of the client troupe.

        With 'first' server wait, the return is broadcast to all known
        members so slow members find it already waiting (client-side
        buffering, §4.3.4); otherwise it goes to everyone who called.
        """
        recipients = set(group.args_by_peer.keys())
        if group.expected is not None:
            recipients |= set(group.expected)
        recipients = sorted(recipients)
        if "rpc.return" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.ReturnSent(
                t=self.sim.now, host=self.process.host,
                proc=self.process.name,
                thread_id=_thread_name(group.header.thread_id),
                call_number=group.call_number,
                recipients=len(recipients)))
        if self.config.use_multicast and len(recipients) > 1:
            yield from self.endpoint.send_message_multicast(
                recipients, MSG_RETURN, group.call_number, payload)
        else:
            for peer in recipients:
                yield from self._send_return_if_new(peer, group.call_number,
                                                    payload)

    def _send_return_if_new(self, peer: ProcessAddress, call_number: int,
                            payload: bytes):
        """Send a return unless a transfer for it already exists (a late
        duplicate call message must not restart a finished transfer)."""
        if (peer, MSG_RETURN, call_number) in self.endpoint._sends:
            return
        yield from self.endpoint.send_return(peer, call_number, payload)

    def _remember_finished(self, key, payload: bytes) -> None:
        finished = self._finished
        if finished is _NO_CALLS:
            finished = self._finished = {}
        finished[key] = payload
        while len(finished) > self.config.finished_memory:
            del finished[next(iter(finished))]   # the oldest

    # ------------------------------------------------------------------
    # One-to-many calls (client half, §4.3.1)
    # ------------------------------------------------------------------

    def call_troupe(self, troupe: TroupeDescriptor, module: int,
                    procedure: int, args: bytes,
                    collator: Optional[Collator] = None,
                    thread_id: Optional[ThreadId] = None,
                    call_number: Optional[int] = None):
        """Generator: a replicated procedure call to a troupe.

        Sends the call message to every member (same call number at the
        paired message level), collects the return messages through the
        collator (unanimous by default), and returns the collated result
        bytes.  Raises:

        - :class:`TroupeFailure` if every member crashed,
        - :class:`StaleBindingError` if the members rejected our troupe ID,
        - :class:`RemoteError` if the procedure raised remotely,
        - :class:`CollationError` on replica disagreement.
        """
        if collator is None:
            collator = UnanimousCollator()
        if not troupe.members:
            raise TroupeFailure(troupe.name)
        if thread_id is None:
            thread_id = self.threads.current
        if call_number is None:
            call_number = self.threads.next_call_number()
        bus = self.sim.bus
        if "rpc.call_start" in bus.wanted:
            bus.emit(obs_events.CallStarted(
                t=self.sim.now, host=self.process.host,
                proc=self.process.name, thread_id=_thread_name(thread_id),
                call_number=call_number, troupe=troupe.name,
                troupe_id=troupe.troupe_id, members=len(troupe.members),
                module=-1 if module is None else module,
                procedure=procedure))
        try:
            gather = yield from self._start_call(
                troupe, module, procedure, args, thread_id, call_number)
            outcome = yield from self._collect(gather, collator, thread_id)
            return_header, body = decode_return(outcome)
            try:
                result = raise_if_error(return_header, body)
            except RemoteError as exc:
                if exc.kind == STALE_BINDING_ERROR:
                    raise StaleBindingError(troupe.name) from exc
                raise
        except BaseException as exc:
            if "rpc.call_end" in bus.wanted:
                bus.emit(obs_events.CallCompleted(
                    t=self.sim.now, host=self.process.host,
                    proc=self.process.name, thread_id=_thread_name(thread_id),
                    call_number=call_number, troupe=troupe.name,
                    outcome=self._classify_failure(exc)))
                if isinstance(exc, StaleBindingError):
                    bus.emit(obs_events.StaleBindingInvalidated(
                        t=self.sim.now, host=self.process.host,
                        proc=self.process.name, troupe=troupe.name))
            raise
        if "rpc.call_end" in bus.wanted:
            bus.emit(obs_events.CallCompleted(
                t=self.sim.now, host=self.process.host,
                proc=self.process.name, thread_id=_thread_name(thread_id),
                call_number=call_number, troupe=troupe.name, outcome="ok"))
        return result

    @staticmethod
    def _classify_failure(exc: BaseException) -> str:
        if isinstance(exc, StaleBindingError):
            return "stale_binding"
        if isinstance(exc, TroupeFailure):
            return "troupe_failure"
        if isinstance(exc, CollationError):
            return "collation_error"
        if isinstance(exc, RemoteError):
            return "remote_error:%s" % exc.kind
        return type(exc).__name__

    def _start_call(self, troupe: TroupeDescriptor, module: Optional[int],
                    procedure: int, args: bytes, thread_id: ThreadId,
                    call_number: int):
        """Generator: send the call message to every member and return the
        :class:`_Gather` of their replies.  When ``module`` is None, each
        call message carries the member's own module number (members of a
        troupe may export the interface under different indices)."""
        members = [member.process for member in troupe.members]
        if module is None:
            payloads = [encode_call(CallHeader(
                thread_id, self.troupe_id, troupe.troupe_id, member.module,
                procedure), args) for member in troupe.members]
        else:   # one header for every member: encode it once
            payloads = [encode_call(CallHeader(
                thread_id, self.troupe_id, troupe.troupe_id, module,
                procedure), args)] * len(members)
        if (self.config.use_multicast and len(members) > 1
                and len(set(payloads)) == 1):
            yield from self.endpoint.send_message_multicast(
                members, MSG_CALL, call_number, payloads[0])
        else:
            for member, payload in zip(members, payloads):
                yield from self.endpoint.send_message(
                    member, MSG_CALL, call_number, payload)
        return _Gather(self, troupe, members, call_number)

    def _collect(self, gather: "_Gather", collator: Collator,
                 thread_id: ThreadId):
        """Feed the replies to the collator as they arrive."""
        bus = self.sim.bus
        tid = _thread_name(thread_id)
        troupe = gather.troupe
        call_number = gather.call_number
        collator.reset(expected=gather.expected)
        crashed = 0
        responses = 0
        while True:
            got = yield from gather.reply()
            if got is None:
                break
            member, reply = got
            if "rpc.result" in bus.wanted:
                bus.emit(obs_events.ReplicaResult(
                    t=self.sim.now, host=self.process.host,
                    proc=self.process.name, thread_id=tid,
                    call_number=call_number, member=member,
                    status="crashed" if reply is None else "ok"))
            if reply is None:
                crashed += 1
                continue
            responses += 1
            try:
                done, early = collator.add(member, reply)
            except CollationError:
                if "rpc.collate" in bus.wanted:
                    bus.emit(self._collation_event(
                        tid, call_number, troupe, "disagreement", responses))
                raise
            if done and not collator.needs_all:
                if "rpc.collate" in bus.wanted:
                    bus.emit(self._collation_event(
                        tid, call_number, troupe, "decided_early", responses))
                # Tell the endpoint to drop the stragglers' returns.
                gather.cancel()
                return early
        if crashed == gather.expected:
            raise TroupeFailure(troupe.name)
        try:
            final = collator.finish()
        except CollationError:
            if "rpc.collate" in bus.wanted:
                bus.emit(self._collation_event(
                    tid, call_number, troupe, "failed", responses))
            raise
        if "rpc.collate" in bus.wanted:
            bus.emit(self._collation_event(
                tid, call_number, troupe, "agreed", responses))
        return final

    def _collation_event(self, tid: str, call_number: int,
                         troupe: TroupeDescriptor, verdict: str,
                         responses: int) -> obs_events.Collated:
        return obs_events.Collated(
            t=self.sim.now, host=self.process.host, proc=self.process.name,
            thread_id=tid, call_number=call_number, troupe=troupe.name,
            verdict=verdict, responses=responses)

    # ------------------------------------------------------------------
    # The watchdog scheme (§4.3.4)
    # ------------------------------------------------------------------

    def call_troupe_watchdog(self, troupe: TroupeDescriptor, module: int,
                             procedure: int, args: bytes,
                             thread_id: Optional[ThreadId] = None):
        """Generator: proceed with the first response; a watchdog thread
        waits for the remaining responses and compares them with it
        (§4.3.4: error detection *and* early computation).

        Returns ``(result_bytes, report)``; ``report.done`` fires once
        every member has answered (or crashed), with
        ``report.consistent`` set.  Structuring the main computation as a
        transaction and aborting it on an inconsistency report is the
        paper's full recipe; the report hook is the mechanism.
        """
        gather = yield from self.call_troupe_stream(
            troupe, module, procedure, args, thread_id=thread_id)
        report = WatchdogReport(self.sim, len(troupe.members))
        while True:
            got = yield from gather.reply()
            if got is None:
                report.consistent = True
                report.done.fire(True)
                raise TroupeFailure(troupe.name)
            member, first = got
            if first is not None:
                break
            report.crashed.append(member)
        self.process.spawn(self._watchdog(gather, first, report),
                           name="watchdog", daemon=True)
        return raise_if_error(*decode_return(first)), report

    def _watchdog(self, gather: "_Gather", first: bytes,
                  report: WatchdogReport):
        """Compare every later reply with the first.  Raw return messages
        compare as their decoded results do: ``encode_return`` and
        ``encode_error`` are deterministic.  Killed with the calling
        process, it still fires ``report.done``, with ``consistent`` left
        None: whoever waits on the report elsewhere learns of the crash
        at its instant."""
        consistent = True
        while True:
            try:
                got = yield from gather.reply()
            except (CallerCrashed, MachineCrashed, ProcessKilled):
                report.done.fire(None)
                return
            if got is None:
                break
            member, reply = got
            if reply is None:
                report.crashed.append(member)
                continue
            report.compared += 1
            if reply != first:
                consistent = False
                report.mismatches.append(member)
        report.consistent = consistent
        report.done.fire(consistent)

    # ------------------------------------------------------------------
    # Explicit replication: a stream of per-member results (§7.4)
    # ------------------------------------------------------------------

    def call_troupe_stream(self, troupe: TroupeDescriptor, module: int,
                           procedure: int, args: bytes,
                           thread_id: Optional[ThreadId] = None):
        """Generator: start a replicated call and return a result stream.

        The stream yields one :class:`CallResult` per troupe member, in
        arrival order — the "generator of messages from a troupe" of
        Figure 7.11.  The caller may stop early; unconsumed returns are
        discarded.
        """
        if not troupe.members:
            raise TroupeFailure(troupe.name)
        if thread_id is None:
            thread_id = self.threads.current
        return (yield from self._start_call(
            troupe, module, procedure, args, thread_id,
            self.threads.next_call_number()))


class WatchdogReport:
    """Outcome of the §4.3.4 watchdog: did the stragglers agree with the
    response the computation proceeded with?"""

    def __init__(self, sim, expected: int):
        from repro.sim.events import Event as _Event
        self.done = _Event(sim, "watchdog-done")
        self.expected = expected
        self.consistent: Optional[bool] = None
        self.mismatches: List[ProcessAddress] = []
        self.crashed: List[ProcessAddress] = []
        self.compared = 0


class _Gather:
    """The replies of one replicated call in arrival order: Figure 7.11's
    "generator of messages from a troupe" (§7.4), which every call form
    reads.  One waiter thread per member runs ``wait_return`` and puts
    ``(member, reply)`` on one queue, ``reply`` being the return message
    or None for a member declared crashed."""

    __slots__ = ("troupe", "call_number", "expected", "_endpoint", "_queue",
                 "_waiters", "_remaining")

    def __init__(self, runtime: TroupeRuntime, troupe: TroupeDescriptor,
                 members: List[ProcessAddress], call_number: int):
        self.troupe = troupe
        self.call_number = call_number
        self.expected = self._remaining = len(members)
        self._endpoint = runtime.endpoint
        self._queue = Queue(runtime.sim, "replies")
        spawn = runtime.process.spawn
        self._waiters = {member: spawn(self._wait(member),
                                       name="await-return", daemon=True)
                         for member in members}

    def _wait(self, member: ProcessAddress):
        try:
            reply = yield from self._endpoint.wait_return(
                member, self.call_number)
        except PeerCrashed:
            reply = None
        except (MachineCrashed, ProcessKilled):
            # Killed with the calling process (cancel() zeroes _remaining
            # first): the reply's fate is unknowable.
            if self._remaining:
                self._queue.put(CallerCrashed(self.troupe.name))
            return
        self._queue.put((member, reply))

    def reply(self):
        """Generator: the next ``(member, reply)``, or None once every
        member's has been read.  Raises :class:`CallerCrashed` if the
        calling process failed first."""
        if self._remaining == 0:
            return None
        got = yield self._queue.get()
        if got.__class__ is CallerCrashed:
            raise got
        self._remaining -= 1
        return got

    def next(self):
        """Generator: the next :class:`CallResult`, or None when exhausted."""
        got = yield from self.reply()
        if got is None:
            return None
        member, reply = got
        if reply is None:
            return CallResult(member, "crashed")
        try:
            return CallResult(member, "ok",
                              data=raise_if_error(*decode_return(reply)))
        except RemoteError as exc:
            return CallResult(member, "error", error=exc)

    def cancel(self) -> None:
        """Stop waiting for the members still pending (an early decision
        or loop exit, §4.3.4 / §7.4) and forget their returns.  A return
        already taken is not forgotten: its discard mark would never be
        cleared."""
        self._remaining = 0
        forget = self._endpoint.forget_return
        for member, waiter in self._waiters.items():
            if waiter.alive:
                waiter.kill()
                forget(member, self.call_number)
