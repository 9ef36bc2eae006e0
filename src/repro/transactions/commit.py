"""The troupe commit protocol (§5.3).

When a server troupe member is ready to commit (or wishes to abort) a
transaction, it calls ``ready_to_commit(boolean)`` — a replicated call
*back* to the client troupe (the roles of client and server are
temporarily reversed: a call-back protocol).  Each client troupe member
implements ``ready_to_commit`` by waiting for the votes of *all* server
troupe members before answering any of them:

- every member votes true  -> the client answers true, everyone commits;
- any member votes false   -> the client answers false, everyone aborts.

Theorem 5.1: two troupe members succeed in committing two transactions if
and only if they attempt to commit them in the same order — members that
disagree on the serialization order deadlock inside the protocol.  The
deadlock is broken by the coordinator's gather timeout, which answers
false; the aborted transactions retry under binary exponential back-off
(§5.3.1).  The protocol is *generic* (any local concurrency control that
serializes correctly works at each member) and *optimistic* (it assumes
conflicts are rare).
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.core.collators import UnanimousCollator
from repro.core.runtime import (
    CallContext,
    ExplicitProcedure,
    ExportedModule,
    TroupeFailure,
    TroupeRuntime,
)
from repro.core.troupe import TroupeDescriptor
from repro.net.addresses import ModuleAddress
from repro.obs import events as obs_events
from repro.rpc.messages import RemoteError
from repro.transactions.lightweight import (
    Transaction,
    TransactionManager,
    TransactionalStore,
)
from repro.transactions.locks import TransactionAborted

#: By convention the coordinator module exports ready_to_commit as
#: procedure 0; the participant needs to know which module number the
#: client's coordinator occupies (clients usually export it first: 0).
READY_TO_COMMIT_PROC = 0

VOTE_COMMIT = b"\x01"
VOTE_ABORT = b"\x00"

TXN_ABORTED_ERROR = "TransactionAborted"

_TXN_HEADER = struct.Struct("!I")


def encode_vote(txn_serial: int, ready: bool) -> bytes:
    return _TXN_HEADER.pack(txn_serial) + (VOTE_COMMIT if ready else VOTE_ABORT)


def decode_vote(data: bytes):
    (serial,) = _TXN_HEADER.unpack_from(data, 0)
    return serial, data[_TXN_HEADER.size:] == VOTE_COMMIT


class CommitCoordinator:
    """The client half: exports ``ready_to_commit`` and plays the
    coordinator of two-phase commit for every transaction its thread runs.

    The gather of all server members' votes is exactly the runtime's
    many-to-one machinery: the handler sees every vote at once (explicit
    replication) and checks that the group was complete — an incomplete
    group means some server member never became ready within the gather
    timeout, i.e. the Theorem 5.1 deadlock, and the answer is *abort*.
    """

    def __init__(self, runtime: TroupeRuntime):
        self.runtime = runtime
        module = ExportedModule(
            "commit-coordinator",
            {READY_TO_COMMIT_PROC: ExplicitProcedure(self._ready_to_commit)})
        self.module_addr: ModuleAddress = runtime.export(module)
        runtime.start_server()
        self.decisions = {"commit": 0, "abort": 0}

    @property
    def module_number(self) -> int:
        return self.module_addr.module

    def _ready_to_commit(self, ctx: CallContext, args_by_peer) -> bytes:
        sim = self.runtime.sim
        process = self.runtime.process
        votes = []
        serials = []
        for peer, raw in args_by_peer.items():
            serial, ready = decode_vote(raw)
            votes.append(ready)
            serials.append(serial)
            if "txn.vote" in sim.bus.wanted:
                sim.bus.emit(obs_events.CommitVote(
                    t=sim.now, host=process.host, proc=process.name,
                    peer=peer, serial=serial, ready=ready))
        ok = ctx.group_complete and all(votes)
        self.decisions["commit" if ok else "abort"] += 1
        if "txn.commit" in sim.bus.wanted:
            sim.bus.emit(obs_events.CommitOutcome(
                t=sim.now, host=process.host, proc=process.name,
                decision="commit" if ok else "abort", votes=len(votes),
                group_complete=ctx.group_complete,
                serials=tuple(serials)))
        return VOTE_COMMIT if ok else VOTE_ABORT


class CommitParticipant:
    """The server half: wraps transactional procedure bodies.

    ``run_transaction`` executes a body inside a fresh top-level
    transaction, then drives the ready_to_commit call-back and commits or
    aborts according to the client's decision.  Used from inside an
    ordinary replicated procedure handler.
    """

    def __init__(self, runtime: TroupeRuntime, manager: TransactionManager,
                 store: TransactionalStore,
                 coordinator_module: int = 0,
                 deadlock_interval: float = 100.0):
        self.runtime = runtime
        self.manager = manager
        self.store = store
        self.coordinator_module = coordinator_module
        # §2.3.1: local deadlocks (e.g. two transactions upgrading shared
        # locks on the same object) are broken by aborting a victim; the
        # commit protocol then aborts the transaction at every member.
        self.deadlock_detector = None
        if deadlock_interval > 0:
            from repro.transactions.deadlock import DeadlockDetector
            self.deadlock_detector = DeadlockDetector(
                runtime.sim, manager.waits_for,
                lambda victim: manager.abort(victim, "deadlock victim"),
                interval=deadlock_interval,
                age_fn=lambda txn: txn.serial)
            # Event-driven: scans are scheduled only while a transaction
            # is actually blocked, so idle members generate no events.
            self.deadlock_detector.attach(manager.locks)

    def run_transaction(self, ctx: CallContext, body: Callable):
        """Generator: run ``body(txn)`` (a generator taking the
        transaction), then the commit protocol.  Returns the body's result
        on commit; raises RemoteError(TransactionAborted) otherwise, which
        the client should catch and retry with back-off.
        """
        txn = self.manager.begin()
        ready = True
        result = None
        try:
            result = yield from body(txn)
        except TransactionAborted:
            ready = False
        decision = yield from self._call_ready_to_commit(ctx, txn, ready)
        if decision and ready:
            self.manager.commit(txn, self.store)
            return result
        self.manager.abort(txn, "commit protocol voted abort")
        raise RemoteError(TXN_ABORTED_ERROR,
                          "transaction %s aborted" % txn.txn_id)

    def _call_ready_to_commit(self, ctx: CallContext, txn: Transaction,
                              ready: bool):
        """Generator: the replicated call back to the client troupe."""
        client_troupe = self._client_troupe(ctx)
        vote = encode_vote(txn.serial, ready)
        # The call-back's call number is derived from the original call's
        # number (assigned by the client, so identical at every server
        # member) rather than from this member's own counter: under
        # parallel execution members' counters diverge, and the votes of
        # one replicated call must group together at the coordinator.
        callback_number = ctx.call_number | 0x80000000
        try:
            answer = yield from self.runtime.call_troupe(
                client_troupe, self.coordinator_module, READY_TO_COMMIT_PROC,
                vote, collator=UnanimousCollator(), thread_id=ctx.thread_id,
                call_number=callback_number)
        except (TroupeFailure, RemoteError):
            # The client troupe vanished or misbehaved: abort.
            return False
        return answer == VOTE_COMMIT

    def _client_troupe(self, ctx: CallContext) -> TroupeDescriptor:
        """Reconstruct a descriptor for the client troupe from the call
        context (the §4.3.2 client-troupe-ID mapping, reused in reverse)."""
        members = None
        if ctx.client_troupe_id:
            members = self.runtime.resolver(ctx.client_troupe_id)
        if members is None:
            members = list(ctx.callers)
        return TroupeDescriptor(
            "client-troupe-%d" % ctx.client_troupe_id,
            ctx.client_troupe_id,
            tuple(ModuleAddress(addr, self.coordinator_module)
                  for addr in members))
