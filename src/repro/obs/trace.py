"""Replicated-call tracing: span trees and Chrome trace_event export.

A replicated call is identified by its ``(thread ID, call number)`` pair
— the trace context.  Circus already propagates both in every call header
(§3.4.1/§4.3.2): the thread ID is adopted by every replica that executes
on the thread's behalf, and the call number groups the many-to-one
gather.  The tracer therefore reconstructs a cross-process span tree from
bus events alone, with no extra wire bytes:

    client call span
    ├── per-replica execution span (one per server troupe member)
    ├── per-replica result arrival (instant)
    └── collation verdict (instant)

Nested replicated calls (a handler calling another troupe) attach under
the execution span of the replica that issued them, matched by thread ID.

Export is Chrome ``trace_event`` JSON keyed by virtual time (1 virtual ms
= 1 exported µs ×1000, i.e. ``ts`` is virtual microseconds): load it in
``chrome://tracing`` / Perfetto with one process lane per simulated host.

    with trace_calls(world.sim) as tracer:
        world.run(body())
    open("trace.json", "w").write(tracer.to_json())
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev

#: (thread_id, call_number): the trace context that rides the call header.
CallKey = Tuple[str, int]
#: (host, proc, thread_id, call_number): one client half's call.  The
#: trace context alone is not unique — a nested call reuses the thread ID
#: with its issuer's own call numbering, and in a many-to-many call every
#: member of the client troupe opens a span with the same context — so
#: client spans are additionally keyed by the issuing process.
ClientKey = Tuple[str, str, str, int]


class ExecSpan:
    """One replica's execution of a replicated call (server side)."""

    def __init__(self, event: ev.ExecutionStarted):
        self.host = event.host
        self.proc = event.proc
        self.thread_id = event.thread_id
        self.call_number = event.call_number
        self.troupe_id = event.troupe_id
        self.module = event.module
        self.procedure = event.procedure
        self.callers = event.callers
        self.group_complete = event.group_complete
        self.start = event.t
        self.end: Optional[float] = None
        self.outcome = "unfinished"
        #: nested replicated calls issued while this span was open.
        self.calls: List["CallSpan"] = []

    @property
    def name(self) -> str:
        return "exec %d.%d" % (self.module, self.procedure)


class CallSpan:
    """The client half of one replicated call and everything under it."""

    def __init__(self, event: ev.CallStarted):
        self.host = event.host
        self.proc = event.proc
        self.thread_id = event.thread_id
        self.call_number = event.call_number
        self.troupe = event.troupe
        self.troupe_id = event.troupe_id
        self.members = event.members
        self.module = event.module
        self.procedure = event.procedure
        self.start = event.t
        self.end: Optional[float] = None
        self.outcome = "unfinished"
        self.results: List[Tuple[float, str, str]] = []   # (t, member, status)
        self.collation: Optional[Tuple[float, str, int]] = None
        self.execs: List[ExecSpan] = []

    @property
    def name(self) -> str:
        return "call %s %d.%d" % (self.troupe, self.module, self.procedure)

    @property
    def key(self) -> ClientKey:
        return (self.host, self.proc, self.thread_id, self.call_number)


class OpenSpans:
    """Builds call and execution spans from ``rpc.*`` bus events and
    finds the open ones by key.

    A span is held here only while it is open; the work per event is a
    dictionary lookup however many calls are in flight.  This is all the
    critical-path analyzer needs of a tracer it owns; :class:`CallTracer`
    adds the history.
    """

    def __init__(self, sim):
        self.sim = sim
        self._open_calls: Dict[ClientKey, CallSpan] = {}
        #: (thread_id, call_number, target troupe_id) -> the open client
        #: halves of that call, in start order: one, or one per member
        #: of a calling troupe.
        self._calls_to: Dict[Tuple[str, int, int], List[CallSpan]] = {}
        #: (thread_id, host, proc) -> the executions open on that
        #: process for that thread, oldest first (more than one only
        #: when a thread's call chain re-enters the process).
        self._open_execs: Dict[Tuple[str, str, str], List[ExecSpan]] = {}
        self._sub = sim.bus.subscribe_kinds(self._handlers())

    def _handlers(self) -> Dict[str, Any]:
        return {
            ev.CallStarted.kind: self._on_call_start,
            ev.ReplicaResult.kind: self._on_result,
            ev.Collated.kind: self._on_collate,
            ev.CallCompleted.kind: self._on_call_end,
            ev.ExecutionStarted.kind: self._on_exec_start,
            ev.ExecutionFinished.kind: self._on_exec_end,
        }

    def close(self) -> None:
        self.sim.bus.unsubscribe(self._sub)

    def open_call(self, key: ClientKey) -> Optional[CallSpan]:
        """The open span of one client half, if there is one."""
        return self._open_calls.get(key)

    # -- event handling (one bus handler per kind) -------------------------

    def _on_call_start(self, event) -> None:
        self._open_call(event)

    def _open_call(self, event) -> Tuple[CallSpan, Optional[ExecSpan]]:
        """Open and index the span; also returns the execution it was
        issued from (None for a root call)."""
        span = CallSpan(event)
        stale = self._open_calls.get(span.key)
        if stale is not None:           # reopened before it closed
            self._unindex_call(stale)
        self._open_calls[span.key] = span
        self._calls_to.setdefault(
            (span.thread_id, span.call_number, span.troupe_id),
            []).append(span)
        # A nested call shares the thread ID and originates on the same
        # simulated process as the replica executing the outer call: it
        # hangs off the oldest execution still open there.
        site = self._open_execs.get((span.thread_id, span.host, span.proc))
        parent = site[0] if site else None
        if parent is not None:
            parent.calls.append(span)
        return span, parent

    def _unindex_call(self, span: CallSpan) -> None:
        context = (span.thread_id, span.call_number, span.troupe_id)
        halves = self._calls_to[context]
        halves.remove(span)
        if not halves:
            del self._calls_to[context]

    def _on_result(self, event) -> None:
        span = self._open_calls.get(
            (event.host, event.proc, event.thread_id, event.call_number))
        if span is not None:
            span.results.append((event.t, str(event.member), event.status))

    def _on_collate(self, event) -> None:
        span = self._open_calls.get(
            (event.host, event.proc, event.thread_id, event.call_number))
        if span is not None:
            span.collation = (event.t, event.verdict, event.responses)

    def _on_call_end(self, event) -> None:
        span = self._open_calls.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if span is not None:
            self._unindex_call(span)
            span.end = event.t
            span.outcome = event.outcome

    def _on_exec_start(self, event) -> None:
        self._open_exec(event)

    def _open_exec(self, event) -> ExecSpan:
        span = ExecSpan(event)
        site = self._open_execs.setdefault(
            (span.thread_id, span.host, span.proc), [])
        for i, other in enumerate(site):
            if other.call_number == span.call_number:
                site[i] = span          # re-executed before it finished
                break
        else:
            site.append(span)
        # Attach under every open client half of this call: the target
        # troupe ID separates the call to this troupe from an outer or
        # nested call sharing the same (thread, call number) context;
        # in a many-to-many call each calling member's span gets it.
        for call in self._calls_to.get(
                (span.thread_id, span.call_number, span.troupe_id), ()):
            call.execs.append(span)
        return span

    def _on_exec_end(self, event) -> None:
        where = (event.thread_id, event.host, event.proc)
        site = self._open_execs.get(where, ())
        for i, span in enumerate(site):
            if span.call_number == event.call_number:
                span.end = event.t
                span.outcome = event.outcome
                del site[i]
                if not site:
                    del self._open_execs[where]
                return


class CallTracer(OpenSpans):
    """Builds span trees from ``rpc.*`` bus events and keeps every one
    — :meth:`span_tree` and :meth:`to_chrome` are the whole run — so it
    grows with the run's length.

    Attach before the traced run (events are not replayable); detach with
    :meth:`close` or use the :func:`trace_calls` context manager.
    """

    def __init__(self, sim):
        #: root call spans (not nested under any execution), in start order.
        self.roots: List[CallSpan] = []
        #: every call span ever opened, in start order.
        self.calls: List[CallSpan] = []
        #: every execution span ever opened, in start order.
        self.execs: List[ExecSpan] = []
        #: (t, host, proc, recipients, call_number) of every rpc.return:
        #: what the Chrome export shows of one, not the stamped event.
        self._returns: List[Tuple[float, str, str, int, int]] = []
        super().__init__(sim)

    def _handlers(self) -> Dict[str, Any]:
        handlers = super()._handlers()
        handlers[ev.ReturnSent.kind] = self._on_return
        return handlers

    def _on_call_start(self, event) -> None:
        span, parent = self._open_call(event)
        self.calls.append(span)
        if parent is None:
            self.roots.append(span)

    def _on_exec_start(self, event) -> None:
        self.execs.append(self._open_exec(event))

    def _on_return(self, event) -> None:
        self._returns.append((event.t, event.host, event.proc,
                              event.recipients, event.call_number))

    # -- span tree ---------------------------------------------------------

    def span_tree(self) -> List[Dict[str, Any]]:
        """The trace as nested dictionaries — exact and deterministic,
        suitable for golden-file comparison."""
        return [self._call_dict(span) for span in self.roots]

    def _call_dict(self, span: CallSpan) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": span.name,
            "troupe": span.troupe,
            "client": "%s/%s" % (span.host, span.proc),
            "thread_id": span.thread_id,
            "call_number": span.call_number,
            "members": span.members,
            "t0": round(span.start, 3),
            "t1": round(span.end, 3) if span.end is not None else None,
            "outcome": span.outcome,
            "results": [
                {"t": round(t, 3), "member": member, "status": status}
                for t, member, status in span.results],
            "executions": [self._exec_dict(e)
                           for e in sorted(span.execs,
                                           key=lambda e: (e.start, e.host))],
        }
        if span.collation is not None:
            t, verdict, responses = span.collation
            out["collation"] = {"t": round(t, 3), "verdict": verdict,
                                "responses": responses}
        else:
            out["collation"] = None
        return out

    def _exec_dict(self, span: ExecSpan) -> Dict[str, Any]:
        return {
            "name": span.name,
            "replica": "%s/%s" % (span.host, span.proc),
            "t0": round(span.start, 3),
            "t1": round(span.end, 3) if span.end is not None else None,
            "outcome": span.outcome,
            "group_complete": span.group_complete,
            "calls": [self._call_dict(c) for c in span.calls],
        }

    # -- Chrome trace_event export ----------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The trace in Chrome ``trace_event`` JSON object format."""
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        trace_events: List[Dict[str, Any]] = []

        def lane(host: str, proc: str) -> Tuple[int, int]:
            if host not in pids:
                pids[host] = len(pids) + 1
                trace_events.append({
                    "ph": "M", "name": "process_name", "pid": pids[host],
                    "tid": 0, "args": {"name": host}})
            key = (host, proc)
            if key not in tids:
                tids[key] = len(tids) + 1
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[host],
                    "tid": tids[key], "args": {"name": proc}})
            return pids[host], tids[key]

        def us(t: float) -> float:
            return round(t * 1000.0, 3)   # virtual ms -> exported µs

        for call in self.calls:
            pid, tid = lane(call.host, call.proc)
            end = call.end if call.end is not None else call.start
            trace_events.append({
                "ph": "X", "name": call.name, "cat": "rpc",
                "ts": us(call.start), "dur": us(end - call.start),
                "pid": pid, "tid": tid,
                "args": {"troupe": call.troupe,
                         "thread_id": call.thread_id,
                         "call_number": call.call_number,
                         "members": call.members,
                         "outcome": call.outcome}})
            for t, member, status in call.results:
                trace_events.append({
                    "ph": "i", "name": "result %s" % status, "cat": "rpc",
                    "ts": us(t), "pid": pid, "tid": tid, "s": "t",
                    "args": {"member": member,
                             "call_number": call.call_number}})
            if call.collation is not None:
                t, verdict, responses = call.collation
                trace_events.append({
                    "ph": "i", "name": "collate %s" % verdict, "cat": "rpc",
                    "ts": us(t), "pid": pid, "tid": tid, "s": "t",
                    "args": {"responses": responses,
                             "call_number": call.call_number}})
        # Executions are emitted from the global list: a many-to-many
        # call attaches one execution span under several client spans,
        # but it is one slice of server time — one trace event.
        for span in self.execs:
            epid, etid = lane(span.host, span.proc)
            eend = span.end if span.end is not None else span.start
            trace_events.append({
                "ph": "X", "name": span.name, "cat": "rpc.exec",
                "ts": us(span.start), "dur": us(eend - span.start),
                "pid": epid, "tid": etid,
                "args": {"thread_id": span.thread_id,
                         "call_number": span.call_number,
                         "callers": span.callers,
                         "group_complete": span.group_complete,
                         "outcome": span.outcome}})
        for t, host, proc, recipients, call_number in self._returns:
            pid, tid = lane(host, proc)
            trace_events.append({
                "ph": "i", "name": "return", "cat": "rpc", "ts": us(t),
                "pid": pid, "tid": tid, "s": "t",
                "args": {"recipients": recipients,
                         "call_number": call_number}})
        trace_events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"],
                                         e["tid"]))
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"clock": "virtual",
                              "source": "repro.obs.trace"}}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=False)


@contextmanager
def trace_calls(sim):
    """Context manager: trace every replicated call while the body runs."""
    tracer = CallTracer(sim)
    try:
        yield tracer
    finally:
        tracer.close()
