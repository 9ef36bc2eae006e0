"""The flight recorder: a bounded ring of recent bus events that turns
into a causally ordered post-mortem when something goes wrong.

The recorder keeps the last ``capacity`` events of the causal kinds
(:data:`repro.obs.events.CAUSAL_KINDS`, the ones that tick the clocks a
cut is taken with) and of ``mon.warn`` / ``mon.error``.  It subscribes
to nothing else, so attaching it makes the bus build no passive event
(``net.*``, ``sim.*``, acks): subscribe to those yourself for
packet-level detail.

When an :class:`~repro.obs.events.InvariantViolation` arrives (or the
monitored block raises — see :func:`repro.obs.monitor.watch`), the
ring is sliced along the violation's vector clock: every retained event
whose stamp satisfies ``vc_leq(event.vc, violation.vc)`` is in the
violation's causal past and belongs to the *causal cut*; the cut is
linearized by Lamport clock (a causally consistent order) and attached
to the report together with the vector-clock frontier and, when a
:class:`~repro.obs.trace.CallTracer` is watching, the call spans the
offending events belong to.

Reports serialize to JSON (``dump``) and render to text
(:func:`render_postmortem`); the ``repro postmortem`` CLI subcommand
re-renders a dumped report.
"""

from __future__ import annotations

import collections
import dataclasses
import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import events as obs_events
from repro.obs.clocks import causal_sort_key, vc_leq


def event_to_dict(event) -> Dict[str, Any]:
    """A JSON-ready view of any bus event: kind, virtual time, causal
    stamp (when present) and the dataclass payload with addresses
    stringified, payload bytes reduced to sizes, and evidence events
    summarized one level deep."""
    out: Dict[str, Any] = {"kind": event.kind, "t": event.t}
    node = getattr(event, "node", None)
    if node is not None:
        out["node"] = node
        out["lamport"] = getattr(event, "lamport", 0)
        out["vc"] = dict(getattr(event, "vc", {}) or {})
    for field in dataclasses.fields(event):
        if field.name == "t":
            continue
        value = getattr(event, field.name)
        if isinstance(value, bytes):
            out[field.name + "_size"] = len(value)
        elif field.name == "evidence":
            out["evidence"] = [event_to_dict(e) for e in value]
        elif isinstance(value, (str, int, float, bool)) or value is None:
            out[field.name] = value
        elif isinstance(value, (list, tuple)):
            out[field.name] = [str(v) if not isinstance(
                v, (str, int, float, bool)) else v for v in value]
        else:
            out[field.name] = str(value)
    return out


#: What the ring holds: the kinds a causal cut can explain, plus the
#: monitors' warnings and errors.
RINGED_KINDS = obs_events.CAUSAL_KINDS | {"mon.warn", "mon.error"}


class FlightRecorder:
    """Keep the last ``capacity`` events of :data:`RINGED_KINDS`; cut and
    dump on demand."""

    def __init__(self, bus, capacity: int = 2048):
        self.bus = bus
        self.capacity = capacity
        self.ring: collections.deque = collections.deque(maxlen=capacity)
        self.dropped = 0
        self.violations: List[obs_events.InvariantViolation] = []
        self.monitor_errors: List[obs_events.MonitorError] = []
        self.crash: Optional[Dict[str, Any]] = None
        #: the full membership history, outside the ring: every
        #: ``bind.member`` event as a troupe-ID timeline entry.  Ring
        #: eviction never loses a reconfiguration, so a post-mortem
        #: always shows which incarnation of each troupe a violation
        #: happened against.
        self.membership: List[Dict[str, Any]] = []
        #: arbitrary JSON-able context included in the post-mortem — the
        #: fault explorer stores the offending schedule and seed here so
        #: a dumped report is replayable on its own.
        self.context: Dict[str, Any] = {}
        self._overflow_warned = False
        self._warning_inflight = False
        # The ring's handler; the three kinds with bookkeeping of their
        # own get it from the bus's per-kind dispatch.
        self._subs = [
            bus.subscribe_kinds(dict.fromkeys(RINGED_KINDS, self._record)),
            bus.subscribe_kinds({
                "mon.violation": self.violations.append,
                "mon.error": self.monitor_errors.append,
                "bind.member": self._on_membership,
            })]

    def detach(self) -> None:
        for sub in self._subs:
            self.bus.unsubscribe(sub)
        self._subs = []

    def _record(self, event) -> None:
        ring = self.ring
        if len(ring) != self.capacity:
            ring.append(event)
            return
        if self._warning_inflight and event.kind == "mon.warn":
            # Our own overflow warning coming back around the bus: other
            # subscribers should see it, but recording it here would
            # evict one more real event and inflate the drop count.
            return
        self.dropped += 1
        ring.append(event)
        if not self._overflow_warned:
            # Truncated post-mortems are self-announcing: the first drop
            # puts a mon.warn on the bus (once).
            self._overflow_warned = True
            self._warning_inflight = True
            try:
                self.bus.emit(obs_events.MonitorWarning(
                    t=getattr(event, "t", 0.0), source="FlightRecorder",
                    message="ring overflowed (capacity %d); oldest events "
                            "are being dropped" % self.capacity,
                    dropped=self.dropped))
            finally:
                self._warning_inflight = False

    def _on_membership(self, event) -> None:
        self.membership.append({
            "t": event.t,
            "name": event.name,
            "op": event.op,
            "old_id": event.old_id,
            "new_id": event.new_id,
            "members": event.members,
        })

    def record_crash(self, exc: BaseException, t: float = 0.0) -> None:
        """Note an unexpected simulation crash (an exception escaping
        the watched block) so the post-mortem reports it."""
        self.crash = {
            "type": type(exc).__name__,
            "message": str(exc),
            "t": t,
        }

    # -- the causal cut ----------------------------------------------------

    def causal_cut(self, violation) -> List[Any]:
        """Every retained event in the violation's causal past (its own
        evidence included), linearized causally.  Without clocks the cut
        degrades to everything recorded up to the violation, in
        emission order."""
        frontier = getattr(violation, "vc", None)
        if frontier:
            cut = [e for e in self.ring
                   if getattr(e, "vc", None)
                   and e is not violation
                   and vc_leq(e.vc, frontier)]
            cut.sort(key=causal_sort_key)
            return cut
        cut = []
        for e in self.ring:
            if e is violation:
                break
            cut.append(e)
        return cut

    # -- reports -----------------------------------------------------------

    def postmortem(self, tracer=None, critpath=None) -> Dict[str, Any]:
        """The full post-mortem report as a JSON-ready dictionary.

        ``critpath`` (a :class:`~repro.obs.critpath.CritPathAnalyzer`
        that watched the run) embeds each violating call's critical-path
        stage breakdown, so the report says *where* the latency sat, not
        just which invariant fired."""
        report: Dict[str, Any] = {
            "format": "repro.postmortem/1",
            "recorded": len(self.ring),
            "dropped": self.dropped,
            "violations": [self._violation_dict(v, tracer, critpath)
                           for v in self.violations],
            "monitor_errors": [event_to_dict(e)
                               for e in self.monitor_errors],
            "crash": self.crash,
        }
        if self.context:
            report["context"] = self.context
        if self.membership:
            report["membership"] = list(self.membership)
        if self.crash is not None:
            # No violation frontier to cut at: give the investigator the
            # causally linearized tail of the ring instead.
            tail = sorted(self.ring, key=causal_sort_key)
            report["tail"] = [event_to_dict(e) for e in tail[-64:]]
        return report

    def _violation_dict(self, violation, tracer,
                        critpath=None) -> Dict[str, Any]:
        out = event_to_dict(violation)
        cut = self.causal_cut(violation)
        out["causal_cut"] = [event_to_dict(e) for e in cut]
        out["frontier"] = dict(getattr(violation, "vc", {}) or {})
        if tracer is not None:
            out["spans"] = self._involved_spans(violation, tracer)
        if critpath is not None:
            paths = [path.to_dict() for path in critpath.paths()
                     if (path.call.thread_id, path.call.call_number)
                     in self._evidence_contexts(violation)]
            if paths:
                out["critical_path"] = paths
        return out

    @staticmethod
    def _evidence_contexts(violation) -> Set[Tuple[str, int]]:
        """The (thread_id, call_number) trace contexts in the evidence."""
        contexts: Set[Tuple[str, int]] = set()
        for e in violation.evidence:
            thread_id = getattr(e, "thread_id", None)
            call_number = getattr(e, "call_number", None)
            if thread_id is not None and call_number is not None:
                contexts.add((thread_id, call_number))
        return contexts

    def _involved_spans(self, violation, tracer) -> List[Dict[str, Any]]:
        """Call spans whose trace context appears in the evidence."""
        contexts = self._evidence_contexts(violation)
        spans = []
        for span in tracer.calls:
            if (span.thread_id, span.call_number) in contexts:
                spans.append(tracer._call_dict(span))
        return spans

    def dump(self, path, tracer=None, critpath=None) -> Dict[str, Any]:
        """Write the post-mortem to ``path`` as JSON; returns it."""
        report = self.postmortem(tracer=tracer, critpath=critpath)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
        return report


# ---------------------------------------------------------------------------
# Human-readable rendering
# ---------------------------------------------------------------------------

def _fmt_vc(vc: Dict[str, int]) -> str:
    if not vc:
        return "{}"
    return "{%s}" % ", ".join(
        "%s:%d" % (node, vc[node]) for node in sorted(vc))

_STAMP_FIELDS = ("kind", "t", "node", "lamport", "vc", "evidence",
                 "causal_cut", "frontier", "spans")


def _fmt_event(e: Dict[str, Any]) -> str:
    payload = ", ".join(
        "%s=%s" % (k, v) for k, v in e.items() if k not in _STAMP_FIELDS)
    line = "[L%-4s t=%-8g] %-16s %s" % (
        e.get("lamport", "?"), e.get("t", 0.0), e.get("kind", "?"), payload)
    node = e.get("node")
    if node:
        line += "   @%s" % node
    return line


def render_postmortem(report: Dict[str, Any]) -> str:
    """Render a dumped post-mortem report for humans."""
    lines: List[str] = []
    push = lines.append
    push("=== post-mortem (%s) ===" % report.get("format", "?"))
    push("ring: %d events retained, %d dropped" % (
        report.get("recorded", 0), report.get("dropped", 0)))
    crash = report.get("crash")
    if crash:
        push("CRASH: %s: %s (t=%g)" % (
            crash.get("type"), crash.get("message"), crash.get("t", 0.0)))
    violations = report.get("violations", [])
    push("%d violation(s)" % len(violations))
    for i, v in enumerate(violations):
        push("")
        push("--- violation %d: %s [%s, §%s] ---" % (
            i + 1, v.get("invariant"), v.get("monitor"), v.get("section")))
        push("  subject: %s" % v.get("subject"))
        push("  %s" % v.get("message"))
        if v.get("frontier"):
            push("  frontier: %s" % _fmt_vc(v["frontier"]))
        evidence = v.get("evidence", [])
        if evidence:
            push("  offending events:")
            for e in evidence:
                push("    " + _fmt_event(e))
        cut = v.get("causal_cut", [])
        if cut:
            push("  causal past (%d events, causal order):" % len(cut))
            for e in cut:
                push("    " + _fmt_event(e))
        for span in v.get("spans", []) or []:
            push("  involved span: %s by %s (call#%s, %s)" % (
                span.get("name"), span.get("client"),
                span.get("call_number"), span.get("outcome")))
        for path in v.get("critical_path", []) or []:
            push("  critical path of %s (call#%s, %.3f ms, dominant: %s):"
                 % (path.get("call"), path.get("call_number"),
                    path.get("duration_ms", 0.0), path.get("dominant")))
            for stage, dur in path.get("stages", []):
                push("    %-18s %10.3f ms" % (stage, dur))
    membership = report.get("membership", [])
    if membership:
        push("")
        push("membership history (%d change(s)):" % len(membership))
        for entry in membership:
            push("  [t=%-8g] %-8s %-20s id %d -> %d (%d member(s))" % (
                entry.get("t", 0.0), entry.get("op", "?"),
                entry.get("name", "?"), entry.get("old_id", 0),
                entry.get("new_id", 0), entry.get("members", 0)))
    lincheck = report.get("lincheck")
    if lincheck:
        push("")
        push("--- offline history check (%s) ---" % lincheck.get("semantics"))
        push("  verdict: %s over %d operation(s)" % (
            "OK" if lincheck.get("ok") else "VIOLATION",
            lincheck.get("checked", 0)))
        if lincheck.get("reason"):
            push("  %s" % lincheck["reason"])
        if lincheck.get("key") is not None:
            push("  key: %r" % lincheck["key"])
        violation_ops = lincheck.get("violation", [])
        if violation_ops:
            from repro.obs.history import format_operation
            push("  minimal violating sub-history (%d operation(s)):"
                 % len(violation_ops))
            for op in violation_ops:
                push("    " + format_operation(op))
    errors = report.get("monitor_errors", [])
    if errors:
        push("")
        push("%d monitor error(s) contained by the bus:" % len(errors))
        for e in errors:
            push("  %s during %s: %s" % (
                e.get("handler"), e.get("event_kind"), e.get("error")))
    tail = report.get("tail", [])
    if tail:
        push("")
        push("last %d events before the crash (causal order):" % len(tail))
        for e in tail:
            push("  " + _fmt_event(e))
    push("")
    return "\n".join(lines)
