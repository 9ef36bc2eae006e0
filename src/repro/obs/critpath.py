"""Critical-path latency attribution for replicated calls.

A circus call's latency is one opaque number in the metrics registry
(``rpc.call_ms``).  This module decomposes it: for every completed call
span the analyzer walks the :class:`~repro.obs.trace.CallTracer` tree
plus the paired-message timeline and partitions ``[call_start,
call_end]`` into named *stages*, each bounded by a protocol milestone on
the call's critical path:

======================  ====================================================
stage                   covers
======================  ====================================================
``encode_send``         call issued -> last CALL segment handed to the wire
                        (argument encoding + kernel send queueing)
``gather_wait``         CALL on the wire -> the *critical replica* starts
                        executing (network flight, reassembly, the §4.3.2
                        many-to-one gather, server scheduling)
``execute``             the critical replica runs the procedure body
``return_send``         execution done -> RETURN segments handed to the wire
``return_wait``         RETURN on the wire -> the critical result reaches
                        the calling client (flight + reassembly)
``collate_wait``        critical result in hand -> collation verdict
                        (waiting on the needs-all/unanimity decision)
``complete``            verdict -> the call actually returns to the caller
``retransmit_stall``    carved out of ``gather_wait``/``return_wait``: the
                        tail of the stage after its first retransmission —
                        latency bought by loss, not by the protocol
======================  ====================================================

The *critical replica* is the member whose result completed the
collation set: the last result at or before the collation verdict.  Its
execution span and RETURN transmission bound the server-side stages.

The stage intervals telescope — consecutive milestones are clamped
monotonically into ``[start, end]`` — so per-call stage durations sum to
the call's latency *exactly*; a missing milestone (crashed replica,
degraded trace) merges its interval into the following stage and marks
the call ``degraded`` rather than leaking time.  Residual is therefore
zero for every attributed call, and attribution is deterministic: two
same-seed runs produce identical stage sums.

When a :class:`~repro.obs.clocks.ClockDomain` is installed the analyzer
also checks each adjacent milestone pair against the recorded vector
clocks (:func:`~repro.obs.clocks.happens_before`) and counts any pair
whose stamps are *concurrent* — a cross-check that the walked path is a
real causal chain (``causal_violations`` stays 0 on healthy runs).

    with CritPathAnalyzer(world.sim) as cp:
        world.run(body())
    print(cp.render())
    cp.report()["stages"]["execute"]["share_pct"]
"""

from __future__ import annotations

import collections
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev
from repro.obs.clocks import host_of, vc_leq
from repro.obs.metrics import Histogram
from repro.obs.trace import CallSpan, CallTracer

# Paired-message type codes (repro.pairedmsg.segments.MSG_CALL /
# MSG_RETURN), bound lazily on first analyzer construction: repro.obs
# must stay importable below the protocol stack.
_MSG_CODES: List[int] = []


def _msg_codes() -> List[int]:
    if not _MSG_CODES:
        from repro.pairedmsg.segments import MSG_CALL, MSG_RETURN
        _MSG_CODES.extend((MSG_CALL, MSG_RETURN))
    return _MSG_CODES

#: Stage names, critical-path order.  ``retransmit_stall`` is carved out
#: of the waiting stages; ``unattributed`` only appears for calls whose
#: span never closed (excluded from attribution percentages).
STAGES = ("encode_send", "gather_wait", "execute", "return_send",
          "return_wait", "collate_wait", "complete", "retransmit_stall")

#: Cap on remembered pm.send/pm.retransmit entries per (endpoint, type)
#: key — a single call never needs more; keeps long runs bounded.
_TIMELINE_CAP = 4096


class CallPath:
    """One completed call's stage decomposition."""

    __slots__ = ("call", "stages", "dominant", "retransmits", "degraded",
                 "causal_violations")

    def __init__(self, call: CallSpan, stages: List[Tuple[str, float]],
                 retransmits: int, degraded: bool, causal_violations: int):
        self.call = call
        #: ``[(stage, duration_ms), ...]`` in path order; durations >= 0
        #: and summing exactly to ``call.end - call.start``.
        self.stages = stages
        self.retransmits = retransmits
        self.degraded = degraded
        self.causal_violations = causal_violations
        self.dominant = max(stages, key=lambda s: (s[1], -stages.index(s)))[0] \
            if stages else "unattributed"

    @property
    def duration(self) -> float:
        return (self.call.end or self.call.start) - self.call.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "call": self.call.name,
            "client": "%s/%s" % (self.call.host, self.call.proc),
            "call_number": self.call.call_number,
            "t0": round(self.call.start, 3),
            "duration_ms": round(self.duration, 3),
            "dominant": self.dominant,
            "degraded": self.degraded,
            "retransmits": self.retransmits,
            "stages": [[name, round(dur, 6)] for name, dur in self.stages],
        }


class CritPathAnalyzer:
    """Builds :class:`CallPath` decompositions from a traced run.

    Owns a :class:`CallTracer` unless one is passed in, and additionally
    records the ``pm.send`` / ``pm.retransmit`` timeline needed to place
    the wire milestones.  Attach before the run; analysis happens on
    demand (:meth:`paths` / :meth:`report`) after it.
    """

    def __init__(self, sim, tracer: Optional[CallTracer] = None):
        self.sim = sim
        self._msg_call, self._msg_return = _msg_codes()
        self._owns_tracer = tracer is None
        self.tracer = tracer or CallTracer(sim)
        #: (endpoint_host, proc, call_number, msg_type) ->
        #: [(t, peer_host), ...] in emission order.
        self._sends: Dict[Tuple[str, str, int, int], List[Tuple[float, str]]]
        self._sends = collections.defaultdict(list)
        #: same key -> [t, ...] of retransmitted segments.
        self._retransmits: Dict[Tuple[str, str, int, int], List[float]]
        self._retransmits = collections.defaultdict(list)
        #: deterministic work counter: timeline entries recorded (the
        #: observability-overhead proxy reads this).
        self.milestones = 0
        self._paths: Optional[List[CallPath]] = None
        self._sub = sim.bus.subscribe_kinds({
            ev.MessageSent.kind: self._on_send,
            ev.SegmentRetransmitted.kind: self._on_retransmit,
        })

    def close(self) -> None:
        self.sim.bus.unsubscribe(self._sub)
        if self._owns_tracer:
            self.tracer.close()

    def __enter__(self) -> "CritPathAnalyzer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- timeline capture --------------------------------------------------

    def _on_send(self, event) -> None:
        self._paths = None
        bucket = self._sends[(host_of(event.endpoint), event.proc,
                              event.call_number, event.msg_type)]
        if len(bucket) < _TIMELINE_CAP:
            bucket.append((event.t, host_of(event.peer)))
            self.milestones += 1

    def _on_retransmit(self, event) -> None:
        self._paths = None
        bucket = self._retransmits[(host_of(event.endpoint), event.proc,
                                    event.call_number, event.msg_type)]
        if len(bucket) < _TIMELINE_CAP:
            bucket.append(event.t)
            self.milestones += 1

    # -- analysis ----------------------------------------------------------

    def paths(self) -> List[CallPath]:
        """Stage decompositions for every *completed* call, start order."""
        if self._paths is None:
            self._paths = [self._analyze(call) for call in self.tracer.calls
                           if call.end is not None]
        return self._paths

    def _analyze(self, call: CallSpan) -> CallPath:
        start, end = call.start, call.end
        degraded = False

        # Milestone 1: the last CALL segment batch the client handed to
        # the wire for this call (multicast emits one pm.send per peer).
        call_sends = self._sends.get(
            (call.host, call.proc, call.call_number, self._msg_call), ())
        call_sends = [t for t, _peer in call_sends if start <= t <= end]
        m_sent = max(call_sends) if call_sends else None

        # The critical replica: whose result completed the collation set.
        collate_t = call.collation[0] if call.collation is not None else end
        critical = None
        for t, member, _status in call.results:
            if t <= collate_t and (critical is None or t >= critical[0]):
                critical = (t, member)
        m_result = critical[0] if critical is not None else None
        crit_host = host_of(critical[1]) if critical is not None else None

        # Its execution span (latest exec on that host within the call).
        crit_exec = None
        for span in call.execs:
            if crit_host is not None and span.host != crit_host:
                continue
            if span.end is None or span.end > end:
                continue
            if crit_exec is None or span.end > crit_exec.end:
                crit_exec = span
        m_exec_start = crit_exec.start if crit_exec is not None else None
        m_exec_end = crit_exec.end if crit_exec is not None else None

        # Milestone 4: the critical replica's RETURN transmission back to
        # the calling host (last send at or before the result arrival).
        m_ret_sent = None
        if crit_exec is not None:
            ret_sends = self._sends.get(
                (crit_exec.host, crit_exec.proc, call.call_number,
                 self._msg_return), ())
            limit = m_result if m_result is not None else end
            for t, peer_host in ret_sends:
                if peer_host == call.host and t <= limit:
                    if m_ret_sent is None or t > m_ret_sent:
                        m_ret_sent = t

        m_collate = call.collation[0] if call.collation is not None else None

        milestones = [
            ("encode_send", m_sent),
            ("gather_wait", m_exec_start),
            ("execute", m_exec_end),
            ("return_send", m_ret_sent),
            ("return_wait", m_result),
            ("collate_wait", m_collate),
            ("complete", end),
        ]

        # Telescoping partition with monotone clamping: each stage covers
        # [previous milestone, its own]; a missing milestone contributes a
        # zero-width stage and its time merges into the next stage.
        intervals: List[Tuple[str, float, float]] = []
        cursor = start
        for name, t in milestones:
            if t is None:
                degraded = True
                t = cursor
            t = min(max(t, cursor), end)
            intervals.append((name, cursor, t))
            cursor = t
        if cursor < end:             # end milestone always lands on end
            intervals.append(("complete", cursor, end))
            degraded = True

        # Carve retransmit stalls out of the waiting stages: everything
        # after a stage's first retransmission was bought by loss.
        retx = self._retransmit_times(call, crit_exec)
        stage_totals: Dict[str, float] = {name: 0.0 for name in STAGES}
        for name, a, b in intervals:
            if b <= a:
                continue
            if name in ("gather_wait", "return_wait"):
                first = None
                for t in retx:
                    if a < t < b and (first is None or t < first):
                        first = t
                if first is not None:
                    stage_totals[name] += first - a
                    stage_totals["retransmit_stall"] += b - first
                    continue
            stage_totals[name] += b - a

        stages = [(name, stage_totals[name]) for name in STAGES
                  if stage_totals[name] > 0.0]
        if not stages:               # zero-latency call: all stages empty
            stages = [("complete", 0.0)]
        return CallPath(call, stages, retransmits=len(retx),
                        degraded=degraded,
                        causal_violations=self._causal_check(call, crit_exec))

    def _retransmit_times(self, call: CallSpan, crit_exec) -> List[float]:
        """Retransmission instants on this call's critical path: the
        client's CALL segments plus the critical replica's RETURN."""
        out = list(self._retransmits.get(
            (call.host, call.proc, call.call_number, self._msg_call), ()))
        if crit_exec is not None:
            out.extend(self._retransmits.get(
                (crit_exec.host, crit_exec.proc, call.call_number,
                 self._msg_return), ()))
        end = call.end if call.end is not None else call.start
        return sorted(t for t in out if call.start <= t <= end)

    def _causal_check(self, call: CallSpan, crit_exec) -> int:
        """Vector-clock cross-check: adjacent critical-path endpoints must
        be causally ordered when a ClockDomain stamped the run.  Returns
        the number of *concurrent* adjacent pairs (0 when unstamped)."""
        domain = getattr(self.sim.bus, "stamper", None)
        if domain is None or crit_exec is None:
            return 0
        chain = []
        client_vc = domain.clock_of("%s/%s" % (call.host, call.proc))
        exec_vc = domain.clock_of("%s/%s" % (crit_exec.host, crit_exec.proc))
        if client_vc:
            chain.append(client_vc)
        if exec_vc:
            chain.append(exec_vc)
        violations = 0
        for a, b in zip(chain, chain[1:]):
            if not (vc_leq(a, b) or vc_leq(b, a)):
                violations += 1
        return violations

    # -- reporting ---------------------------------------------------------

    def stage_histograms(self) -> Dict[str, Histogram]:
        """One exact histogram of per-call durations per stage."""
        hists: Dict[str, Histogram] = {}
        for path in self.paths():
            for name, dur in path.stages:
                hists.setdefault(name, Histogram()).observe(dur)
        return hists

    def report(self) -> Dict[str, Any]:
        """Deterministic JSON-friendly summary of the whole run."""
        paths = self.paths()
        total = sum(p.duration for p in paths)
        attributed = sum(dur for p in paths for _, dur in p.stages)
        dominant: Dict[str, int] = {}
        for p in paths:
            dominant[p.dominant] = dominant.get(p.dominant, 0) + 1
        stages: Dict[str, Any] = {}
        for name, hist in sorted(self.stage_histograms().items(),
                                 key=lambda kv: STAGES.index(kv[0])
                                 if kv[0] in STAGES else len(STAGES)):
            stages[name] = {
                "count": hist.count,
                "total_ms": round(hist.total, 3),
                "share_pct": round(100.0 * hist.total / total, 2)
                if total else 0.0,
                "p50_ms": round(hist.percentile(50), 3),
                "p90_ms": round(hist.percentile(90), 3),
                "max_ms": round(max(hist.values), 3),
            }
        return {
            "calls": len(paths),
            "degraded_calls": sum(1 for p in paths if p.degraded),
            "causal_violations": sum(p.causal_violations for p in paths),
            "total_latency_ms": round(total, 3),
            "attributed_ms": round(attributed, 3),
            "attributed_pct": round(100.0 * attributed / total, 2)
            if total else 100.0,
            "residual_ms": round(total - attributed, 3),
            "residual_pct": round(100.0 * (total - attributed) / total, 2)
            if total else 0.0,
            "dominant": {k: dominant[k] for k in sorted(dominant)},
            "stages": stages,
        }

    def render(self) -> str:
        """Human-readable stage table plus attribution line."""
        rep = self.report()
        lines = ["critical path over %d call(s): %.3f ms total, "
                 "%.2f%% attributed (residual %.3f ms)" % (
                     rep["calls"], rep["total_latency_ms"],
                     rep["attributed_pct"], rep["residual_ms"])]
        header = "%-18s %6s %12s %8s %10s %10s %10s" % (
            "stage", "calls", "total ms", "share", "p50 ms", "p90 ms",
            "max ms")
        lines.append(header)
        lines.append("-" * len(header))
        for name, row in rep["stages"].items():
            lines.append("%-18s %6d %12.3f %7.2f%% %10.3f %10.3f %10.3f" % (
                name, row["count"], row["total_ms"], row["share_pct"],
                row["p50_ms"], row["p90_ms"], row["max_ms"]))
        if rep["dominant"]:
            lines.append("dominant stages: " + ", ".join(
                "%s=%d" % kv for kv in rep["dominant"].items()))
        if rep["degraded_calls"]:
            lines.append("degraded calls (missing milestones): %d"
                         % rep["degraded_calls"])
        if rep["causal_violations"]:
            lines.append("CAUSAL VIOLATIONS on critical path: %d"
                         % rep["causal_violations"])
        return "\n".join(lines)
