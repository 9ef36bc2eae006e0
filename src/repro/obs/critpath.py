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
                        for the critical replica (argument encoding +
                        kernel send queueing)
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
the call's latency (to float rounding: each stage is a difference of
two instants); a missing milestone (crashed replica, degraded trace)
merges its interval into the following stage and marks
the call ``degraded`` rather than leaking time; so does a milestone out
of order, which is clamped and counted (``clamped_milestones``).
Residual is therefore zero for every attributed call, and attribution
is deterministic: two same-seed runs produce identical stage sums.

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
import contextlib
import math
from array import array
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs import events as ev
from repro.obs.clocks import host_of, vc_leq
from repro.obs.metrics import Histogram
from repro.obs.trace import CallSpan, CallTracer, ClientKey, OpenSpans

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

#: Stage name -> its code in a folded row; the waiting stages a
#: retransmission can stall, and the stall itself.
_CODE = {name: code for code, name in enumerate(STAGES)}
_WAITING = (_CODE["gather_wait"], _CODE["return_wait"])
_STALL = _CODE["retransmit_stall"]


def _longest(durations) -> int:
    """Where the dominant stage is: the longest, the earliest of equals."""
    return durations.index(max(durations))


#: Cap on remembered pm.send/pm.retransmit entries per (endpoint, type)
#: key.  A key lives only while an unfolded call holds it, so this bounds
#: the one thing the fold cannot: a call that never ends.
_TIMELINE_CAP = 4096


class CallRef:
    """Who called what and when: what :meth:`CritPathAnalyzer.paths`
    tells of a call's :class:`~repro.obs.trace.CallSpan`, not the tree
    under it."""

    __slots__ = ("host", "proc", "thread_id", "call_number", "troupe",
                 "module", "procedure", "start", "end")

    def __init__(self, host: str, proc: str, thread_id: str,
                 call_number: int, troupe: str, module: int,
                 procedure: int, start: float, end: float):
        self.host = host
        self.proc = proc
        self.thread_id = thread_id
        self.call_number = call_number
        self.troupe = troupe
        self.module = module
        self.procedure = procedure
        self.start = start
        self.end = end

    @property
    def name(self) -> str:
        return "call %s %d.%d" % (self.troupe, self.module, self.procedure)


class CallPath:
    """One completed call's stage decomposition."""

    __slots__ = ("call", "stages", "dominant", "retransmits", "degraded",
                 "causal_violations", "exec_node")

    def __init__(self, call: CallRef, stages: List[Tuple[str, float]],
                 retransmits: int, degraded: bool,
                 exec_node: Optional[str], causal_violations: int = 0):
        self.call = call
        #: ``[(stage, duration_ms), ...]`` in path order; durations >= 0
        #: and summing to ``call.end - call.start`` (to float rounding).
        self.stages = stages
        self.retransmits = retransmits
        self.degraded = degraded
        #: the critical replica's clock-domain node (None: no execution
        #: on the path), and what the causal cross-check of it against
        #: the client's node read when the path was asked for.
        self.exec_node = exec_node
        self.causal_violations = causal_violations
        self.dominant = stages[_longest([dur for _, dur in stages])][0] \
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


#: (host, proc, thread_id, troupe, module, procedure): who called what.
_Caller = Tuple[str, str, str, str, int, int]


class _Rows:
    """Folded calls, one row each, as flat columns: no object per call.

    A row holds its call's start and end, its critical-path stages (a
    code into :data:`STAGES` and a duration each, at
    ``stages_at[row]:stages_at[row + 1]`` of the two stage columns), its
    retransmission count, degraded flag and clamped milestones, and — as
    places in two small tables that every row shares — who called what
    and the critical replica's node (-1: none).
    """

    __slots__ = ("start", "end", "call_number", "caller", "exec_node",
                 "retransmits", "degraded", "clamps", "stages_at", "codes",
                 "durations", "callers", "exec_nodes", "_caller_at",
                 "_node_at")

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.call_number = array("q")
        self.caller = array("I")
        self.exec_node = array("i")
        self.retransmits = array("I")
        self.degraded = array("B")
        self.clamps = array("B")
        self.stages_at = array("I", [0])
        self.codes = array("B")
        self.durations = array("d")
        self.callers: List[_Caller] = []
        self.exec_nodes: List[str] = []
        self._caller_at: Dict[_Caller, int] = {}
        self._node_at: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def add(self, call: CallSpan, stages: List[Tuple[int, float]],
            retransmits: int, degraded: bool, clamps: int,
            exec_node: Optional[str]) -> int:
        """Append one call's row; returns its number."""
        caller = (call.host, call.proc, call.thread_id, call.troupe,
                  call.module, call.procedure)
        at = self._caller_at.get(caller)
        if at is None:
            at = self._caller_at[caller] = len(self.callers)
            self.callers.append(caller)
        node = -1
        if exec_node is not None:
            node = self._node_at.get(exec_node, -1)
            if node < 0:
                node = self._node_at[exec_node] = len(self.exec_nodes)
                self.exec_nodes.append(exec_node)
        self.start.append(call.start)
        self.end.append(call.end)
        self.call_number.append(call.call_number)
        self.caller.append(at)
        self.exec_node.append(node)
        self.retransmits.append(retransmits)
        self.degraded.append(degraded)
        self.clamps.append(clamps)
        for code, duration in stages:
            self.codes.append(code)
            self.durations.append(duration)
        self.stages_at.append(len(self.codes))
        return len(self.start) - 1

    def truncate(self, rows: int) -> None:
        """Forget every row from number ``rows`` on."""
        stages = self.stages_at[rows]
        for column in (self.start, self.end, self.call_number, self.caller,
                       self.exec_node, self.retransmits, self.degraded,
                       self.clamps):
            del column[rows:]
        del self.stages_at[rows + 1:]
        del self.codes[stages:], self.durations[stages:]

    def stages(self, row: int) -> Tuple[array, array]:
        """Row ``row``'s stage codes and durations, in path order."""
        a, b = self.stages_at[row], self.stages_at[row + 1]
        return self.codes[a:b], self.durations[a:b]

    def nodes(self, row: int) -> Tuple[str, Optional[str]]:
        """Row ``row``'s client node and critical replica's node."""
        host, proc = self.callers[self.caller[row]][:2]
        node = self.exec_node[row]
        return ("%s/%s" % (host, proc),
                self.exec_nodes[node] if node >= 0 else None)

    def path(self, row: int, causal_violations: int) -> CallPath:
        """Row ``row`` as the :class:`CallPath` it was folded from."""
        host, proc, thread_id, troupe, module, procedure = \
            self.callers[self.caller[row]]
        codes, durations = self.stages(row)
        return CallPath(
            CallRef(host, proc, thread_id, self.call_number[row], troupe,
                    module, procedure, self.start[row], self.end[row]),
            [(STAGES[code], duration)
             for code, duration in zip(codes, durations)],
            retransmits=self.retransmits[row],
            degraded=bool(self.degraded[row]),
            exec_node=self.nodes(row)[1],
            causal_violations=causal_violations)


#: Whose timeline, under one call number: (endpoint_host, proc, msg_type).
_Endpoint = Tuple[str, str, int]


class CritPathAnalyzer:
    """Builds :class:`CallPath` decompositions from a traced run.

    Records the ``pm.send`` / ``pm.retransmit`` timeline needed to place
    the wire milestones and *folds*: a call is analysed, once, as soon
    as virtual time has moved past its end — nothing emitted later can
    be on its path — and from then on it is one row of flat columns
    (:class:`_Rows`, ≈ 80 bytes a circus call); :meth:`paths` builds
    :class:`CallPath` objects when asked.  The timeline is kept for the
    call numbers that unfolded calls carry and no others (a
    retransmission arriving after its call was folded is dropped), and
    the spans are the analyzer's own, built with a bare
    :class:`~repro.obs.trace.OpenSpans` that forgets a call when it
    closes.  Pass a :class:`~repro.obs.trace.CallTracer` to share one
    set of spans with a Chrome export or a post-mortem: that tracer
    keeps every span, as is its contract, and the analyzer still keeps
    only its folded rows.

    Attach before the run; :meth:`paths` / :meth:`report` may be asked
    at any time and cover every call completed so far.
    """

    def __init__(self, sim, tracer: Optional[CallTracer] = None):
        self.sim = sim
        self._msg_call, self._msg_return = _msg_codes()
        self._owns_tracer = tracer is None
        self.tracer = tracer or OpenSpans(sim)
        #: call number -> how many unfolded calls carry it.  Clients
        #: number their calls alike, and a retransmission to one of them
        #: counts against whichever of them it lands in, so what is kept
        #: goes by the number alone.
        self._in_flight: Dict[int, int] = {}
        #: call number -> (endpoint_host, proc, msg_type) ->
        #: [(t, peer_host), ...] in emission order; in-flight numbers only.
        self._sends: Dict[int, Dict[_Endpoint, List[Tuple[float, str]]]] = {}
        #: likewise -> [t, ...] of retransmitted segments.
        self._retransmits: Dict[int, Dict[_Endpoint, List[float]]] = {}
        #: client key -> (span, place in start order) of each open call
        #: seen starting.
        self._open: Dict[ClientKey, Tuple[CallSpan, int]] = {}
        #: ended, not yet folded, in end order; ``_fold_after`` is the
        #: first one's end (infinite when there is none).
        self._ended: Deque[Tuple[CallSpan, int]] = collections.deque()
        self._fold_after = math.inf
        #: every folded call's row.
        self._rows = _Rows()
        #: one slot per call seen starting, in start order: its row, -1
        #: until the call is folded.
        self._row_of = array("i")
        #: deterministic work counter: timeline events seen (the
        #: observability-overhead proxy reads this).
        self.milestones = 0
        # After the tracer's own subscription: each handler below finds
        # the tracer's spans already updated for the same event.
        self._sub = sim.bus.subscribe_kinds({
            ev.MessageSent.kind: self._on_send,
            ev.SegmentRetransmitted.kind: self._on_retransmit,
            ev.CallStarted.kind: self._on_call_start,
            ev.CallCompleted.kind: self._on_call_end,
        })

    def close(self) -> None:
        """Detach.  Nothing is in flight for an observer that sees no
        more events: every completed call is folded and what the open
        ones held is dropped."""
        self.sim.bus.unsubscribe(self._sub)
        if self._owns_tracer:
            self.tracer.close()
        self._fold(math.inf)
        self._open.clear()
        self._in_flight.clear()
        self._sends.clear()
        self._retransmits.clear()

    def __enter__(self) -> "CritPathAnalyzer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- timeline capture --------------------------------------------------

    def _on_send(self, event) -> None:
        if event.t > self._fold_after:
            self._fold(event.t)
        self.milestones += 1
        lines = self._sends.get(event.call_number)
        if lines is not None:
            bucket = lines.setdefault(
                (host_of(event.endpoint), event.proc, event.msg_type), [])
            if len(bucket) < _TIMELINE_CAP:
                bucket.append((event.t, host_of(event.peer)))

    def _on_retransmit(self, event) -> None:
        if event.t > self._fold_after:
            self._fold(event.t)
        self.milestones += 1
        lines = self._retransmits.get(event.call_number)
        if lines is not None:
            bucket = lines.setdefault(
                (host_of(event.endpoint), event.proc, event.msg_type), [])
            if len(bucket) < _TIMELINE_CAP:
                bucket.append(event.t)

    # -- which calls are in flight -----------------------------------------

    def _on_call_start(self, event) -> None:
        if event.t > self._fold_after:
            self._fold(event.t)
        client = (event.host, event.proc, event.thread_id, event.call_number)
        span = self.tracer.open_call(client)
        if span is None:                # the tracer is not listening
            return
        number = event.call_number
        if client in self._open:        # reopened before it closed
            self._release(number)
        carrying = self._in_flight.get(number, 0)
        if not carrying:
            self._sends[number] = {}
            self._retransmits[number] = {}
        self._in_flight[number] = carrying + 1
        self._open[client] = (span, len(self._row_of))
        self._row_of.append(-1)

    def _on_call_end(self, event) -> None:
        if event.t > self._fold_after:
            self._fold(event.t)
        watched = self._open.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if watched is not None and watched[0].end is not None:
            if not self._ended:
                self._fold_after = event.t
            self._ended.append(watched)

    def _release(self, call_number: int) -> None:
        carrying = self._in_flight[call_number] - 1
        if carrying:
            self._in_flight[call_number] = carrying
        else:
            del (self._in_flight[call_number], self._sends[call_number],
                 self._retransmits[call_number])

    def _fold(self, now: float) -> None:
        """Analyse and let go of every call that ended before ``now``."""
        ended = self._ended
        while ended and ended[0][0].end < now:
            span, slot = ended.popleft()
            self._row_of[slot] = self._analyze(span)
            self._release(span.call_number)
        self._fold_after = ended[0][0].end if ended else math.inf

    # -- analysis ----------------------------------------------------------

    @contextlib.contextmanager
    def _completed(self) -> Iterator[List[int]]:
        """The row of every *completed* call, in start order."""
        self._fold(self.sim.now)
        rows = self._rows
        kept = len(rows)
        order = self._row_of
        if self._ended:
            # Ended at this very instant: more of it may still be
            # emitted, so these are analysed for this answer only.
            order = order[:]
            for span, slot in self._ended:
                order[slot] = self._analyze(span)
        try:
            yield [row for row in order if row >= 0]
        finally:
            rows.truncate(kept)

    def paths(self) -> List[CallPath]:
        """Stage decompositions for every *completed* call, start order."""
        with self._completed() as order:
            violations = self._causal_violations(order)
            return [self._rows.path(row, n)
                    for row, n in zip(order, violations)]

    def _analyze(self, call: CallSpan) -> int:
        """Fold one ended call into a row; returns its number."""
        start, end = call.start, call.end
        degraded = False

        # The critical replica: whose result completed the collation set.
        collate_t = call.collation[0] if call.collation is not None else end
        critical = None
        for t, member, _status in call.results:
            if t <= collate_t and (critical is None or t >= critical[0]):
                critical = (t, member)
        m_result = critical[0] if critical is not None else None
        crit_host = host_of(critical[1]) if critical is not None else None

        # Milestone 1: the last CALL segment batch the client handed to
        # the wire for the critical replica's host (multicast emits one
        # pm.send per peer; with no critical replica, for any member).
        sends = self._sends.get(call.call_number, {})
        call_sends = sends.get((call.host, call.proc, self._msg_call), ())
        call_sends = [t for t, peer in call_sends if start <= t <= end
                      and (crit_host is None or peer == crit_host)]
        m_sent = max(call_sends) if call_sends else None

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
            ret_sends = sends.get(
                (crit_exec.host, crit_exec.proc, self._msg_return), ())
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
        # zero-width stage and its time merges into the next stage.  A
        # milestone out of order (before its predecessor, or after the
        # end) is clamped, counted and marks the call degraded.
        intervals: List[Tuple[str, float, float]] = []
        cursor = start
        clamps = 0
        for name, t in milestones:
            if t is None:
                degraded = True
                t = cursor
            elif not cursor <= t <= end:
                clamps += 1
                degraded = True
            t = min(max(t, cursor), end)
            intervals.append((name, cursor, t))
            cursor = t
        if cursor < end:             # end milestone always lands on end
            intervals.append(("complete", cursor, end))
            degraded = True

        # Carve retransmit stalls out of the waiting stages: everything
        # after a stage's first retransmission was bought by loss.
        retx = self._retransmit_times(call, crit_exec)
        stage_totals = [0.0] * len(STAGES)
        for name, a, b in intervals:
            if b <= a:
                continue
            code = _CODE[name]
            if code in _WAITING:
                first = None
                for t in retx:
                    if a < t < b and (first is None or t < first):
                        first = t
                if first is not None:
                    stage_totals[code] += first - a
                    stage_totals[_STALL] += b - first
                    continue
            stage_totals[code] += b - a

        stages = [(code, total) for code, total in enumerate(stage_totals)
                  if total > 0.0]
        if not stages:               # zero-latency call: all stages empty
            stages = [(_CODE["complete"], 0.0)]
        exec_node = "%s/%s" % (crit_exec.host, crit_exec.proc) \
            if crit_exec is not None else None
        return self._rows.add(call, stages, len(retx), degraded, clamps,
                              exec_node)

    def _retransmit_times(self, call: CallSpan, crit_exec) -> List[float]:
        """Retransmission instants on this call's critical path: the
        client's CALL segments plus the critical replica's RETURN."""
        retransmits = self._retransmits.get(call.call_number, {})
        out = list(retransmits.get(
            (call.host, call.proc, self._msg_call), ()))
        if crit_exec is not None:
            out.extend(retransmits.get(
                (crit_exec.host, crit_exec.proc, self._msg_return), ()))
        end = call.end if call.end is not None else call.start
        return sorted(t for t in out if call.start <= t <= end)

    def _causal_violations(self, order: List[int]) -> List[int]:
        """Each row's causal cross-check (0 when unstamped), read from
        the clocks as they stand now."""
        domain = getattr(self.sim.bus, "stamper", None)
        if domain is None:
            return [0] * len(order)
        return [self._causal_check(domain, *self._rows.nodes(row))
                for row in order]

    @staticmethod
    def _causal_check(domain, client_node: str,
                      exec_node: Optional[str]) -> int:
        """Vector-clock cross-check: adjacent critical-path endpoints must
        be causally ordered when a ClockDomain stamps the run.  Returns
        the number of *concurrent* adjacent pairs."""
        if exec_node is None:
            return 0
        chain = []
        client_vc = domain.clock_of(client_node)
        exec_vc = domain.clock_of(exec_node)
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
        with self._completed() as order:
            return self._stage_histograms(order)

    def _stage_histograms(self, order: List[int]) -> Dict[str, Histogram]:
        hists: Dict[str, Histogram] = {}
        for row in order:
            for code, dur in zip(*self._rows.stages(row)):
                hists.setdefault(STAGES[code], Histogram()).observe(dur)
        return hists

    def report(self) -> Dict[str, Any]:
        """Deterministic JSON-friendly summary of the whole run."""
        with self._completed() as order:
            return self._report(order)

    def _report(self, order: List[int]) -> Dict[str, Any]:
        rows = self._rows
        # Every sum runs over the calls in start order and each call's
        # stages in path order, as the paths would list them.
        total = sum(rows.end[row] - rows.start[row] for row in order)
        attributed = sum(dur for row in order for dur in rows.stages(row)[1])
        dominant: Dict[str, int] = {}
        for row in order:
            codes, durations = rows.stages(row)
            name = STAGES[codes[_longest(durations)]]
            dominant[name] = dominant.get(name, 0) + 1
        stages: Dict[str, Any] = {}
        for name, hist in sorted(self._stage_histograms(order).items(),
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
            "calls": len(order),
            "degraded_calls": sum(rows.degraded[row] for row in order),
            "clamped_milestones": sum(rows.clamps[row] for row in order),
            "causal_violations": sum(self._causal_violations(order)),
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
            lines.append("degraded calls (missing or clamped milestones): %d"
                         % rep["degraded_calls"])
        if rep["clamped_milestones"]:
            lines.append("clamped milestones (out of order): %d"
                         % rep["clamped_milestones"])
        if rep["causal_violations"]:
            lines.append("CAUSAL VIOLATIONS on critical path: %d"
                         % rep["causal_violations"])
        return "\n".join(lines)
