"""Differential tests: the folding critical-path analyzer and the
indexed call tracer against the lazy analyzer and the scanning tracer
they replaced.

The references below are the two classes as they were while the
analyzer kept every ``pm.send`` / ``pm.retransmit`` timeline and every
span until somebody asked for ``paths()``, and the tracer walked every
open call per ``rpc.exec_start`` and every open execution per
``rpc.call_start``.  They are the specification: attached beside the
real ones on one bus, every ``report()``, every ``to_dict()``, the span
tree and the Chrome export must come out equal.
"""

import collections
import contextlib
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.bench import scenarios
from repro.core import (ExportedModule, FirstComeCollator,
                        TroupeFailure)
from repro.core.runtime import RuntimeConfig
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.obs import events as ev
from repro.obs import monitor
from repro.obs.bus import EventBus
from repro.obs.clocks import host_of, vc_leq
from repro.obs.critpath import (_TIMELINE_CAP, STAGES, CallPath,
                                CritPathAnalyzer, _msg_codes)
from repro.obs.metrics import Histogram
from repro.obs.trace import (CallKey, CallSpan, CallTracer, ClientKey,
                             ExecSpan)
from repro.pairedmsg.endpoint import PairedMessageConfig
from repro.sim import Sleep


class _ReferenceTracer(CallTracer):
    """``CallTracer`` as it was: open spans in two dictionaries that
    ``_on_exec_start`` and ``_enclosing_exec`` scan, and every
    ``rpc.return`` kept as the stamped event.  The span classes and the
    two exports are the real tracer's."""

    def __init__(self, sim):
        self.sim = sim
        self._open_calls: Dict[ClientKey, CallSpan] = {}
        self._open_execs: Dict[Tuple[CallKey, str, str], ExecSpan] = {}
        #: root call spans (not nested under any execution), in start order.
        self.roots: List[CallSpan] = []
        #: every call span ever opened, in start order.
        self.calls: List[CallSpan] = []
        #: every execution span ever opened, in start order.
        self.execs: List[ExecSpan] = []
        self._returns: List[ev.ReturnSent] = []
        self._sub = sim.bus.subscribe_kinds({
            ev.CallStarted.kind: self._on_call_start,
            ev.ReplicaResult.kind: self._on_result,
            ev.Collated.kind: self._on_collate,
            ev.CallCompleted.kind: self._on_call_end,
            ev.ExecutionStarted.kind: self._on_exec_start,
            ev.ExecutionFinished.kind: self._on_exec_end,
            ev.ReturnSent.kind: self._returns.append,
        })

    # -- event handling (one bus handler per kind) -------------------------

    def _on_call_start(self, event) -> None:
        span = CallSpan(event)
        self._open_calls[span.key] = span
        self.calls.append(span)
        parent = self._enclosing_exec(event.thread_id, event.host,
                                      event.proc)
        if parent is not None:
            parent.calls.append(span)
        else:
            self.roots.append(span)

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
            span.end = event.t
            span.outcome = event.outcome

    def _on_exec_start(self, event) -> None:
        span = ExecSpan(event)
        key = ((event.thread_id, event.call_number), event.host, event.proc)
        self._open_execs[key] = span
        self.execs.append(span)
        # Attach under every open client half of this call: the target
        # troupe ID separates the call to this troupe from an outer or
        # nested call sharing the same (thread, call number) context;
        # in a many-to-many call each calling member's span gets it.
        for call in self._open_calls.values():
            if (call.thread_id == event.thread_id
                    and call.call_number == event.call_number
                    and call.troupe_id == event.troupe_id):
                call.execs.append(span)

    def _on_exec_end(self, event) -> None:
        key = ((event.thread_id, event.call_number), event.host, event.proc)
        span = self._open_execs.pop(key, None)
        if span is not None:
            span.end = event.t
            span.outcome = event.outcome

    def _enclosing_exec(self, thread_id: str, host: str,
                        proc: str) -> Optional[ExecSpan]:
        """The open execution span this call was issued from, if any: a
        nested call shares the thread ID and originates on the same
        simulated process as the replica executing the outer call."""
        for span in self._open_execs.values():
            if (span.thread_id == thread_id and span.host == host
                    and span.proc == proc):
                return span
        return None

    def to_chrome(self) -> Dict[str, Any]:
        # The export reads five fields of each kept event.
        events = self._returns
        self._returns = [(e.t, e.host, e.proc, e.recipients, e.call_number)
                         for e in events]
        try:
            return super().to_chrome()
        finally:
            self._returns = events


class _ReferenceCallPath(CallPath):
    """``CallPath`` as it was: the decomposition and the whole span, the
    causal cross-check read when the path was built, and how many of its
    milestones were clamped."""

    __slots__ = ("clamps",)

    def __init__(self, call: CallSpan, stages: List[Tuple[str, float]],
                 retransmits: int, degraded: bool, clamps: int,
                 causal_violations: int):
        self.call = call
        self.stages = stages
        self.retransmits = retransmits
        self.degraded = degraded
        self.clamps = clamps
        self.causal_violations = causal_violations
        self.dominant = max(stages, key=lambda s: (s[1], -stages.index(s)))[0] \
            if stages else "unattributed"


class _ReferenceCritPath(CritPathAnalyzer):
    """``CritPathAnalyzer`` as it was: every timeline and (through its
    tracer) every span kept, every completed call analysed on demand —
    again from scratch whenever a ``pm.send`` had arrived since — and
    every report read from those paths.  Only ``render`` is the real
    analyzer's."""

    def __init__(self, sim, tracer: Optional[_ReferenceTracer] = None):
        self.sim = sim
        self._msg_call, self._msg_return = _msg_codes()
        self._owns_tracer = tracer is None
        self.tracer = tracer or _ReferenceTracer(sim)
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
        self._paths: Optional[List[_ReferenceCallPath]] = None
        self._sub = sim.bus.subscribe_kinds({
            ev.MessageSent.kind: self._on_send,
            ev.SegmentRetransmitted.kind: self._on_retransmit,
        })

    def close(self) -> None:
        self.sim.bus.unsubscribe(self._sub)
        if self._owns_tracer:
            self.tracer.close()

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

    def paths(self) -> List[_ReferenceCallPath]:
        """Stage decompositions for every *completed* call, start order."""
        if self._paths is None:
            self._paths = [self._analyze(call) for call in self.tracer.calls
                           if call.end is not None]
        return self._paths

    def _analyze(self, call: CallSpan) -> _ReferenceCallPath:
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
        call_sends = self._sends.get(
            (call.host, call.proc, call.call_number, self._msg_call), ())
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
        return _ReferenceCallPath(call, stages, retransmits=len(retx),
                        degraded=degraded, clamps=clamps,
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
        hists: Dict[str, Histogram] = {}
        for path in self.paths():
            for name, dur in path.stages:
                hists.setdefault(name, Histogram()).observe(dur)
        return hists

    def report(self) -> Dict[str, Any]:
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
            "clamped_milestones": sum(p.clamps for p in paths),
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


# ---------------------------------------------------------------------------
# both generations on one bus
# ---------------------------------------------------------------------------

class _SideBySide:
    """The reference analyzer (over its own reference tracer) beside the
    real one twice — owning its spans, and sharing a caller's
    ``CallTracer`` — all attached before the run."""

    def __init__(self, sim):
        self.reference = _ReferenceCritPath(sim)
        self.owning = CritPathAnalyzer(sim)
        self.tracer = CallTracer(sim)
        self.sharing = CritPathAnalyzer(sim, tracer=self.tracer)

    def check(self) -> int:
        """Everything a consumer reads is equal; returns the calls seen."""
        reference = self.reference
        expected = [p.to_dict() for p in reference.paths()]
        for analyzer in (self.owning, self.sharing):
            assert [p.to_dict() for p in analyzer.paths()] == expected
            assert analyzer.report() == reference.report()
            assert analyzer.render() == reference.render()
            assert [(p.call.thread_id, p.call.call_number,
                     p.causal_violations) for p in analyzer.paths()] == \
                   [(p.call.thread_id, p.call.call_number,
                     p.causal_violations) for p in reference.paths()]
        assert self.tracer.span_tree() == reference.tracer.span_tree()
        assert self.tracer.to_chrome() == reference.tracer.to_chrome()
        return len(expected)

    def close(self) -> None:
        for observer in (self.sharing, self.tracer, self.owning,
                         self.reference):
            observer.close()


def _echo_module(compute_ms=1.0):
    def echo(ctx, args):
        yield from ctx.compute(compute_ms)
        return b"echo:" + args
    return ExportedModule("echo", {0: echo})


def _drain(world, bodies):
    for body in bodies:
        world.spawn(body)
    world.sim.run()


def test_sequential_circus_calls_asked_midway_and_at_the_end():
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
    client = world.make_client()

    def body(calls):
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    both = _SideBySide(world.sim)
    world.run(body(15))
    # The fifteenth call ended at this very instant: it is in the answer
    # without having been folded.
    assert both.check() == 15
    assert both.owning._ended
    # ... and analysed into a row for each answer only.
    assert len(both.owning._rows) == 14
    world.run(body(25))
    assert both.check() == 40
    both.close()
    assert both.check() == 40


def test_circus_scenario_of_forty_calls():
    world, body = scenarios.circus(40)
    both = _SideBySide(world.sim)
    world.run(body())
    both.close()
    assert both.check() == 40


def test_thirteen_segment_calls_under_loss_and_duplication():
    world = World(
        machines=4, seed=23,
        net_config=NetworkConfig(loss_probability=0.10,
                                 duplicate_probability=0.02),
        runtime_config=RuntimeConfig(paired=PairedMessageConfig(
            max_segment_data=512, retransmit_interval=30.0,
            max_retries=64)))
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
    client = world.make_client()
    payload = bytes(range(256)) * 24            # 6 KiB: 13 segments

    def body():
        for _ in range(25):
            yield from client.call_troupe(troupe, 0, 0, payload)

    both = _SideBySide(world.sim)
    world.run(body())
    assert both.check() == 25
    assert both.reference.report()["stages"]["retransmit_stall"]["count"] > 5
    both.close()
    assert both.check() == 25


def test_first_come_collation_leaves_members_executing_after_the_call():
    world = World(machines=4, seed=31)
    speeds = iter((1.0, 45.0, 90.0))
    troupe, _ = world.make_troupe(
        "echo", lambda: _echo_module(next(speeds)), degree=3)
    client = world.make_client()

    def body():
        for i in range(12):
            yield from client.call_troupe(troupe, 0, 0, b"fc %d" % i,
                                          collator=FirstComeCollator())

    both = _SideBySide(world.sim)
    world.run(body())
    assert both.check() == 12
    # The second member is still executing when the call returns; the
    # third has not begun, and begins under no open call at all.
    assert any(span.end is None or span.end > call.end
               for call in both.tracer.calls for span in call.execs)
    assert len(both.tracer.execs) > sum(
        len(call.execs) for call in both.tracer.calls)
    world.sim.run()
    both.close()
    assert both.check() == 12


def test_first_come_calls_after_their_members_crash():
    """The fastest member crashes after four calls, the other two after
    eight: the middle calls stall on retransmissions to the dead one and
    the last four find no member at all — their paths are degraded.
    Milestone 1 is the last CALL send to the critical replica's host."""
    world = World(machines=4, seed=31)
    speeds = iter((1.0, 45.0, 90.0))
    troupe, _ = world.make_troupe(
        "echo", lambda: _echo_module(next(speeds)), degree=3)
    client = world.make_client()
    hosts = [member.process.host for member in troupe.members]

    def body():
        for i in range(12):
            for host in {4: hosts[:1], 8: hosts[1:]}.get(i, ()):
                world.machine(host).crash()
            try:
                yield from client.call_troupe(troupe, 0, 0, b"fc %d" % i,
                                              collator=FirstComeCollator())
            except TroupeFailure:
                pass

    both = _SideBySide(world.sim)
    world.run(body())
    assert both.check() == 12
    report = both.reference.report()
    assert report["degraded_calls"] == 4
    assert report["clamped_milestones"] == 0
    assert report["stages"]["retransmit_stall"]["count"] > 4
    # Calls 1-4: the fastest member, sent to first, answered first; its
    # 1 ms execution is on the path (not clamped away by later sends).
    for path in both.owning.paths()[:4]:
        stages = dict(path.stages)
        assert list(stages) == ["gather_wait", "execute", "return_wait"]
        assert round(stages["gather_wait"], 1) == 18.3
        assert stages["execute"] == 1.0
        assert not path.degraded
    assert [round(dict(p.stages)["return_wait"], 1)
            for p in both.owning.paths()[:3]] == [20.9] * 3
    both.close()
    assert both.check() == 12


def test_nested_calls():
    world = World(machines=6, seed=9)
    inner, _ = world.make_troupe("inner", _echo_module, degree=2)

    def outer_module():
        def relay(ctx, args):
            first = yield from ctx.call(inner, 0, 0, args)
            second = yield from ctx.call(inner, 0, 0, first)
            return b"relay:" + second
        return ExportedModule("outer", {0: relay})

    outer, _ = world.make_troupe("outer", outer_module, degree=2)
    client = world.make_client()

    def body():
        for i in range(6):
            yield from client.call_troupe(outer, 0, 0, b"n%d" % i)

    both = _SideBySide(world.sim)
    world.run(body())
    assert both.check() == 6 + 6 * 2 * 2
    assert len(both.tracer.roots) == 6
    both.close()
    assert both.check() == 30


def test_many_to_many_call_from_a_two_member_client_troupe():
    world = World(machines=8, seed=17)
    servers, _ = world.make_troupe("echo", _echo_module, degree=3)
    _clients, runtimes = world.make_client_troupe("clients", degree=2)

    def body(runtime, delay):
        yield Sleep(delay)
        for i in range(5):
            yield from runtime.call_troupe(servers, 0, 0, b"mm %d" % i)

    both = _SideBySide(world.sim)
    _drain(world, [body(runtimes[0], 0.0), body(runtimes[1], 3.5)])
    assert both.check() == 10
    # One execution, under both calling members' spans.
    first, second = both.tracer.calls[:2]
    assert first.execs and first.execs == second.execs
    both.close()
    assert both.check() == 10


@pytest.mark.parametrize("stagger_ms", [0.0, 0.9])
def test_forty_concurrent_clients_numbering_their_calls_alike(stagger_ms):
    """Every client's n-th call carries call number n, so at each server
    they share one RETURN timeline key — and the clients that share a
    machine share a CALL key too.  Forty callers are more than three
    serial members answer inside the retransmission budget: most calls
    end in a declared troupe failure, retransmissions land in other
    clients' calls, and every path must still come out the same."""
    world = World(machines=8, seed=41)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
    clients = [world.make_client() for _ in range(40)]

    def body(index, client):
        yield Sleep(index * stagger_ms)
        for i in range(6):
            try:
                yield from client.call_troupe(troupe, 0, 0,
                                              b"c%d.%d" % (index, i))
            except TroupeFailure:
                pass

    both = _SideBySide(world.sim)
    _drain(world, [body(i, c) for i, c in enumerate(clients)])
    assert both.check() == 240
    paths = both.owning.paths()
    assert set(collections.Counter(
        p.call.call_number for p in paths).values()) == {40}
    assert 40 < sum(1 for p in paths if not p.degraded) < 200
    assert sum(p.retransmits for p in paths) > 240
    both.close()
    assert both.check() == 240


class _BusAndClock:
    """What an observer asks of a simulator, for hand-emitted streams."""

    def __init__(self):
        self.bus = EventBus()
        self.now = 0.0

    def emit(self, event) -> None:
        self.now = event.t
        self.bus.emit(event)


def test_what_is_emitted_after_call_end_in_the_same_instant_is_on_the_path():
    """Why a call is folded once the clock has moved, not at its
    ``rpc.call_end``: the reference counts the RETURN retransmitted at
    the instant the call ended, whichever of the two was emitted first —
    and a CALL nobody's, numbered like no call in flight, is not kept."""
    msg_call, msg_return = _msg_codes()
    sim = _BusAndClock()
    both = _SideBySide(sim)
    who = dict(host="c", proc="client", thread_id="T", call_number=1)
    where = dict(host="s", proc="echo", thread_id="T", call_number=1)
    for event in (
            ev.CallStarted(t=0.0, troupe="echo", troupe_id=5, members=1,
                           **who),
            ev.MessageSent(t=1.0, endpoint="c:1", peer="s:2", proc="client",
                           msg_type=msg_call, call_number=1),
            ev.ExecutionStarted(t=3.0, troupe_id=5, **where),
            ev.ExecutionFinished(t=4.0, **where),
            ev.MessageSent(t=5.0, endpoint="s:2", peer="c:1", proc="echo",
                           msg_type=msg_return, call_number=1),
            ev.ReplicaResult(t=9.0, member="s:2", **who),
            ev.Collated(t=9.5, troupe="echo", responses=1, **who),
            ev.CallCompleted(t=10.0, troupe="echo", **who),
            ev.SegmentRetransmitted(t=10.0, endpoint="s:2", peer="c:1",
                                    proc="echo", msg_type=msg_return,
                                    call_number=1),
            ev.MessageSent(t=11.0, endpoint="c:1", peer="s:2", proc="client",
                           msg_type=msg_call, call_number=7)):
        sim.emit(event)
    assert both.check() == 1
    [path] = both.owning.paths()
    assert path.retransmits == 1 and not path.degraded
    assert not both.owning._sends and not both.sharing._sends
    assert both.reference._sends
    both.close()


@pytest.mark.parametrize("scenario,seed", [
    ("bank-transfer", 1),
    ("bank-transfer", 396),             # a HistoryOracle violation
    ("elastic-adversarial", 302),       # two collation violations
])
def test_explorer_seeds_under_the_callers_tracer(monkeypatch, scenario, seed):
    """``watch(trace=True)`` hands the analyzer the caller's tracer:
    the post-mortem's spans and stage breakdowns are the reference's,
    and that tracer still holds every span."""
    from repro import explore
    watched = []
    real_watch = monitor.watch

    @contextlib.contextmanager
    def watch_beside_the_reference(sim, **kwargs):
        reference = _ReferenceCritPath(sim)
        with real_watch(sim, **kwargs) as probe:
            watched.append((probe, reference))
            yield probe
        reference.close()

    monkeypatch.setattr(monitor, "watch", watch_beside_the_reference)
    result = explore._attempt(
        explore.get_scenario(scenario), seed, None, monitors=None,
        budget=None, capacity=1 << 16, explain=True)
    [(probe, reference)] = watched
    assert probe.critpath.tracer is probe.tracer
    expected = [p.to_dict() for p in reference.paths()]
    assert len(expected) > 20
    assert [p.to_dict() for p in probe.critpath.paths()] == expected
    assert probe.critpath.report() == reference.report()
    assert probe.tracer.span_tree() == reference.tracer.span_tree()
    assert probe.tracer.to_chrome() == reference.tracer.to_chrome()
    assert len(probe.tracer.calls) == len(reference.tracer.calls)
    assert len(probe.tracer.execs) == len(reference.tracer.execs)
    # The post-mortem was built from the real pair; rebuilt over the
    # reference pair it reads the same.
    again = probe.recorder.postmortem(tracer=reference.tracer,
                                      critpath=reference)
    for got, want in zip(result.postmortem["violations"],
                         again["violations"]):
        assert got.get("spans") == want.get("spans")
        assert got.get("critical_path") == want.get("critical_path")
    if seed != 1:
        assert result.violations
