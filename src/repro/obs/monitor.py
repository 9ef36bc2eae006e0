"""Online invariant monitors: the paper's correctness claims as
predicates over the event stream.

Each monitor is a plain bus subscriber that incrementally checks one of
Cooper's claims and, on a breach, emits a structured
:class:`~repro.obs.events.InvariantViolation` carrying the evidence
events whose combination violates the predicate.  With causal clocks
installed (the default under :class:`MonitorSuite`), the violation's
vector clock is the merge of the evidence clocks — the exact causal cut
the flight recorder uses to slice its ring buffer into a post-mortem.

=====================  =======  ===========================================
monitor                section  invariant
=====================  =======  ===========================================
ExactlyOnce            §4.3     a call executes at most once per (call,
                                replica) despite retransmission
TroupeDeterminism      §3.3     all live members of a troupe observe the
                                same per-thread sequence of call messages
Collation              §4.3.3   a needs-all verdict only after results
                                from every non-crashed member; a
                                disagreement verdict never happens at all
Commit                 §5.3     commit iff every member voted ready and
                                the vote group was complete; coordinators
                                over the same serials agree
CrashSilence           §4.2.3   no retransmission or probe to a peer
                                after declaring it crashed (per transfer)
Incarnation            §6.2     a troupe's incarnation ID is strictly
                                monotonic and chains old -> new at every
                                Ringmaster member
=====================  =======  ===========================================

Monitors deduplicate per subject: once an entity (a call, a troupe, a
transfer) has fired, further breaches of the *same* invariant by the
same entity are suppressed — a single divergence would otherwise flood
the bus with one violation per subsequent event.

The two monitors that must remember executions for the whole run keep
each one as a row of flat columns (:class:`_Executions`), not as the
event: what they hold per call is numbers, and a row is rebuilt into
the same stamped event only when a report cites it.
"""

from __future__ import annotations

import contextlib
from array import array
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs.clocks import ClockDomain

# Mirrored from repro.core.runtime; importing it here would cycle
# (core.runtime -> repro.obs -> monitor -> core.runtime).
CONTROL_MODULE = 0xFFFF     # membership-transition control traffic
NO_TROUPE = 0               # unreplicated processes share this ID


class InvariantMonitor:
    """Base class: subscribe on :meth:`attach`, check in :meth:`observe`,
    raise breaches with :meth:`report`."""

    #: kind prefixes this monitor wants (passed to ``bus.subscribe``).
    kinds: Tuple[str, ...] = ()
    #: short invariant slug, e.g. ``"exactly-once"``.
    invariant: str = ""
    #: paper section the claim comes from.
    section: str = ""

    def __init__(self):
        self.violations: List[obs_events.InvariantViolation] = []
        self._fired: set = set()
        self._bus = None
        self._sub = None

    @property
    def name(self) -> str:
        return type(self).__name__

    def attach(self, bus) -> "InvariantMonitor":
        self._bus = bus
        self._sub = bus.subscribe(self.observe, kinds=self.kinds)
        return self

    def detach(self) -> None:
        if self._bus is not None and self._sub is not None:
            self._bus.unsubscribe(self._sub)
        self._bus = None
        self._sub = None

    def observe(self, event) -> None:
        raise NotImplementedError

    def report(self, message: str, subject: str,
               evidence: Tuple[Any, ...]) -> None:
        """Emit one violation per subject; later breaches by the same
        subject are suppressed."""
        if subject in self._fired:
            return
        self._fired.add(subject)
        t = getattr(evidence[-1], "t", 0.0) if evidence else 0.0
        violation = obs_events.InvariantViolation(
            t=t, monitor=self.name, invariant=self.invariant,
            section=self.section, message=message, subject=subject,
            evidence=tuple(evidence))
        self.violations.append(violation)
        if self._bus is not None:
            self._bus.emit(violation)


class _Executions:
    """``rpc.exec_start`` events as rows of flat columns.

    A row holds the event's time, its six integer fields, the index of
    its ``(host, proc, thread_id, node, names)`` in a table shared by
    every row, and where its stamp tuple (Lamport clock and vector)
    starts in one flat array of length-prefixed stamps (length -1: the
    event was never stamped).  :meth:`event` rebuilds the stamped event
    a row was made from."""

    __slots__ = ("t", "fields", "where", "stamps", "_table", "_index")

    #: the integer fields of a row, in column order.
    FIELDS = ("call_number", "troupe_id", "module", "procedure", "callers",
              "group_complete")

    def __init__(self):
        self.t = array("d")
        self.fields = array("q")        # len(FIELDS) per row
        self.where = array("q")         # per row: table index, stamp offset
        self.stamps = array("q")
        self._table: List[Tuple[str, str, str, Any, Any]] = []
        self._index: Dict[Tuple[str, str, str, Any, int], int] = {}

    def add(self, event) -> int:
        """Remember ``event``; returns its row."""
        row = len(self.t)
        self.t.append(event.t)
        self.fields.extend((event.call_number, event.troupe_id, event.module,
                            event.procedure, event.callers,
                            event.group_complete))
        node = getattr(event, "node", None)
        names = getattr(event, "_names", None)
        key = (event.host, event.proc, event.thread_id, node, id(names))
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self._table)
            self._table.append(
                (event.host, event.proc, event.thread_id, node, names))
        stamps = self.stamps
        self.where.extend((index, len(stamps)))
        vt = getattr(event, "_vt", None)
        if vt is None:
            stamps.append(-1)
        else:
            stamps.append(len(vt))
            stamps.extend(vt)
        return row

    def event(self, row: int) -> obs_events.ExecutionStarted:
        """The stamped event ``row`` was made from."""
        host, proc, thread_id, node, names = self._table[self.where[2 * row]]
        width = len(self.FIELDS)
        fields = dict(zip(self.FIELDS,
                          self.fields[width * row:width * (row + 1)]))
        fields["group_complete"] = bool(fields["group_complete"])
        event = obs_events.ExecutionStarted(
            t=self.t[row], host=host, proc=proc, thread_id=thread_id,
            **fields)
        if node is not None:
            event.node = node
        if names is not None:
            event._names = names
        at = self.where[2 * row + 1]
        length = self.stamps[at]
        if length >= 0:
            event._vt = tuple(self.stamps[at + 1:at + 1 + length])
        return event


class ExactlyOnceMonitor(InvariantMonitor):
    """§4.3: duplicate suppression means a call body runs at most once
    per replica, no matter how many times its segments are retransmitted
    or duplicated by the wire."""

    kinds = ("rpc.exec_start",)
    invariant = "exactly-once"
    section = "4.3"

    def __init__(self):
        super().__init__()
        self._rows = _Executions()
        #: (host, proc, thread_id) -> (the call numbers executed there,
        #: sorted; the row of each one's first execution).  Calls come in
        #: call order, so a new one is appended; anything else is bisected.
        self._seen: Dict[Tuple[str, str, str], Tuple[array, array]] = {}

    def observe(self, event) -> None:
        thread = (event.host, event.proc, event.thread_id)
        seen = self._seen.get(thread)
        if seen is None:
            seen = self._seen[thread] = (array("q"), array("q"))
        calls, rows = seen
        number = event.call_number
        if not calls or number > calls[-1]:
            calls.append(number)
            rows.append(self._rows.add(event))
            return
        i = bisect_left(calls, number)
        if calls[i] != number:
            calls.insert(i, number)
            rows.insert(i, self._rows.add(event))
            return
        self.report(
            "call (thread=%s, #%d) executed twice at %s/%s" % (
                event.thread_id, number, event.host, event.proc),
            subject="%s/%s:%s#%d" % (thread + (number,)),
            evidence=(self._rows.event(rows[i]), event))


class TroupeDeterminismMonitor(InvariantMonitor):
    """§3.3: replicas are deterministic, so every live member of a
    troupe must observe the same sequence of call messages *per client
    thread* (calls of one thread are serial; calls of distinct threads
    may interleave differently without breaking determinism).

    The first member to reach position *i* of a ``(troupe, thread)``
    stream defines the canonical call at that position; any member whose
    stream diverges from the canonical prefix has seen a different call
    sequence.  Unreplicated processes (troupe ID 0) and membership
    control traffic (module 0xFFFF) are exempt — control calls are not
    part of the application call stream.
    """

    kinds = ("rpc.exec_start",)
    invariant = "troupe-determinism"
    section = "3.3"

    def __init__(self):
        super().__init__()
        self._rows = _Executions()
        #: (troupe_id, thread_id) -> (the canonical stream as flat
        #: (call_number, module, procedure) triples; the row of the
        #: execution that defined each position, the evidence).
        self._canonical: Dict[Tuple[int, str], Tuple[array, array]] = {}
        #: (troupe_id, thread_id, host, proc) -> next stream position.
        self._pos: Dict[Tuple[int, str, str, str], int] = {}

    def observe(self, event) -> None:
        if event.troupe_id == NO_TROUPE or event.module == CONTROL_MODULE:
            return
        stream = (event.troupe_id, event.thread_id)
        call = (event.call_number, event.module, event.procedure)
        member = stream + (event.host, event.proc)
        pos = self._pos.get(member, 0)
        self._pos[member] = pos + 1
        got = self._canonical.get(stream)
        if got is None:
            got = self._canonical[stream] = (array("q"), array("q"))
        canonical, witnesses = got
        if pos == len(witnesses):
            canonical.extend(call)
            witnesses.append(self._rows.add(event))
            return
        there = tuple(canonical[3 * pos:3 * pos + 3])
        if there == call:
            return
        self.report(
            "troupe %d: member %s/%s saw call #%d (module %d proc %d) at "
            "position %d of thread %s, but the troupe's canonical stream "
            "has call #%d (module %d proc %d) there" % (
                (event.troupe_id, event.host, event.proc) + call
                + (pos, event.thread_id) + there),
            subject="troupe=%d member=%s/%s" % (
                event.troupe_id, event.host, event.proc),
            evidence=(self._rows.event(witnesses[pos]), event))


class CollationMonitor(InvariantMonitor):
    """§4.3.3: a collator's verdict must account for every member — an
    ``agreed`` or ``failed`` verdict may only be announced once a result
    (or crash declaration) from each of the call's members has arrived,
    and a unanimous collator reporting ``disagreement`` means replicas
    returned conflicting answers (a determinism breach surfacing at the
    client).  ``decided_early`` verdicts are the sanctioned early exit
    of first-come / majority collators.  A call's entry goes at its
    final verdict or, failing one, at its ``rpc.call_end``."""

    kinds = ("rpc.call_start", "rpc.result", "rpc.collate", "rpc.call_end")
    invariant = "collation-completeness"
    section = "4.3.3"

    def __init__(self):
        super().__init__()
        #: call key -> (call_start event, results list)
        self._calls: Dict[Tuple[str, str, str, int],
                          Tuple[obs_events.ObsEvent, list]] = {}

    @staticmethod
    def _key(event) -> Tuple[str, str, str, int]:
        return (event.host, event.proc, event.thread_id, event.call_number)

    def observe(self, event) -> None:
        key = self._key(event)
        kind = event.kind
        if kind == "rpc.call_start":
            self._calls[key] = (event, [])
            return
        if kind == "rpc.call_end":
            self._calls.pop(key, None)
            return
        entry = self._calls.get(key)
        if kind == "rpc.result":
            if entry is not None:
                entry[1].append(event)
            return
        # rpc.collate
        if event.verdict == "disagreement":
            subject = "%s/%s thread=%s call#%d" % key
            evidence = (entry[1][-1], event) if entry and entry[1] \
                else (event,)
            self.report(
                "collator rejected conflicting replica responses for %s "
                "— troupe members disagreed" % subject,
                subject=subject + ":disagreement", evidence=evidence)
        elif event.verdict in ("agreed", "failed"):
            if entry is None:
                return
            start, results = entry
            if len(results) < start.members:
                subject = "%s/%s thread=%s call#%d" % key
                self.report(
                    "verdict %r for %s announced after %d of %d member "
                    "results" % (event.verdict, subject,
                                 len(results), start.members),
                    subject=subject,
                    evidence=(start,) + tuple(results) + (event,))
        if entry is not None and event.verdict != "decided_early":
            del self._calls[key]


class CommitMonitor(InvariantMonitor):
    """§5.3: a transaction commits iff *every* server troupe member
    voted ready and the vote group was complete (unanimity/atomicity);
    and coordinators that collected the same member serials must reach
    the same decision."""

    kinds = ("txn.vote", "txn.commit")
    invariant = "commit-unanimity"
    section = "5.3"

    def __init__(self):
        super().__init__()
        #: coordinator (host, proc) -> votes since its last outcome.
        self._votes: Dict[Tuple[str, str], List[obs_events.ObsEvent]] = {}
        #: sorted serials tuple -> (decision, outcome event).
        self._decisions: Dict[Tuple[int, ...],
                              Tuple[str, obs_events.ObsEvent]] = {}

    def observe(self, event) -> None:
        coord = (event.host, event.proc)
        if event.kind == "txn.vote":
            self._votes.setdefault(coord, []).append(event)
            return
        votes = self._votes.pop(coord, [])
        subject = "%s/%s@%g" % (event.host, event.proc, event.t)
        # Mirror §5.3 exactly: commit iff the vote group was complete
        # and no member voted abort.
        unanimous = event.group_complete and all(v.ready for v in votes)
        expected = "commit" if unanimous else "abort"
        if event.decision != expected:
            self.report(
                "coordinator %s/%s decided %r but votes demand %r "
                "(%d votes, ready=%s, group_complete=%s)" % (
                    event.host, event.proc, event.decision, expected,
                    len(votes), [v.ready for v in votes],
                    event.group_complete),
                subject=subject, evidence=tuple(votes) + (event,))
        serials = tuple(sorted(event.serials))
        if serials:
            prior = self._decisions.get(serials)
            if prior is None:
                self._decisions[serials] = (event.decision, event)
            elif prior[0] != event.decision:
                self.report(
                    "coordinators split over serials %s: %r vs %r" % (
                        list(serials), prior[0], event.decision),
                    subject="serials=%s" % (serials,),
                    evidence=(prior[1], event))


class CrashSilenceMonitor(InvariantMonitor):
    """§4.2.3: once an endpoint declares a peer crashed for a transfer,
    it must stop talking to it about that transfer — no further
    retransmissions or probes for the same ``(endpoint, peer, call)``.
    New calls to the (possibly restarted) peer are legitimate, so the
    invariant is scoped per call number."""

    kinds = ("pm.crash", "pm.retransmit", "pm.probe")
    invariant = "crash-silence"
    section = "4.2.3"

    def __init__(self):
        super().__init__()
        self._crashed: Dict[Tuple[str, str, int], obs_events.ObsEvent] = {}

    def observe(self, event) -> None:
        key = (str(event.endpoint), str(event.peer), event.call_number)
        if event.kind == "pm.crash":
            self._crashed.setdefault(key, event)
            return
        crash = self._crashed.get(key)
        if crash is None:
            return
        what = "retransmitted to" if event.kind == "pm.retransmit" \
            else "probed"
        self.report(
            "%s %s for call#%d after declaring it crashed at t=%g" % (
                what, event.peer, event.call_number, crash.t),
            subject="%s->%s#%d" % key,
            evidence=(crash, event))


class IncarnationMonitor(InvariantMonitor):
    """§6.2: every membership change gives the troupe a *new* incarnation
    ID so stale bindings are detectable — at each Ringmaster member the
    ID sequence for a troupe name must be strictly increasing, and each
    change must chain from the incarnation it replaces."""

    kinds = ("bind.member",)
    invariant = "incarnation-monotonic"
    section = "6.2"

    def __init__(self):
        super().__init__()
        #: (ringmaster host, proc, troupe name) -> (last id, event)
        self._last: Dict[Tuple[str, str, str],
                         Tuple[int, obs_events.ObsEvent]] = {}

    def observe(self, event) -> None:
        key = (event.host, event.proc, event.name)
        prior = self._last.get(key)
        subject = "%s/%s:%s" % key
        if prior is not None:
            last_id, last_event = prior
            if event.new_id <= last_id:
                self.report(
                    "troupe %r rebound to incarnation %#x, not above the "
                    "previous %#x" % (event.name, event.new_id, last_id),
                    subject=subject, evidence=(last_event, event))
            elif (event.op in ("add", "remove") and event.old_id
                    and event.old_id != last_id):
                # old_id == 0 marks a fresh creation (first export under
                # a name, possibly after the troupe emptied out) — there
                # is no incarnation to chain from.
                self.report(
                    "troupe %r %s chained from incarnation %#x but the "
                    "Ringmaster last issued %#x" % (
                        event.name, event.op, event.old_id, last_id),
                    subject=subject, evidence=(last_event, event))
        self._last[key] = (event.new_id, event)


#: the monitors installed by default, in subscription order.
DEFAULT_MONITORS = (
    ExactlyOnceMonitor,
    TroupeDeterminismMonitor,
    CollationMonitor,
    CommitMonitor,
    CrashSilenceMonitor,
    IncarnationMonitor,
)

#: invariant slug -> monitor class, for oracle selection by name
#: (``repro fuzz --oracles exactly-once,crash-silence``).
MONITORS_BY_INVARIANT = {cls.invariant: cls for cls in DEFAULT_MONITORS}


def monitors_for(invariants) -> List[type]:
    """Resolve invariant slugs (e.g. ``"exactly-once"``) to monitor
    classes; raises ``KeyError`` naming any unknown slug."""
    unknown = [name for name in invariants
               if name not in MONITORS_BY_INVARIANT]
    if unknown:
        raise KeyError("unknown invariant(s) %s (choose from: %s)"
                       % (unknown, ", ".join(sorted(MONITORS_BY_INVARIANT))))
    return [MONITORS_BY_INVARIANT[name] for name in invariants]


class MonitorSuite:
    """All monitors over one simulation's bus, with causal clocks.

    ``monitors`` may hold classes or ready instances; by default every
    monitor in :data:`DEFAULT_MONITORS` is attached.  Installing the
    suite puts a :class:`~repro.obs.clocks.ClockDomain` on the bus
    (unless one is already there), so every event the monitors weigh —
    and every violation they emit — carries a happens-before stamp.
    """

    def __init__(self, sim, monitors=None):
        self.sim = sim
        self.bus = sim.bus
        self._owns_clocks = self.bus.stamper is None
        if self._owns_clocks:
            self.clocks = ClockDomain().install(self.bus)
        else:
            self.clocks = self.bus.stamper
        specs = DEFAULT_MONITORS if monitors is None else monitors
        self.monitors: List[InvariantMonitor] = []
        for spec in specs:
            monitor = spec() if isinstance(spec, type) else spec
            self.monitors.append(monitor.attach(self.bus))

    @property
    def violations(self) -> List[obs_events.InvariantViolation]:
        found: List[obs_events.InvariantViolation] = []
        for monitor in self.monitors:
            found.extend(monitor.violations)
        found.sort(key=lambda v: (v.t, getattr(v, "lamport", 0)))
        return found

    def __getitem__(self, name: str) -> InvariantMonitor:
        for monitor in self.monitors:
            if monitor.name == name:
                return monitor
        raise KeyError(name)

    def detach(self) -> None:
        for monitor in self.monitors:
            monitor.detach()
        if self._owns_clocks:
            self.clocks.uninstall()


class Watch:
    """What :func:`watch` yields: the suite, the recorder, and the
    optional tracer and critical-path analyzer, with convenience
    accessors."""

    def __init__(self, suite, recorder, tracer=None, critpath=None):
        self.suite = suite
        self.recorder = recorder
        self.tracer = tracer
        self.critpath = critpath

    @property
    def violations(self):
        return self.suite.violations

    @property
    def clocks(self):
        return self.suite.clocks

    def postmortem(self) -> dict:
        return self.recorder.postmortem(tracer=self.tracer,
                                        critpath=self.critpath)

    def dump(self, path) -> dict:
        return self.recorder.dump(path, tracer=self.tracer,
                                  critpath=self.critpath)


@contextlib.contextmanager
def watch(sim, monitors=None, capacity=2048, trace=False):
    """Monitor a simulation for the duration of a ``with`` block::

        with watch(world.sim) as probe:
            world.run(body())
        assert not probe.violations

    Attaches a :class:`MonitorSuite` and a flight recorder (and, when
    ``trace=True``, a :class:`~repro.obs.trace.CallTracer` plus a
    :class:`~repro.obs.critpath.CritPathAnalyzer` sharing its spans, so
    post-mortems carry each violating call's stage breakdown); if the
    block raises, the exception is recorded in the flight recorder as an
    unexpected crash (for the post-mortem) and re-raised.  Everything is
    detached on exit, restoring the bus's zero-overhead idle state.
    """
    from repro.obs.critpath import CritPathAnalyzer
    from repro.obs.recorder import FlightRecorder
    from repro.obs.trace import CallTracer

    suite = MonitorSuite(sim, monitors)
    recorder = FlightRecorder(sim.bus, capacity=capacity)
    tracer = CallTracer(sim) if trace else None
    critpath = CritPathAnalyzer(sim, tracer=tracer) if trace else None
    probe = Watch(suite, recorder, tracer, critpath)
    try:
        yield probe
    except BaseException as exc:
        recorder.record_crash(exc, t=getattr(sim, "now", 0.0))
        raise
    finally:
        if critpath is not None:
            critpath.close()
        if tracer is not None:
            tracer.close()
        recorder.detach()
        suite.detach()
