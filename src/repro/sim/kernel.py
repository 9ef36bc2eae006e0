"""The discrete-event simulator and its process model.

Processes are Python generators that yield *waitables*:

- ``Sleep(dt)`` suspends the process for ``dt`` units of virtual time.
- ``SleepUntil(t)`` suspends it until the absolute virtual time ``t``.
- an :class:`~repro.sim.events.Event` suspends until the event fires and
  resumes with the event's value.
- ``AnyOf(w0, w1, ...)`` suspends until the first of several waitables
  fires and resumes with ``(index, value)``.
- another :class:`Process` suspends until that process terminates and
  resumes with its return value (a *join*).

Composition uses plain ``yield from``: a protocol helper written as a
generator can be called from any process.

Time is a float in milliseconds by convention (the paper reports
milliseconds per call), although nothing in the kernel depends on the unit.

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------

The event queue holds ``(time, seq, call)`` tuples so heap comparisons
run entirely in C (``seq`` is unique, so the ``call`` object is never
compared).  :class:`_ScheduledCall` handles are pooled on a freelist and
recycled as soon as their callback has run, which makes steady-state
scheduling allocation-free.

Same-timestamp dispatch is batched through the *ready lane*: a resume
scheduled at the current time (``_schedule_now`` — every event fire,
queue hand-off and process step) is appended to a FIFO deque instead of
the heap, and the run loop merges the two sources by ``(time, seq)``.
Entries in the lane are already sorted (the clock never moves backwards
while it is non-empty, and ``seq`` is monotonic), so draining a burst of
same-timestamp callbacks costs one O(1) ``popleft`` and one C-level
tuple comparison each, instead of an O(log n) ``heappush`` +
``heappop`` pair.  The executed order is provably identical to the
single-heap kernel: it is the merge of two (time, seq)-sorted sequences,
and (time, seq) is a total order over all scheduled entries.  Two
invariants follow:

1. A handle returned by :meth:`Simulator.schedule` may be cancelled *at
   most once*, and **never after its callback has run** — by then the
   handle may already be re-armed for an unrelated callback.  Every
   holder in this repository either drops or nulls its reference when
   the callback fires.
2. Cancellation is O(1) (a flag) and lazily reclaimed; the kernel
   compacts the heap when dead entries outnumber live ones, so
   lazily-cancelled timers cannot bloat the queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from heapq import heappush as heappush
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
)

import repro.obs.events as obs_events
from repro.obs.bus import EventBus

#: shared args tuple for timer resumes — every Sleep wake-up is
#: ``resume(None)``, so the hot path never builds a fresh tuple.
_RESUME_NONE = (None,)

#: recycled-handle pool bound: enough for any realistic concurrency
#: plateau while keeping a pathological burst from pinning memory.
_FREELIST_MAX = 4096

#: compaction trigger: dead heap entries tolerated before a rebuild.
_COMPACT_MIN_DEAD = 64


class SimulationError(Exception):
    """An error raised by the simulation kernel itself."""


class ProcessKilled(Exception):
    """Raised inside a process when it is killed (e.g. its host crashed)."""


class Interrupted(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Sleep:
    """Waitable: suspend the yielding process for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError("negative sleep delay: %r" % delay)
        self.delay = delay

    def __repr__(self) -> str:
        return "Sleep(%r)" % self.delay


class SleepUntil:
    """Waitable: suspend the yielding process until the absolute virtual
    time ``time`` — the generator spelling of :meth:`Simulator.schedule_at`.

    One wake-up for a run of back-to-back sleeps has to land on the float
    the chain would have reached, ``(now + a) + b``; ``Sleep(a + b)``
    wakes at ``now + (a + b)``, which can be an ulp away.  A time in the
    past raises ``schedule_at``'s ``ValueError`` when the wait is armed."""

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def __repr__(self) -> str:
        return "SleepUntil(%r)" % self.time


class AnyOf:
    """Waitable: suspend until the first of several waitables fires.

    The process resumes with a ``(index, value)`` pair identifying which
    waitable fired first and the value it carried.  The remaining waitables
    are left undisturbed (event subscriptions are cancelled).
    """

    __slots__ = ("waitables",)

    def __init__(self, *waitables: Any):
        if not waitables:
            raise ValueError("AnyOf requires at least one waitable")
        self.waitables = waitables

    def __repr__(self) -> str:
        return "AnyOf(%s)" % ", ".join(repr(w) for w in self.waitables)


class _ScheduledCall:
    """A cancellable entry in the simulator's event queue.

    The heap orders ``(time, seq, call)`` tuples, so this object carries
    no ordering state of its own — it is purely the cancellation handle
    and the callback payload, which lets the simulator recycle instances
    through a freelist (see the module docstring for the invariant).
    """

    __slots__ = ("fn", "args", "cancelled", "sim")

    def __init__(self, fn: Callable, args: tuple, sim: "Simulator"):
        self.fn: Optional[Callable] = fn
        self.args: Optional[tuple] = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            sim._live -= 1
            sim._dead += 1
            # Compact when the dead outnumber the live entries actually
            # pending (heap + ready lane; the _live counter can read
            # transiently high inside a run() slice).
            if sim._dead > _COMPACT_MIN_DEAD \
                    and sim._dead * 2 > len(sim._queue) + len(sim._ready):
                sim._compact()


class _JoinWait:
    """A joiner entry on a process: tombstoned in place on cancellation."""

    __slots__ = ("joiner", "resume")

    def __init__(self, joiner: "Process", resume: Callable[[Any], None]):
        self.joiner: Optional["Process"] = joiner
        self.resume: Optional[Callable[[Any], None]] = resume

    def cancel(self) -> None:
        self.joiner = None
        self.resume = None


class _AnyOfWait:
    """Live state for a multi-waitable AnyOf: first fire wins, cancels
    the losers, and resumes the process with ``(index, value)``.

    Deciding the wait (a fire or a cancel) drops ``resume`` and
    ``cancels`` — ``None`` *is* the decided state.  ``cancels`` holds the
    branch handles, each of which leads back here (handle -> branch ->
    wait), and ``resume`` is the waiting process's bound method: letting
    go of both is what lets the wait, its branches and their handles die
    by reference counting instead of waiting for the cyclic collector."""

    __slots__ = ("resume", "cancels")

    def __init__(self, resume: Callable[[Any], None], cancels: List[Any]):
        self.resume: Optional[Callable[[Any], None]] = resume
        self.cancels: Optional[List[Any]] = cancels

    def _fire(self, index: int, value: Any) -> None:
        cancels, resume = self.cancels, self.resume
        if cancels is None or resume is None:
            return
        self.cancels = self.resume = None
        for i in range(len(cancels)):
            if i != index:
                cancels[i].cancel()
        resume((index, value))

    def cancel(self) -> None:
        cancels = self.cancels
        if cancels is None:
            return
        self.cancels = self.resume = None
        for canceller in cancels:
            canceller.cancel()


class _AnyOfBranch:
    """The resume callback for one branch of an AnyOf (no closures)."""

    __slots__ = ("wait", "index")

    def __init__(self, wait: _AnyOfWait, index: int):
        self.wait = wait
        self.index = index

    def __call__(self, value: Any) -> None:
        self.wait._fire(self.index, value)


class _IndexZero:
    """Resume wrapper for the single-waitable AnyOf fast path: delivers
    ``(0, value)`` without allocating the full _AnyOfWait machinery."""

    __slots__ = ("resume",)

    def __init__(self, resume: Callable[[Any], None]):
        self.resume = resume

    def __call__(self, value: Any) -> None:
        self.resume((0, value))


class Process:
    """A lightweight simulated process driving a generator.

    A process terminates when its generator returns (the return value is
    stored in :attr:`result`), raises (the exception is stored in
    :attr:`exception`), or when it is killed.
    """

    __slots__ = ("sim", "gen", "name", "alive", "result", "exception",
                 "killed", "daemon", "observed", "group", "_joiners",
                 "_wait_cancel", "_step", "_stop_on_exit")

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.killed = False
        # Joiner entries (_JoinWait); lazily allocated — most processes
        # are never joined.
        self._joiners: Optional[List[_JoinWait]] = None
        # The cancel handle for whatever this process is waiting on (a
        # process waits on exactly one waitable at a time; AnyOf manages
        # its branches internally).
        self._wait_cancel: Any = None
        self.daemon = False
        # Set by run_process: failures are re-raised there, not by run().
        self.observed = False
        #: a dict this process is a key of and leaves when it exits (an
        #: OsProcess's thread table), besides the simulator's own.
        self.group: Optional[Dict["Process", None]] = None
        #: run_process sets this so _finish can stop the event loop
        #: without a per-callback stop_when() poll.
        self._stop_on_exit = False
        # One bound method for every resume, instead of one per wait.  It
        # refers back to this process, so _finish drops it (None means
        # finished): a dead process is reclaimed by reference counting.
        self._step: Optional[Callable[[Any], None]] = self._step_send

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return "<Process %s (%s)>" % (self.name, state)

    # -- lifecycle ---------------------------------------------------------

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Terminate this process.

        If the process is currently suspended it never resumes.  ``exc``
        (default :class:`ProcessKilled`) is delivered to the generator so
        ``finally`` blocks run, then recorded as the termination cause.
        """
        if not self.alive:
            return
        self._cancel_waits()
        self.killed = True
        if exc is None:
            exc = ProcessKilled("%s killed" % self.name)
        try:
            self.gen.throw(exc)
        except (StopIteration, ProcessKilled, Interrupted):
            pass
        except BaseException:
            # A finally block misbehaved; the process is dead regardless.
            pass
        else:
            # The generator swallowed the kill and yielded again; close it.
            self.gen.close()
        # The throw hung this frame and the generator's on the traceback;
        # recorded as the cause, that is process -> exception -> frames ->
        # process.  A kill is delivered, not raised: there is no "where".
        exc.__traceback__ = None
        self._finish(result=None, exception=exc, killed=True)

    def interrupt(self, cause: Any = None) -> None:
        """Deliver an :class:`Interrupted` exception to a waiting process."""
        if not self.alive:
            return
        self._cancel_waits()
        self.sim._schedule_now(self._step_throw, Interrupted(cause))

    def join(self) -> "Process":
        """A process is itself a waitable; joining is just yielding it."""
        return self

    # -- internals ---------------------------------------------------------

    def _cancel_waits(self) -> None:
        canceller = self._wait_cancel
        if canceller is not None:
            self._wait_cancel = None
            canceller.cancel()

    def _finish(self, result: Any, exception: Optional[BaseException],
                killed: bool = False) -> None:
        sim = self.sim
        self.alive = False
        self.result = result
        self.exception = exception
        self.killed = killed
        self._step = None
        # Retire: a finished process is reachable only through whoever
        # still holds it (a joiner, run_process), not through the tables.
        sim._processes.pop(self, None)
        if self.group is not None:
            self.group.pop(self, None)
        sim._exits[()] += 1
        if "sim.exit" in sim.bus.wanted:
            sim.bus.emit(obs_events.ProcessExited(
                t=sim.now, name=self.name, killed=killed,
                failed=exception is not None and not killed))
        if self._stop_on_exit:
            sim._stop = True
        joiners, self._joiners = self._joiners, None
        delivered = 0
        if joiners:
            for entry in joiners:
                joiner = entry.joiner
                if joiner is None:
                    continue
                delivered += 1
                if exception is not None and not killed:
                    joiner._cancel_waits()
                    sim._schedule_now(joiner._step_throw, exception)
                else:
                    sim._schedule_now(entry.resume, result)
        if exception is not None and not killed and not delivered:
            if not self.daemon and not self.observed:
                sim._record_failure(self, exception)

    def _step_send(self, value: Any) -> None:
        step = self._step
        if step is None:
            return
        self._wait_cancel = None
        try:
            waitable = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=getattr(stop, "value", None), exception=None)
            return
        except BaseException as exc:
            self._finish(result=None, exception=exc)
            return
        # Inlined timer fast path (the most common waits by far): arm a
        # pooled timer directly, skipping the _arm/schedule call frames.
        # Sleep.__init__ already validated delay >= 0; a SleepUntil in the
        # past goes to _arm, where schedule_at refuses it.
        sim = self.sim
        if waitable.__class__ is Sleep:
            when = sim.now + waitable.delay
        elif waitable.__class__ is SleepUntil and waitable.time >= sim.now:
            when = waitable.time
        else:
            self._wait_cancel = self._arm(waitable, step)
            return
        free = sim._free
        if free:
            call = free.pop()
            call.fn = step
            call.args = _RESUME_NONE
            call.cancelled = False
        else:
            sim.calls_allocated += 1
            call = _ScheduledCall(step, _RESUME_NONE, sim)
        heappush(sim._queue, (when, next(sim._seq), call))
        sim._live += 1
        self._wait_cancel = call

    def _step_throw(self, exc: BaseException) -> None:
        step = self._step
        if step is None:
            return
        self._wait_cancel = None
        try:
            waitable = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(result=getattr(stop, "value", None), exception=None)
            return
        except BaseException as raised:
            self._finish(result=None, exception=raised)
            return
        self._wait_cancel = self._arm(waitable, step)

    def _arm(self, waitable: Any, resume: Callable[[Any], None]):
        """Arrange for ``resume(value)`` when ``waitable`` fires; returns
        a cancellation handle (anything with a ``cancel()`` method)."""
        if isinstance(waitable, Sleep):
            # The fast path: a timer is one pooled heap entry, nothing else.
            return self.sim.schedule(waitable.delay, resume, None)
        subscribe = getattr(waitable, "_subscribe", None)
        if subscribe is not None:
            # Events, conditions and queue-gets provide the subscription
            # protocol; they are the next most common waitables.
            return subscribe(resume)
        if isinstance(waitable, SleepUntil):
            return self.sim.schedule_at(waitable.time, resume, None)
        if isinstance(waitable, AnyOf):
            return self._arm_any(waitable, resume)
        if isinstance(waitable, Process):
            return self._arm_process(waitable, resume)
        raise SimulationError(
            "process %s yielded a non-waitable: %r" % (self.name, waitable))

    def _arm_any(self, anyof: AnyOf, resume: Callable[[Any], None]):
        waitables = anyof.waitables
        if len(waitables) == 1:
            # Degenerate AnyOf: subscribe the sole waitable directly with
            # an index-tagging resume; its own handle is the canceller.
            return self._arm(waitables[0], _IndexZero(resume))
        cancels: List[Any] = []
        wait = _AnyOfWait(resume, cancels)
        for i, sub in enumerate(waitables):
            cancels.append(self._arm(sub, _AnyOfBranch(wait, i)))
        return wait

    def _arm_process(self, proc: "Process",
                           resume: Callable[[Any], None]):
        if not proc.alive:
            if proc.exception is not None and not proc.killed:
                return self.sim.schedule(0.0, self._step_throw, proc.exception)
            return self.sim.schedule(0.0, resume, proc.result)
        entry = _JoinWait(self, resume)
        if proc._joiners is None:
            proc._joiners = [entry]
        else:
            proc._joiners.append(entry)
        return entry


class Simulator:
    """The event loop: a virtual clock and a priority queue of callbacks."""

    def __init__(self, monitors=None):
        self.now: float = 0.0
        #: the heap holds (time, seq, call) tuples so every comparison is
        #: a C-level tuple comparison (seq is unique; call never compares).
        self._queue: List[Tuple[float, int, _ScheduledCall]] = []
        #: the ready lane: same-timestamp entries from ``_schedule_now``,
        #: kept (time, seq)-sorted by construction and merged with the
        #: heap in run() — batched dispatch skips the heap entirely.
        self._ready: Deque[Tuple[float, int, _ScheduledCall]] = deque()
        self._seq: Iterator[int] = itertools.count()
        #: live processes, in spawn order (a dict so exit is O(1)).
        self._processes: Dict[Process, None] = {}
        self._failures: List[Tuple[Process, BaseException]] = []
        self._proc_names = itertools.count()
        #: recycled _ScheduledCall handles (see module docstring).
        self._free: List[_ScheduledCall] = []
        #: non-cancelled entries in the heap (pending_events is O(1)).
        self._live = 0
        #: cancelled entries still awaiting lazy removal from the heap.
        self._dead = 0
        #: set by Process._finish for run_process; checked by run().
        self._stop = False
        # -- machine-independent perf counters (repro.bench.gated reads
        # these; they are deterministic because the simulation is).
        #: callbacks executed by run() over this simulator's lifetime.
        self.callbacks_run = 0
        #: _ScheduledCall objects constructed (freelist misses).
        self.calls_allocated = 0
        #: entries drained from the ready lane (the batched same-time
        #: dispatch path; cancelled handles included) — with
        #: callbacks_run this gives the heap-bypass share.
        self.ready_dispatched = 0
        #: the observability event bus for this simulation world; every
        #: layer built on this simulator emits its events here.
        self.bus = EventBus()
        #: the bus's site counts of spawns and exits (EventBus.counts).
        self._spawns = self.bus.counts["sim.spawn"]
        self._exits = self.bus.counts["sim.exit"]
        #: invariant monitoring (repro.obs.monitor).  ``monitors=True``
        #: attaches the default suite; a sequence attaches those
        #: monitors.  Imported only then: of ``repro.obs`` the kernel
        #: imports the event taxonomy and the bus alone (the package
        #: loads an observer on first use), so an unobserved simulation
        #: imports no observer (tests/test_import_footprint.py).
        self.monitor_suite: Optional[Any] = None
        if monitors:
            from repro.obs.monitor import MonitorSuite
            self.monitor_suite = MonitorSuite(
                self, None if monitors is True else monitors)

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> _ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` units of virtual time.

        The returned handle may be cancelled at most once, and never
        after the callback has run (handles are pooled and recycled)."""
        if delay < 0:
            raise ValueError("cannot schedule in the past (delay=%r)" % delay)
        free = self._free
        if free:
            call = free.pop()
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            self.calls_allocated += 1
            call = _ScheduledCall(fn, args, self)
        heappush(self._queue, (self.now + delay, next(self._seq), call))
        self._live += 1
        return call

    def schedule_at(self, time: float, fn: Callable,
                    *args: Any) -> _ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time ``time``.

        ``schedule(t - now)`` re-derives the absolute time as
        ``now + (t - now)``, which is not always bit-identical to ``t``
        in floats; cross-shard envelope injection needs the *exact*
        delivery timestamp the source shard computed, so this variant
        pins it."""
        if time < self.now:
            raise ValueError("cannot schedule in the past (t=%r, now=%r)"
                             % (time, self.now))
        free = self._free
        if free:
            call = free.pop()
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            self.calls_allocated += 1
            call = _ScheduledCall(fn, args, self)
        heappush(self._queue, (time, next(self._seq), call))
        self._live += 1
        return call

    def _schedule_now(self, fn: Callable, *args: Any) -> _ScheduledCall:
        # schedule(0.0, ...) without the delay validation — the kernel's
        # own resume path, hot enough to skip one call frame.  Entries go
        # to the ready lane (O(1) append, merged by run()) rather than
        # the heap; the guard keeps the lane sorted in the one edge case
        # where run(until=...) moved the clock backwards past pending
        # lane entries.
        free = self._free
        if free:
            call = free.pop()
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            self.calls_allocated += 1
            call = _ScheduledCall(fn, args, self)
        ready = self._ready
        now = self.now
        if ready and ready[-1][0] > now:
            heappush(self._queue, (now, next(self._seq), call))
        else:
            ready.append((now, next(self._seq), call))
        self._live += 1
        return call

    def _compact(self) -> None:
        """Drop lazily-cancelled entries and re-heapify (in place, so run()
        loops holding a reference to the queue list stay valid).  Pop
        order is unchanged: (time, seq) is a total order over the
        survivors and heapify preserves it.  The ready lane is swept the
        same way (filtering a sorted deque keeps it sorted)."""
        queue = self._queue
        free = self._free
        live = []
        append = live.append
        for entry in queue:
            call = entry[2]
            if call.cancelled:
                if len(free) < _FREELIST_MAX:
                    call.fn = call.args = None
                    free.append(call)
            else:
                append(entry)
        ready = self._ready
        if ready:
            live_ready = []
            for entry in ready:
                call = entry[2]
                if call.cancelled:
                    if len(free) < _FREELIST_MAX:
                        call.fn = call.args = None
                        free.append(call)
                else:
                    live_ready.append(entry)
            if len(live_ready) != len(ready):
                ready.clear()
                ready.extend(live_ready)
        self._dead = 0
        queue[:] = live
        heapq.heapify(queue)

    def spawn(self, gen: Generator, name: Optional[str] = None,
              daemon: bool = False) -> Process:
        """Create a process from a generator and start it at the current time.

        Daemon processes may outlive the simulation without their failures
        being reported (used for background services like retransmitters).
        """
        if name is None:
            name = "proc-%d" % next(self._proc_names)
        proc = Process(self, gen, name)
        proc.daemon = daemon
        self._processes[proc] = None
        self._schedule_now(proc._step_send, None)
        self._spawns[()] += 1
        if "sim.spawn" in self.bus.wanted:
            self.bus.emit(obs_events.ProcessSpawned(
                t=self.now, name=name, daemon=daemon))
        return proc

    def _record_failure(self, proc: Process, exc: BaseException) -> None:
        self._failures.append((proc, exc))

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> float:
        """Process events until the queue drains, ``until`` is reached,
        ``max_events`` callbacks have run, or ``stop_when()`` becomes true
        (checked after each callback).  Returns the final clock value.

        If any non-daemon process terminated with an unhandled exception and
        nobody joined it, the first such exception is re-raised here: errors
        never pass silently.
        """
        queue = self._queue
        ready = self._ready
        free = self._free
        failures = self._failures
        pop = heapq.heappop
        popleft = ready.popleft
        self._stop = False
        count = 0
        drained = 0
        try:
            if until is None and max_events is None and stop_when is None:
                # The hot path: no bound checks, no stop_when() polling —
                # run_process stops the loop via the _stop flag instead.
                # The _live counter is settled once in the finally block
                # (count executed == live entries consumed), not per event.
                # Next event = merge of the heap and the (sorted) ready
                # lane by C-level (time, seq) tuple comparison; a burst of
                # same-timestamp resumes drains from the lane at O(1) per
                # entry with no heap traffic at all.
                while True:
                    if ready:
                        if queue and queue[0] < ready[0]:
                            entry = pop(queue)
                        else:
                            entry = popleft()
                            drained += 1
                    elif queue:
                        entry = pop(queue)
                    else:
                        break
                    call = entry[2]
                    if call.cancelled:
                        self._dead -= 1
                        if len(free) < _FREELIST_MAX:
                            call.fn = call.args = None
                            free.append(call)
                        continue
                    self.now = entry[0]
                    fn = call.fn
                    args = call.args
                    if len(free) < _FREELIST_MAX:
                        free.append(call)
                    fn(*args)
                    count += 1
                    if failures:
                        proc, exc = failures[0]
                        del failures[:]
                        raise SimulationError(
                            "process %s died: %r" % (proc.name, exc)) from exc
                    if self._stop:
                        break
                return self.now
            # The bounded/polled slow path: same merge, with the until /
            # max_events / stop_when checks of the original loop.
            while queue or ready:
                if ready:
                    if queue and queue[0] < ready[0]:
                        entry = queue[0]
                        from_heap = True
                    else:
                        entry = ready[0]
                        from_heap = False
                else:
                    entry = queue[0]
                    from_heap = True
                if until is not None and entry[0] > until:
                    self.now = until
                    break
                if from_heap:
                    pop(queue)
                else:
                    popleft()
                    drained += 1
                call = entry[2]
                if call.cancelled:
                    self._dead -= 1
                    if len(free) < _FREELIST_MAX:
                        call.fn = call.args = None
                        free.append(call)
                    continue
                self.now = entry[0]
                fn = call.fn
                args = call.args
                if len(free) < _FREELIST_MAX:
                    free.append(call)
                fn(*args)
                count += 1
                if failures:
                    proc, exc = failures[0]
                    del failures[:]
                    raise SimulationError(
                        "process %s died: %r" % (proc.name, exc)) from exc
                if max_events is not None and count >= max_events:
                    break
                if stop_when is not None and stop_when():
                    break
                if self._stop:
                    break
            else:
                if until is not None and until > self.now:
                    self.now = until
            return self.now
        finally:
            self.callbacks_run += count
            self.ready_dispatched += drained
            # Each executed callback consumed one live pending entry;
            # settling the counter here keeps the per-event loop free of
            # it.  (The compaction heuristic reading a transiently-high
            # _live mid-run merely compacts a little later — it is only a
            # heuristic.)
            self._live -= count

    def run_process(self, gen: Generator, name: Optional[str] = None,
                    until: Optional[float] = None) -> Any:
        """Spawn a process, run the simulation until it completes (or
        ``until``), and return its result.

        The simulation stops as soon as the process terminates, so
        background daemons (retransmitters, deadlock detectors, failure
        drivers) do not keep the run alive forever.  An exception raised
        by the process is re-raised here as itself (not wrapped in
        SimulationError)."""
        proc = self.spawn(gen, name=name)
        proc.observed = True
        proc._stop_on_exit = True
        self.run(until=until)
        if proc.alive:
            raise SimulationError(
                "process %s did not finish by t=%r" % (proc.name, self.now))
        if proc.exception is not None:
            raise proc.exception
        return proc.result

    # -- introspection -----------------------------------------------------

    def pending_events(self) -> int:
        """Live (non-cancelled) entries in the event queue — O(1)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live pending event, or ``None`` when
        the queue is drained.

        The sharded driver (:mod:`repro.sim.sharded`) computes each
        conservative lookahead bound from what every shard kernel reports
        here after a window.  Cancelled entries at the head are discarded
        here exactly as run() would discard them (recycled to the
        freelist, ``_dead`` settled), so peeking never reports a
        tombstone's time."""
        queue = self._queue
        ready = self._ready
        free = self._free
        while True:
            if ready:
                if queue and queue[0] < ready[0]:
                    entry = queue[0]
                    from_heap = True
                else:
                    entry = ready[0]
                    from_heap = False
            elif queue:
                entry = queue[0]
                from_heap = True
            else:
                return None
            call = entry[2]
            if call.cancelled:
                if from_heap:
                    heapq.heappop(queue)
                else:
                    ready.popleft()
                self._dead -= 1
                if len(free) < _FREELIST_MAX:
                    call.fn = call.args = None
                    free.append(call)
                continue
            return entry[0]

    def live_processes(self) -> List[Process]:
        return list(self._processes)

    def perf_snapshot(self) -> dict:
        """Machine-independent kernel work counters (deterministic)."""
        return {
            "callbacks_run": self.callbacks_run,
            "calls_allocated": self.calls_allocated,
            "ready_dispatched": self.ready_dispatched,
            "pending_live": self._live,
            "pending_dead": self._dead,
            "pending_ready": len(self._ready),
            "freelist": len(self._free),
        }
