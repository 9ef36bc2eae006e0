"""``repro.explore`` — the deterministic fault-schedule explorer.

A simulation-testing subsystem in the TigerBeetle-VOPR / Jepsen mold,
composed from parts the codebase already owns: the deterministic
:class:`~repro.sim.kernel.Simulator`, forkable
:class:`~repro.sim.rng.RandomStream` seeds, the
:class:`~repro.obs.monitor.MonitorSuite` oracles, and the flight
:class:`~repro.obs.recorder.FlightRecorder`.

    from repro import explore

    result = explore.run("echo", seed=7)       # one seed, full oracles
    assert result.ok, result.violations

    failures = [r for r in explore.sweep("echo", range(200)) if not r.ok]
    small, attempts = explore.shrink_failure(failures[0])
    small.save("echo-seed7.schedule.json")     # the repro script

Surfaces: this API, the ``repro fuzz`` CLI subcommand (sweep / shrink /
replay), and the pytest plugin (``repro.explore.pytest_plugin`` — the
``fuzz`` fixture plus the :func:`schedules` parameterizer).  See
docs/TESTING.md for the workflow.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

import repro.obs.monitor as obs_monitor
from repro import _namespace
from repro.pairedmsg.segments import MSG_CALL
from repro.sim.events import Queue
from repro.sim.kernel import SimulationError
from repro.sim.sharded import available_cpus

if TYPE_CHECKING:
    from repro.explore.schedule import FaultAction, FaultSchedule
    from repro.explore.scenarios import Scenario

# The schedule, the catalog, the driver and the shrinker load when first
# asked for; asking for a scenario imports everything its seeds import
# (``Scenario.load``), so a sweep's forked workers import nothing.
__getattr__, __dir__ = _namespace(__name__, {
    "ScheduleDriver": "driver",
    "ADVERSARIAL_PROFILE": "schedule",
    "CRASH_ONLY_PROFILE": "schedule",
    "DEFAULT_PROFILE": "schedule",
    "ELASTIC_ADVERSARIAL_PROFILE": "schedule",
    "ELASTIC_PROFILE": "schedule",
    "Crash": "schedule",
    "CrashDuringTransfer": "schedule",
    "Delay": "schedule",
    "Duplicate": "schedule",
    "FaultAction": "schedule",
    "FaultSchedule": "schedule",
    "Loss": "schedule",
    "Partition": "schedule",
    "PartitionDuringJoin": "schedule",
    "Profile": "schedule",
    "Reorder": "schedule",
    "SCHEDULE_FORMAT": "schedule",
    "digest_of": "schedule",
    "generate": "schedule",
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "get_scenario": "scenarios",
    "shrink_actions": "shrink",
    **{module: module for module in (
        "driver", "scenarios", "schedule", "shrink")},
})

__all__ = [
    "ADVERSARIAL_PROFILE",
    "CRASH_ONLY_PROFILE",
    "DEFAULT_PROFILE",
    "ELASTIC_ADVERSARIAL_PROFILE",
    "ELASTIC_PROFILE",
    "Crash",
    "CrashDuringTransfer",
    "Delay",
    "Duplicate",
    "ExploreResult",
    "FaultAction",
    "FaultSchedule",
    "Loss",
    "Partition",
    "PartitionDuringJoin",
    "Profile",
    "Reorder",
    "ReplayDiverged",
    "SCENARIOS",
    "SCHEDULE_FORMAT",
    "Scenario",
    "ScheduleDriver",
    "StuckWait",
    "SweepWorkerDied",
    "digest_of",
    "generate",
    "get_scenario",
    "replay_file",
    "run",
    "schedules",
    "shrink_actions",
    "shrink_failure",
    "sweep",
    "write_failure",
]


@dataclasses.dataclass
class ExploreResult:
    """One seed's verdict: the schedule it ran, what the workload saw,
    and what the oracles said."""

    scenario: str
    seed: int
    schedule: FaultSchedule
    outcome: Any                      # workload return value, or a marker
    crash: Optional[str]              # "Type: message" when the run died
    violations: List[Any]             # InvariantViolation events
    postmortem: Optional[Dict[str, Any]]
    stats: Dict[str, Any]             # deterministic run statistics
    #: populated on failing runs when ``run(..., artifacts=True)``:
    #: {"openmetrics": <text>, "trace": <chrome trace dict>} — the
    #: snapshots CI uploads next to the repro script.
    artifacts: Optional[Dict[str, Any]] = None
    #: the recorded client-visible operation history (the canonical
    #: ``repro.history/1`` dict), for scenarios that record one; its
    #: digest also rides in ``stats["history_digest"]``, so byte-level
    #: history determinism is part of the run digest contract.
    history: Optional[Dict[str, Any]] = None
    #: what each live process waits on when the seed ended
    #: ``budget-exhausted`` (:func:`_stuck_waits`); not in the digest.
    stuck: List["StuckWait"] = dataclasses.field(default_factory=list)
    _kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict,
                                                repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations and self.crash is None

    def invariants(self) -> List[str]:
        """The violated invariant slugs, sorted and deduplicated."""
        return sorted({v.invariant for v in self.violations})

    def digest(self) -> str:
        """A stable hash of everything deterministic about the run:
        the schedule, the workload outcome, the oracle verdicts, and the
        network/driver statistics.  Two runs of the same seed — in
        different processes, on different machines — produce the same
        digest; that is the determinism contract ``repro fuzz`` checks
        in CI."""
        from repro.explore.schedule import digest_of
        return digest_of({
            "scenario": self.scenario,
            "seed": self.seed,
            "schedule": self.schedule.to_dict(),
            "outcome": self.outcome,
            "crash": self.crash,
            "invariants": [(v.invariant, round(v.t, 6))
                           for v in self.violations],
            "stats": self.stats,
        })

    def summary(self) -> str:
        if self.ok:
            return "seed %d ok (%d actions)" % (
                self.seed, len(self.schedule.actions))
        what = ", ".join(self.invariants()) or "crash"
        return "seed %d FAILED: %s (%d actions)" % (
            self.seed, what, len(self.schedule.actions))


@dataclasses.dataclass(frozen=True)
class StuckWait:
    """One live process's wait at the horizon of an unfinished run.

    ``kind`` is ``waits-on-abandoned`` (a ``wait_return`` whose CALL is
    in neither the caller's outgoing transfers nor the callee's delivered
    memory: nobody will ever answer it), ``waits-on-down`` (its callee's
    host is down), ``waits-on-live-idle`` (any other ``wait_return``),
    ``lock-cycle`` (a lock wait on a cycle of the waits-for relation),
    ``other``, or ``unclassified`` (the classifier itself failed; ``where``
    is its error, and the verdict stands)."""

    process: str
    kind: str
    where: str                          # innermost frame, ``name:line``
    peer: Optional[str] = None          # a ``wait_return``'s callee
    call_number: Optional[int] = None

    def __str__(self) -> str:
        call = "" if self.peer is None else " on %s call %d" % (
            self.peer, self.call_number)
        return "%s: %s%s (at %s)" % (self.process, self.kind, call,
                                     self.where)


def _where(gen) -> str:
    """The innermost frame of a generator chain, ``qualname:line``."""
    where = "?"
    while gen is not None and getattr(gen, "gi_frame", None) is not None:
        where = "%s:%d" % (gen.__qualname__, gen.gi_frame.f_lineno)
        gen = gen.gi_yieldfrom
    return where


def _on_cycle(graph: Dict[Any, set], node) -> bool:
    """Does ``node`` reach itself in ``graph``?"""
    seen, todo = set(), list(graph.get(node, ()))
    while todo:
        other = todo.pop()
        if other == node:
            return True
        if other not in seen:
            seen.add(other)
            todo.extend(graph.get(other, ()))
    return False


def _stuck_waits(world, endpoints: Sequence = (),
                 lock_tables: Sequence = ()) -> List[StuckWait]:
    """Classify what every live process of ``world`` waits on, in spawn
    order.  A return wait is one of the pending ``wait_return``s of the
    world's runtimes' endpoints and ``endpoints``; a lock wait is queued
    in one of ``lock_tables``.  Any other wait of a non-daemon process is
    ``other``, except a queue read (a gather's reader waits on its waiter
    processes, which are listed themselves); a daemon's is a service
    loop's, idle by design."""
    endpoints = [runtime.endpoint for runtime in world.runtimes] \
        + list(endpoints)
    by_addr = {endpoint.addr: endpoint for endpoint in endpoints}
    returns = {event: (endpoint, key) for endpoint in endpoints
               for key, event in endpoint._return_waiters.items()}
    locks: Dict[Any, Any] = {}
    waits_for: Dict[Any, set] = {}
    for table in lock_tables:
        locks.update(table.waiting())
        for txn, holders in table.waits_for().items():
            waits_for.setdefault(txn, set()).update(holders)
    stuck = []
    for process in world.sim.live_processes():
        owners = process.waiting_on()
        peer = call_number = None
        for owner in owners:
            if owner in returns:
                caller, (peer, call_number) = returns[owner]
                callee = by_addr.get(peer)
                host = world.net.hosts.get(peer.host)
                if host is None or not host.up:
                    kind = "waits-on-down"
                elif (peer, MSG_CALL, call_number) not in caller._sends \
                        and (callee is None or call_number not in
                             callee._delivered_calls.get(caller.addr, ())):
                    kind = "waits-on-abandoned"
                else:
                    kind = "waits-on-live-idle"
                break
            if owner in locks:
                kind = "lock-cycle" if _on_cycle(waits_for, locks[owner]) \
                    else "other"
                break
        else:
            if process.daemon or any(isinstance(owner, Queue)
                                     for owner in owners):
                continue
            kind = "other"
        stuck.append(StuckWait(process.name, kind, _where(process.gen),
                               None if peer is None else str(peer),
                               call_number))
    return stuck


class ReplayDiverged(RuntimeError):
    """The explaining attempt at a failing seed did not reproduce the
    verdict attempt's digest.  A seed is one run, bit for bit, whoever
    observes it — so this is a determinism bug in the scenario, the
    simulator or an observer (a build that consults ``random`` or the
    wall clock, a subscriber that touches the simulation), never a
    flake: report it with the scenario and seed it names."""


def run(scenario, seed: int, *,
        schedule: Optional[FaultSchedule] = None,
        budget: Optional[float] = None,
        oracles: Optional[Sequence[str]] = None,
        monitors: Optional[Sequence] = None,
        capacity: int = 4096,
        artifacts: bool = False) -> ExploreResult:
    """Execute one scenario under one fault schedule, oracles watching.

    ``scenario`` is a name from :data:`SCENARIOS` or a
    :class:`Scenario`.  Without an explicit ``schedule`` the seed derives
    one (``generate``).  ``oracles`` selects monitors by invariant slug;
    ``monitors`` passes monitor classes/instances directly and wins over
    ``oracles``; by default every monitor runs.  ``budget`` caps virtual
    time — a workload still unfinished then is recorded as
    ``"budget-exhausted"``, not a crash.

    Detect lean, explain by replay.  The seed is first run for its
    *verdict*, with only the oracles (and the scenario's history
    recorder and the schedule driver) on the bus — the clocks tick on
    the causal kinds and nothing else is even built.  A passing seed's
    result is that attempt's.  When it reports a violation or a crash,
    the same seed and schedule are built and run again under the full
    watch — flight recorder of ``capacity`` events, call tracer and
    critical-path analyzer, so the post-mortem embeds each violating
    call's stage breakdown; with ``artifacts=True`` also the metrics
    collector, whose OpenMetrics snapshot and the Chrome
    trace are stored on the result for CI upload — and *that* attempt's
    result is returned, so its violations, post-mortem and artefacts all
    describe one run.  Bus subscribers never touch the simulation, so
    the two attempts must agree: unequal digests raise
    :class:`ReplayDiverged`.

    A monitor class is instantiated fresh for each attempt.  A monitor
    *instance* is attached as it is to the verdict attempt — it sees
    each seed's events exactly once and keeps its state (``violations``,
    what it has already fired on) afterwards, so pass classes unless
    carrying state from run to run is the point; the explaining attempt
    gets a ``copy.deepcopy`` of it taken before the verdict attempt
    attached it, and starts from the state the verdict attempt started
    from.
    """
    scn = _scenario(scenario)
    if monitors is None:
        if oracles is None:
            oracles = scn.oracles
        if oracles is not None:
            monitors = obs_monitor.monitors_for(oracles)
    kwargs = dict(monitors=monitors, budget=budget, capacity=capacity)
    pristine = monitors if monitors is None else [
        spec if isinstance(spec, type) else copy.deepcopy(spec)
        for spec in monitors]
    result = verdict = _attempt(scn, seed, schedule, **kwargs)
    if not verdict.ok:
        result = _attempt(scn, seed, verdict.schedule, explain=True,
                          artifacts=artifacts,
                          **dict(kwargs, monitors=pristine))
        if result.digest() != verdict.digest():
            raise ReplayDiverged(
                "scenario %r seed %d: the verdict attempt's digest %s "
                "became %s when the seed was run again to explain it"
                % (scn.name, seed, verdict.digest(), result.digest()))
    # what shrink_failure re-runs candidates with: the caller's monitors
    result._kwargs = kwargs
    return result


def _scenario(scenario) -> Scenario:
    """``scenario`` — a :class:`Scenario` or a catalog name — as a
    :class:`Scenario`, with every module its seeds import imported."""
    from repro.explore.scenarios import Scenario, get_scenario
    if isinstance(scenario, Scenario):
        return scenario.load()
    return get_scenario(scenario)


def _attempt(scn: Scenario, seed: int, schedule: Optional[FaultSchedule],
             *, monitors: Optional[Sequence], budget: Optional[float],
             capacity: int, explain: bool = False,
             artifacts: bool = False) -> ExploreResult:
    """Build ``scn`` for ``seed`` and run it once; ``monitors`` is
    :func:`run`'s, resolved (classes and instances, or None for every
    monitor).  Lean unless ``explain``: a bare
    :class:`~repro.obs.monitor.MonitorSuite`, which is all a verdict
    (``invariants()`` / ``crash`` / the digest) needs; with ``explain``
    the full ``watch(trace=True)``, a post-mortem and — ``artifacts`` —
    the collectors' snapshots."""
    import contextlib

    from repro.explore.driver import ScheduleDriver
    from repro.explore.schedule import digest_of, generate

    built = scn.build(seed)
    world = built.world
    if schedule is None:
        schedule = generate(seed, built.fault_machines, scn.horizon,
                            scn.profile, scenario=scn.name)
    # History-checked scenarios get a fresh HistoryOracle per attempt (it
    # is bound to this build's recorder, so it is not part of ``kwargs``);
    # it rides with the monitors so a failed check reports through the
    # same violation machinery.
    oracle = scn.history_oracle(built)
    if oracle is not None:
        monitors = list(obs_monitor.DEFAULT_MONITORS if monitors is None
                        else monitors) + [oracle]
    driver = ScheduleDriver(world.sim, world.machines, world.net, schedule)
    horizon = budget if budget is not None else scn.budget
    outcome: Any = None
    crash: Optional[str] = None
    stuck: List[StuckWait] = []
    metrics = recorder = None
    with contextlib.ExitStack() as stack:
        if explain:
            if artifacts:
                from repro.obs.metrics import MetricsCollector
                metrics = stack.enter_context(MetricsCollector(world.sim.bus))
            probe = stack.enter_context(obs_monitor.watch(
                world.sim, monitors=monitors, capacity=capacity,
                trace=True))
            recorder = probe.recorder
            # The post-mortem carries the offending schedule, so a dumped
            # report is replayable on its own (save the "schedule" object
            # to a file and `repro fuzz --replay` it).
            recorder.context = {
                "scenario": scn.name,
                "seed": seed,
                "schedule": schedule.to_dict(),
            }
        else:
            probe = obs_monitor.MonitorSuite(world.sim, monitors)
            stack.callback(probe.detach)
        driver.start()
        try:
            outcome = world.run(built.body(), name="explore-workload",
                                until=horizon)
        except Exception as exc:
            if isinstance(exc, SimulationError) \
                    and "did not finish" in str(exc):
                outcome = "budget-exhausted"
                try:
                    stuck = _stuck_waits(world, built.endpoints,
                                         built.lock_tables)
                except Exception as failed:   # it explains, never decides
                    stuck = [StuckWait("explore", "unclassified", "%s: %s"
                                       % (type(failed).__name__, failed))]
            else:
                crash = "%s: %s" % (type(exc).__name__, exc)
                if recorder is not None:
                    recorder.record_crash(exc, t=world.sim.now)
        driver.stop()
        history_dict = None
        if built.history is not None:
            # Finalize (and, when the scenario names a checker, check)
            # the operation history while the bus is still watched, so a
            # consistency violation lands in the flight recorder too.
            if oracle is not None:
                oracle.check(world.sim.now)
            else:
                built.history.finalize()
            history_dict = built.history.history().to_dict()
        violations = probe.violations
        stats = {
            "virtual_end": round(world.sim.now, 6),
            "packets_sent": world.net.packets_sent,
            "packets_delivered": world.net.packets_delivered,
            "packets_dropped": world.net.packets_dropped,
            "packets_duplicated": world.net.packets_duplicated,
            "machine_failures": driver.total_failures,
            "machine_repairs": driver.total_repairs,
            "faults_applied": [desc for _t, desc in driver.applied],
        }
        if history_dict is not None:
            stats["history_ops"] = len(history_dict["ops"])
            stats["history_digest"] = digest_of(history_dict)
        postmortem = failed_artifacts = None
        if explain:
            postmortem = probe.postmortem()
            if oracle is not None and oracle.result is not None:
                postmortem["lincheck"] = oracle.result.to_dict()
        if metrics is not None:
            from repro.obs.export import openmetrics
            failed_artifacts = {
                "openmetrics": openmetrics(metrics.registry,
                                           critpath=probe.critpath),
                "trace": probe.tracer.to_chrome(),
            }
    return ExploreResult(
        scenario=scn.name, seed=seed, schedule=schedule, outcome=outcome,
        crash=crash, violations=list(violations), postmortem=postmortem,
        stats=stats, artifacts=failed_artifacts, history=history_dict,
        stuck=stuck)


class SweepWorkerDied(RuntimeError):
    """A forked :func:`sweep` worker exited without answering for the
    seed it was running (killed, out of memory, ``os._exit``)."""


def _must_stay_here(kwargs: Dict[str, Any]) -> bool:
    """Would the caller be able to tell forked workers from this process?

    Yes when it passed a monitor *instance* (the state it will read lives
    here), when a profiler, debugger or coverage tool follows this thread
    (none of them follows a fork), and — trivially — when this process
    cannot fork or may not have children."""
    if any(not isinstance(spec, type)
           for spec in kwargs.get("monitors") or ()):
        return True
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    # 3.12+: cProfile, pdb and coverage register here, not with setprofile
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and any(
            monitoring.get_tool(tool) is not None
            for tool in (monitoring.DEBUGGER_ID, monitoring.COVERAGE_ID,
                         monitoring.PROFILER_ID)):
        return True
    import multiprocessing
    return "fork" not in multiprocessing.get_all_start_methods() \
        or multiprocessing.current_process().daemon


def _sweep_worker(conn, scenario, kwargs) -> None:
    """Forked child body: run each seed the parent sends and answer a
    pickled ``(result, error)``; ``None`` ends it."""
    import pickle
    import signal

    # A terminal's Ctrl-C goes to the whole process group; the parent
    # handles it and stops the workers, which should not each die with a
    # traceback of their own.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for seed in iter(conn.recv, None):
        # Pickled inside the ``try`` so that a result no pickle takes (a
        # monitor class defined inside a function, say) reaches the
        # caller as that error instead of as a dead worker.
        try:
            answer = pickle.dumps((run(scenario, seed, **kwargs), None))
        except Exception as exc:  # noqa: BLE001 — re-raised by the parent
            answer = pickle.dumps((None, exc))
        conn.send_bytes(answer)


def _forked_runs(scenario, seeds: List[int], jobs: int,
                 kwargs: Dict[str, Any]) -> Iterator[ExploreResult]:
    """``run(scenario, seed, **kwargs)`` for every seed, in seed order,
    computed by ``jobs`` forked workers.

    The scenario and ``kwargs`` hold closures no pickle takes, so they
    reach the workers by being in memory at ``fork`` — which also hands
    down the hash seed, so set and dict iteration order, and hence every
    digest, is this process's.  Only seeds go down the pipes and results
    come back.  A worker gets its next seed when it answers for the last
    one: seeds differ 10x in cost, and a static split would idle a core.
    An exception out of ``run`` is raised here when its seed's turn
    comes, as in-process.  Every worker is stopped and reaped when the
    generator finishes or is closed.
    """
    import multiprocessing
    import pickle
    from multiprocessing.connection import wait

    # What a seed imports is imported before the fork, so that no worker
    # imports a module of its own: the scenario's came with it
    # (``Scenario.load``), and :func:`_attempt` adds the schedule driver.
    # A failing seed's explaining attempt loads its observers
    # (``watch(trace=True)``) in the worker that explains it: every
    # sweep would otherwise carry them, and most explain nothing.
    from repro.explore import driver  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    workers = {}                 # connection -> process, every one started
    running = {}                 # connection -> turn of the seed it has
    answers = {}                 # turn -> (result, error), not yet its turn
    todo = iter(enumerate(seeds))

    def hand_out(conn) -> None:
        turn, seed = next(todo, (None, None))
        conn.send(seed)          # ``None`` once the seeds are out
        if seed is None:
            del running[conn]
        else:
            running[conn] = turn

    try:
        for _ in range(jobs):
            conn, theirs = ctx.Pipe()
            workers[conn] = ctx.Process(
                target=_sweep_worker, args=(theirs, scenario, kwargs),
                daemon=True)
            workers[conn].start()
            theirs.close()
            hand_out(conn)
        for turn in range(len(seeds)):
            while turn not in answers:
                for conn in wait(list(running)):
                    try:
                        answers[running[conn]] = pickle.loads(
                            conn.recv_bytes())
                        hand_out(conn)
                    except (EOFError, OSError):
                        workers[conn].join(timeout=5)
                        raise SweepWorkerDied(
                            "sweep worker died running seed %d (exit code "
                            "%s)" % (seeds[running[conn]],
                                     workers[conn].exitcode)) from None
            result, error = answers.pop(turn)
            if error is not None:
                raise error
            yield result
    finally:
        # Workers told ``None`` are exiting on their own; anything still
        # holding a seed (an error, an early close) is stopped.
        for conn, proc in workers.items():
            if conn in running:
                proc.terminate()
            conn.close()
            proc.join()


def sweep(scenario, seeds: Iterable[int], progress=None,
          jobs: Optional[int] = None, **kwargs) -> List[ExploreResult]:
    """Run many seeds; returns every result, in seed order (``.ok``
    filters).

    A seed is a world of its own, so the seeds run on ``jobs`` forked
    workers — by default one per CPU available to this process, never
    more than there are seeds — and every result, digest and progress
    row is the one an in-process sweep produces.  The sweep stays in this
    process whenever the caller could observe the difference
    (:func:`_must_stay_here`): notably a monitor *instance* in
    ``monitors=`` is attached to every seed's world in turn and keeps its
    ``violations`` across them — one violation fails every later seed —
    so pass classes unless that shared state is the point.  No worker
    outlives the call.

    Progress is published per seed through ``progress`` (default: the
    shared :data:`repro.obs.export.PROGRESS` channel), so a concurrent
    ``repro top`` — or any listener — can watch the sweep advance; the
    row is dropped when the sweep ends, however it ends.
    """
    if progress is None:
        from repro.obs.export import PROGRESS as progress
    seeds = list(seeds)
    scenario = _scenario(scenario)
    task = "fuzz.%s" % scenario.name
    jobs = min(available_cpus() if jobs is None else jobs, len(seeds))
    if jobs > 1 and not _must_stay_here(kwargs):
        runs = _forked_runs(scenario, seeds, jobs, kwargs)
    else:
        runs = (run(scenario, seed, **kwargs) for seed in seeds)
    results: List[ExploreResult] = []
    failures = 0
    try:
        for seed, result in zip(seeds, runs):
            results.append(result)
            failures += 0 if result.ok else 1
            progress.publish(task, done=len(results), total=len(seeds),
                             failures=failures, seed=seed)
    finally:
        runs.close()
        progress.finish(task)
    return results


def shrink_failure(result: ExploreResult,
                   max_attempts: int = 300,
                   ) -> Tuple[FaultSchedule, int]:
    """Minimize a failing result's schedule; returns ``(schedule,
    attempts)``.  A candidate *reproduces* when it triggers at least one
    of the original failure's invariants (or, for a crash, any crash) —
    every accepted candidate was re-run and observed to still fail, so
    the shrunken schedule is guaranteed violating.  Candidates are run
    for their verdict only (no flight recorder, tracer or second
    attempt); :func:`run` or ``repro fuzz --replay`` the shrunken
    schedule for its post-mortem."""
    if result.ok:
        raise ValueError("cannot shrink a passing result")
    scn = _scenario(result.scenario)
    target = set(result.invariants())
    want_crash = result.crash is not None

    def reproduces(actions: List[FaultAction]) -> bool:
        rerun = _attempt(scn, result.seed,
                         result.schedule.with_actions(actions),
                         **result._kwargs)
        if want_crash and rerun.crash is not None:
            return True
        return bool(target & set(rerun.invariants()))

    from repro.explore.shrink import shrink_actions
    actions, attempts = shrink_actions(result.schedule.actions, reproduces,
                                       max_attempts=max_attempts)
    return result.schedule.with_actions(actions), attempts


def replay_file(path, *, budget: Optional[float] = None,
                oracles: Optional[Sequence[str]] = None,
                monitors: Optional[Sequence] = None) -> ExploreResult:
    """Re-run the schedule stored in a repro file (see
    :meth:`FaultSchedule.save`); the scenario and seed come from the
    file itself."""
    from repro.explore.schedule import FaultSchedule
    schedule = FaultSchedule.load(path)
    return run(schedule.scenario, schedule.seed, schedule=schedule,
               budget=budget, oracles=oracles, monitors=monitors)


def write_failure(result: ExploreResult, directory: str,
                  schedule: Optional[FaultSchedule] = None, *,
                  artifacts: Optional[str] = None,
                  histories: Optional[str] = None) -> Dict[str, str]:
    """Write a failing seed's files, ``<scenario>-seed<N>.<kind>.<ext>``,
    and return their paths by kind: in ``directory`` the repro script
    (``schedule``, by default the result's own) and the post-mortem; in
    ``artifacts`` the OpenMetrics snapshot and Chrome trace (and their
    common stem, as ``"artifacts"``); in ``histories`` the history."""
    import json
    import os

    from repro.obs.history import canonical_dumps

    stem = "%s-seed%d" % (result.scenario, result.seed)
    paths: Dict[str, str] = {}

    def write(kind: str, folder: str, ext: str, payload) -> None:
        os.makedirs(folder, exist_ok=True)
        paths[kind] = os.path.join(folder, "%s.%s.%s" % (stem, kind, ext))
        with open(paths[kind], "w") as fh:
            fh.write(payload if isinstance(payload, str)
                     else json.dumps(payload, indent=2) + "\n")

    write("schedule", directory, "json",
          (schedule or result.schedule).to_dict())
    if result.postmortem is not None:
        write("postmortem", directory, "json", result.postmortem)
    if artifacts and result.artifacts is not None:
        write("openmetrics", artifacts, "txt",
              result.artifacts["openmetrics"])
        write("trace", artifacts, "json", result.artifacts["trace"])
        paths["artifacts"] = os.path.join(artifacts, stem)
    if histories and result.history is not None:
        write("history", histories, "json", canonical_dumps(result.history))
    return paths


def schedules(n: int = 50, base: int = 0, argname: str = "fault_seed"):
    """Parameterize a pytest test over ``n`` fuzz seeds::

        @explore.schedules(n=50)
        def test_echo_fuzz(fault_seed, fuzz):
            fuzz.check("echo", fault_seed)

    The ``fuzz`` fixture (``repro.explore.pytest_plugin``) runs the seed
    and, on failure, writes the repro script and fails the test with the
    ``repro fuzz --replay`` command line.
    """
    import pytest

    def decorate(fn):
        return pytest.mark.parametrize(argname,
                                       list(range(base, base + n)))(fn)
    return decorate
