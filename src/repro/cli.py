"""Command-line interface: ``python -m repro <command>`` (``--help``
lists them).

Every command is one :data:`COMMANDS` entry: its help, its run function
and its arguments.  ``table41``, ``table42``, ``table43`` and ``fig48``
print the tables ``repro.bench.echo`` builds for the benchmark suite,
which gates them against ``BENCH_BASELINE.json``: at the default loop
length, the very tables gated.  ``trace``, ``metrics``, ``critpath``,
``top`` and ``check`` drive the observability layer
(docs/OBSERVABILITY.md) over one canned scenario of
``repro.bench.scenarios``.
"""

from __future__ import annotations

import argparse
import json
import sys

# A command imports what it runs, inside the command: ``repro --help``
# and ``repro fuzz`` load no benchmark or analysis module
# (tests/test_import_footprint.py).


class CliError(Exception):
    """Bad user input; :func:`main` prints it as ``repro: <message>`` on
    stderr and exits 2."""


def _load_json(path: str, parse=None):
    """Read a user-supplied JSON file and hand its content to ``parse``;
    a missing file, malformed JSON or the wrong shape all become one
    :class:`CliError` naming the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return data if parse is None else parse(data)
    except OSError as exc:
        raise CliError("%s: %s" % (path, exc.strerror)) from None
    except json.JSONDecodeError as exc:
        raise CliError("%s: not JSON (%s)" % (path, exc)) from None
    except KeyError as exc:
        raise CliError("%s: missing field %s" % (path, exc)) from None
    except (TypeError, ValueError) as exc:
        raise CliError("%s: %s" % (path, exc)) from None


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _measured(builder: str, gated: int, text: str):
    """The command printing the tables ``repro.bench.echo.<builder>``
    builds, at ``--iterations`` or the gated loop length."""
    def run(args) -> None:
        from repro.bench import echo
        tables, _results = getattr(echo, builder)(args.iterations or gated)
        for table in tables:
            print(table.render())
    return "print " + text, run, [_arg(
        "--iterations", type=int,
        help="measurement loop length (default %d, as gated)" % gated)]


def cmd_multicast(args) -> None:
    from repro.analysis import expected_max_exponential
    from repro.bench.report import Table

    table = Table("Sec 4.4.2: E[T] = H_n * r (r = 50 ms)",
                  ["n", "H_n*r"])
    for n in (1, 2, 4, 8, 16, 32):
        table.add_row(n, expected_max_exponential(n, 50.0))
    print(table.render())
    print("\n(run `pytest benchmarks/bench_multicast_logn.py` for the "
          "simulated comparison)")


def cmd_deadlock(args) -> None:
    from repro.analysis import deadlock_probability
    from repro.bench.report import Table

    table = Table("Eq 5.1: P[deadlock] = 1 - (1/k!)^(n-1)",
                  ["k \\ n"] + ["n=%d" % n for n in (1, 2, 3, 4)])
    for k in (1, 2, 3, 4, 5):
        table.add_row("k=%d" % k, *[deadlock_probability(k, n)
                                    for n in (1, 2, 3, 4)])
    print(table.render())


def cmd_availability(args) -> None:
    from repro.analysis import availability, required_repair_time
    from repro.bench.report import Table

    table = Table("Eq 6.1: availability A = 1 - (lam/(lam+mu))^n",
                  ["n", "A (1/lam=50, 1/mu=25)",
                   "required 1/mu for A=0.999 (lifetime 60)"])
    for n in (1, 2, 3, 5, 7):
        table.add_row(n, availability(n, 1 / 50.0, 1 / 25.0),
                      required_repair_time(n, 60.0, 0.999))
    print(table.render())
    print("\nPaper's worked example: n=3, 1-hour lifetime, 99.9%% => "
          "replace within %.2f minutes (6 min 40 s)"
          % required_repair_time(3, 60.0, 0.999))


def cmd_all(args) -> None:
    for name in sorted(EXPERIMENTS):
        COMMANDS[name][1](args)


#: the canned scenarios of :mod:`repro.bench.scenarios`; ``circus`` runs
#: ``--iterations`` calls.
SCENARIOS = ("quickstart", "protocol_trace", "circus", "lossy")


def _scenario_name(target: str) -> str:
    """A scenario argument — a bare name or a path such as
    ``examples/quickstart.py`` — as a name."""
    name = target.replace("\\", "/").rstrip("/").rsplit("/", 1)[-1]
    return name[:-3] if name.endswith(".py") else name


def _build(name: str, iterations: int):
    """``(world, body)`` of the canned scenario ``name``."""
    from repro.bench import scenarios
    factory = getattr(scenarios, name)
    return factory(iterations) if name == "circus" else factory()


def cmd_trace(args) -> None:
    from repro.obs import trace_calls

    world, body = _build(args.scenario, args.iterations)
    with trace_calls(world.sim) as tracer:
        world.run(body())
    out = args.out or ("%s_trace.json" % args.scenario)
    payload = tracer.to_chrome()
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print("traced %d replicated call(s), %d replica execution(s)"
          % (len(tracer.calls), sum(len(c.execs) for c in tracer.calls)))
    print("%d trace events -> %s (load in chrome://tracing or Perfetto)"
          % (len(payload["traceEvents"]), out))


def cmd_metrics(args) -> None:
    from repro.bench.report import Table
    from repro.obs import (SCHEMA_VERSION, CritPathAnalyzer,
                           MetricsCollector, openmetrics)

    world, body = _build(args.scenario, args.iterations)
    with MetricsCollector(world.sim.bus) as collector:
        if args.openmetrics:
            with CritPathAnalyzer(world.sim) as critpath:
                world.run(body())
                exposition = openmetrics(collector.registry,
                                         critpath=critpath)
        else:
            world.run(body())
    if args.openmetrics:
        print(exposition, end="")
    elif args.json:
        # the {"tables": [...]} shape --bench-json writes; key-sorted, so
        # two same-seed runs are byte-identical
        table = Table("metrics: %s" % args.scenario, ["metric", "value"])
        for key, value in collector.registry.snapshot().items():
            table.add_row(key, value)
        _print_json({"schema_version": SCHEMA_VERSION,
                     "tables": [table.to_dict()]})
    else:
        print(collector.registry.render())


def cmd_critpath(args) -> None:
    from repro.obs import SCHEMA_VERSION, CritPathAnalyzer

    world, body = _build(args.scenario, args.iterations)
    with CritPathAnalyzer(world.sim) as critpath:
        world.run(body())
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION,
                   "workload": args.scenario,
                   "report": critpath.report()}
        if args.per_call:
            payload["calls"] = [p.to_dict() for p in critpath.paths()]
        _print_json(payload)
        return
    print(critpath.render())
    if args.per_call:
        for path in critpath.paths():
            d = path.to_dict()
            print("%-24s #%-4d %8.3f ms  dominant=%s%s" % (
                d["call"], d["call_number"], d["duration_ms"],
                d["dominant"], "  [degraded]" if d["degraded"] else ""))


def cmd_top(args) -> int:
    from repro.obs.top import live_top

    world, body = _build(args.scenario, args.iterations)
    final = live_top(world, body(), slice_ms=args.slice,
                     max_frames=args.frames,
                     use_curses=not args.plain)
    print("final: t=%.1f ms, %d violation(s), troupes=%s"
          % (final["now"], final["violations"],
             ", ".join("%s:%d" % (name, row["done"])
                       for name, row in final["troupes"].items()) or "-"))
    return 1 if final["violations"] else 0


def _check_one(name: str, iterations: int, dump_dir: str) -> int:
    """Run one scenario under the monitor suite; dump + report on any
    violation or crash.  Returns the number of violations found."""
    import os

    from repro.obs.monitor import watch
    from repro.obs.recorder import render_postmortem

    world, body = _build(name, iterations)
    crashed = None
    with watch(world.sim, trace=True) as probe:
        try:
            world.run(body())
        except Exception as exc:   # recorded by watch() via re-raise path
            probe.recorder.record_crash(exc, t=world.sim.now)
            crashed = exc
    violations = probe.violations
    if not violations and crashed is None:
        print("check %-16s ok (%d events stamped, %d monitors silent)"
              % (name, probe.clocks.stamped, len(probe.suite.monitors)))
        return 0
    os.makedirs(dump_dir, exist_ok=True)
    path = os.path.join(dump_dir, "%s_postmortem.json" % name)
    report = probe.dump(path)
    print(render_postmortem(report))
    print("check %-16s FAILED: %d violation(s)%s -> %s"
          % (name, len(violations),
             ", crashed: %r" % crashed if crashed is not None else "",
             path))
    return max(len(violations), 1)


def cmd_check(args) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    failures = [_check_one(name, args.iterations, args.dump_dir)
                for name in names]
    return 1 if any(failures) else 0


def cmd_postmortem(args) -> int:
    from repro.obs.recorder import render_postmortem

    report = _load_json(args.dump)
    print(render_postmortem(report))
    return 1 if (report.get("violations") or report.get("crash")) else 0


def cmd_lincheck(args) -> int:
    from repro.obs.history import OperationHistory, format_operation
    from repro.obs.lincheck import check_history

    history = _load_json(args.history, OperationHistory.from_dict)
    result = check_history(history, semantics=args.semantics or None)
    if args.json:
        _print_json(result.to_dict())
        return 0 if result.ok else 1
    print("history: %s (scenario %s, seed %d, %d operation(s))"
          % (args.history, history.scenario or "?", history.seed,
             len(history)))
    if result.ok:
        print("%s: OK — %d operation(s) checked"
              % (result.semantics, result.checked))
        return 0
    print("%s: VIOLATION — %s" % (result.semantics, result.reason))
    if result.key is not None:
        print("key: %r" % result.key)
    print("minimal violating sub-history (%d operation(s)):"
          % len(result.violation))
    for op in result.violation:
        print("  " + format_operation(op.to_dict()))
    return 1


def _fuzz_seeds(args):
    if args.seed_file:
        return _load_json(args.seed_file, lambda data: [
            int(s) for s in (data["seeds"] if isinstance(data, dict)
                             else data)])
    return list(range(args.base_seed, args.base_seed + args.seeds))


def _fuzz_oracles(args):
    if not args.oracles:
        return None
    if args.oracles.strip() == "none":
        # Disable every online monitor (offline history checkers still
        # run — they are driven by the scenario's ``checker``, not by
        # this list): the "is the bug visible to clients at all?" mode.
        return []
    from repro.obs.monitor import monitors_for

    oracles = [name.strip() for name in args.oracles.split(",")
               if name.strip()]
    try:
        monitors_for(oracles)
    except KeyError as exc:
        raise CliError("--oracles: %s" % exc.args[0]) from None
    return oracles


def cmd_fuzz(args) -> int:
    """Seeded fault-schedule fuzzing: sweep, shrink, replay.

    Everything printed under ``--json`` is deterministic — two identical
    invocations must produce byte-identical output (the property the CI
    smoke job checks by diffing the digests of two runs).
    """
    from repro import explore
    from repro.obs.export import SCHEMA_VERSION
    from repro.obs.recorder import render_postmortem

    oracles = _fuzz_oracles(args)

    if args.list_scenarios:
        from repro.bench.report import Table
        table = Table("fuzz scenarios", ["name", "machines-faulted",
                                         "horizon", "description"])
        for name, scn in sorted(explore.SCENARIOS.items()):
            table.add_row(name, "servers", scn.horizon, scn.description)
        print(table.render())
        return 0

    if args.replay:
        schedule = _load_json(args.replay, explore.FaultSchedule.from_dict)
        result = explore.run(schedule.scenario, schedule.seed,
                             schedule=schedule, budget=args.budget,
                             oracles=oracles)
        print("replay %s: %s" % (args.replay, result.summary()))
        print("digest: %s" % result.digest())
        for wait in result.stuck:
            print("stuck: %s" % wait)
        if not result.ok and result.postmortem is not None:
            print(render_postmortem(result.postmortem))
        return 0 if result.ok else 1

    try:
        scenario = explore.get_scenario(args.scenario)
    except KeyError as exc:
        raise CliError("--scenario: %s" % exc.args[0]) from None
    seeds = _fuzz_seeds(args)
    results = []
    failures = []
    for result in explore.sweep(scenario, seeds, jobs=args.jobs,
                                budget=args.budget, oracles=oracles,
                                artifacts=bool(args.artifacts)):
        entry = {
            "seed": result.seed,
            "ok": result.ok,
            "digest": result.digest(),
            "actions": len(result.schedule.actions),
            "invariants": result.invariants(),
            "crash": result.crash,
        }
        if not result.ok:
            failures.append((result, entry))
            if not args.json:
                print(result.summary())
        results.append(entry)

    for result, entry in failures:
        schedule = result.schedule
        if args.shrink:
            schedule, attempts = explore.shrink_failure(
                result, max_attempts=args.shrink_attempts)
            entry["shrunk_actions"] = len(schedule.actions)
            entry["shrink_attempts"] = attempts
        paths = explore.write_failure(
            result, args.out_dir, schedule, artifacts=args.artifacts,
            histories=args.history_artifacts)
        entry["repro_file"] = paths["schedule"]
        if "artifacts" in paths:
            entry["artifact_stem"] = paths["artifacts"]
        if "history" in paths:
            entry["history_file"] = paths["history"]
        if not args.json:
            print("  repro script: %s" % entry["repro_file"])
            print("  replay with:  repro fuzz --replay %s"
                  % entry["repro_file"])

    sweep_digest = explore.digest_of([entry["digest"] for entry in results])
    if args.json:
        _print_json({
            "format": "repro.fuzz.sweep/1",
            "schema_version": SCHEMA_VERSION,
            "scenario": scenario.name,
            "oracles": oracles,
            "seeds": len(seeds),
            "failures": len(failures),
            "digest": sweep_digest,
            "results": results,
        })
    else:
        print("fuzz %-16s %d seed(s), %d failure(s)"
              % (scenario.name, len(seeds), len(failures)))
        print("sweep digest: %s" % sweep_digest)
    return 1 if failures else 0


def cmd_perf(args) -> None:
    """A viewer of the work tables of ``repro.bench.gated``, which
    ``benchmarks/compare.py`` gates.  No wall clock is read (that is
    ``python3 -m wallbench``'s job): two runs of ``--json`` are
    byte-identical."""
    from repro.bench import gated
    from repro.obs.export import SCHEMA_VERSION

    tables = gated.all_gated_tables(args.iterations)
    if args.json:
        _print_json({"schema_version": SCHEMA_VERSION,
                     "tables": [table.to_dict() for table in tables]})
    else:
        for table in tables:
            print(table.render())
    if args.profile:
        import cProfile

        world, body = _build("circus", args.iterations)
        profiler = cProfile.Profile()
        profiler.enable()
        world.run(body())
        profiler.disable()
        profiler.dump_stats(args.profile)
        print("\ncProfile of circus-%d written to %s "
              "(inspect with `python -m pstats %s`)"
              % (args.iterations, args.profile, args.profile))


def cmd_shard(args) -> int:
    """Run the capacity workload across shard kernels and report the
    merged, deterministic result; with ``--reference`` verify the
    byte-identical-digest contract against the 1-shard run.  The
    ``--json`` payload contains only deterministic fields, so two runs
    of the same seed must serialize identically (the CI shard-smoke
    job ``cmp``'s them)."""
    from repro.bench.workloads import capacity_builder, capacity_cell_size
    from repro.sim.sharded import run_sharded

    try:
        capacity_cell_size(args.machines, args.cells, args.degree)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    builder = capacity_builder(
        cells=args.cells, sessions=args.sessions,
        calls_per_session=args.calls, rate=args.rate,
        degree=args.degree, arrival=args.arrival, seed=args.seed)
    result = run_sharded(builder, machines=args.machines,
                         shards=args.shards, seed=args.seed,
                         horizon=args.horizon, mode=args.mode)
    status = 0
    payload = result.to_json_dict()
    if args.reference:
        reference = run_sharded(builder, machines=args.machines, shards=1,
                                seed=args.seed, horizon=args.horizon)
        payload["reference_digest"] = reference.digest
        payload["digest_matches_reference"] = \
            result.digest == reference.digest
        if not payload["digest_matches_reference"]:
            status = 1
    if args.json:
        _print_json(payload)
        return status
    calls = result.counters.get("calls_completed", 0)
    print("shards-%d (%s): %d calls to t=%.0f ms"
          % (result.shards, result.mode, calls, result.horizon))
    print("  digest          %s" % result.digest)
    print("  net events      %d   sync windows %d" %
          (result.events, result.windows))
    print("  cross-shard     %d envelopes (%.2f/call)"
          % (result.cross_shard_messages,
             result.cross_shard_messages / calls if calls else 0.0))
    print("  balance         %s of net events"
          % " / ".join("%.1f %%" % (100.0 * events / result.events)
                       for events in result.shard_events))
    print("  packets         sent %d  delivered %d  dropped %d"
          % (result.network["packets_sent"],
             result.network["packets_delivered"],
             result.network["packets_dropped"]))
    if result.samples.get("latency_ms"):
        print("  latency ms      mean %.1f  p90 %.1f  p99 %.1f"
              % (sum(result.samples["latency_ms"])
                 / len(result.samples["latency_ms"]),
                 result.percentile("latency_ms", 0.9),
                 result.percentile("latency_ms", 0.99)))
    if args.reference:
        print("  reference       digest %s (%s)"
              % (payload["reference_digest"],
                 "MATCH" if payload["digest_matches_reference"]
                 else "MISMATCH"))
    return status


def cmd_elastic(args) -> None:
    """Run the §6.4.2 availability experiment under the autoscaler and
    report measured vs predicted (M/M/n/n) availability.  The ``--json``
    payload is wholly virtual-time-deterministic: two runs of the same
    seed serialize byte-identically under any ``PYTHONHASHSEED``
    (``tests/test_determinism_end_to_end.py``)."""
    from repro.elastic.scenario import payload_json, run_elastic

    if args.pool < 2:
        raise CliError("--pool %d: the member pool needs at least 2 "
                       "machines" % args.pool)
    payload = run_elastic(seed=args.seed, pool=args.pool,
                          duration=args.duration, mttf=args.mttf,
                          mttr=args.mttr)
    if args.json:
        sys.stdout.write(payload_json(payload))
        return
    calls = payload["calls"]
    avail = payload["availability"]
    membership = payload["membership"]
    print("elastic: pool=%d seed=%d, %.0f ms virtual "
          "(mttf %.0f ms, mttr %.0f ms)"
          % (payload["pool"], payload["seed"], payload["duration_ms"],
             payload["mttf_ms"], payload["mttr_ms"]))
    print("  calls           %d ok, %d failed  (p50 %.1f ms, p99 %.1f ms)"
          % (calls["ok"], calls["failed"], calls["p50_ms"], calls["p99_ms"]))
    print("  availability    machine %.6f measured vs %.6f M/M/n/n "
          "(delta %+.6f)"
          % (avail["measured_machine"], avail["predicted_mmnn"],
             avail["machine_delta"]))
    print("  troupe uptime   %.6f (reconfiguration lag)"
          % avail["measured_troupe"])
    print("  membership      %d joins, %d removes, %d cold restarts, "
          "%d failed ops; final %s"
          % (membership["joins"], membership["removes"],
             membership["cold_restarts"], membership["failed_ops"],
             ",".join(membership["final_members"]) or "-"))
    print("  machine churn   %d failures, %d repairs"
          % (payload["failures"]["machine_failures"],
             payload["failures"]["machine_repairs"]))
    print("  critpath        %d calls (%d degraded), dominant %s"
          % (payload["critpath"]["calls"],
             payload["critpath"]["degraded_calls"],
             payload["critpath"]["dominant"]))


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    """One argument declaration: what ``add_argument`` takes."""
    return flags, options


def _scenario(default=None, iterations=30, choices=SCENARIOS):
    """The canned-scenario positional, and the ``--iterations`` it
    brings for ``circus``."""
    optional = dict(nargs="?", default=default) if default else {}
    return [_arg("scenario", type=_scenario_name, choices=choices,
                 help="canned scenario, by name or as a path such as "
                      "examples/quickstart.py", **optional),
            _arg("--iterations", type=int, default=iterations,
                 help="calls for the circus scenario (default %d)"
                      % iterations)]


JSON = _arg("--json", action="store_true",
            help="print deterministic JSON (byte-identical across reruns)")


#: the paper's experiments (``repro all`` runs every one) ...
EXPERIMENTS = {
    "table41": _measured("table_4_1", 40,
                         "Table 4.1 (UDP, TCP and Circus ms per call)"),
    "table42": _measured("table_4_2", 100,
                         "Table 4.2 (syscall CPU costs, measured back)"),
    "table43": _measured("table_4_3", 30,
                         "Table 4.3 (the Circus execution profile)"),
    "fig48": _measured("figure_4_8", 30,
                       "Figure 4.8 (call time vs degree, with its fit)"),
    "multicast": ("print the Sec 4.4.2 E[T] = H_n * r analysis",
                  cmd_multicast, []),
    "deadlock": ("print the Eq 5.1 deadlock probabilities",
                 cmd_deadlock, []),
    "availability": ("print the Eq 6.1 / 6.2 availability analysis",
                     cmd_availability, []),
}

#: ... and every command: name -> (help, run function, arguments).
COMMANDS = dict(EXPERIMENTS, **{
    "all": ("run every experiment", cmd_all, [
        _arg("--iterations", type=int,
             help="measurement loop length (default: each one's gated)")]),
    "trace": ("run a scenario with call tracing; write Chrome "
              "trace_event JSON", cmd_trace, _scenario() + [
                  _arg("--out", help="output path (default "
                                     "<scenario>_trace.json)")]),
    "metrics": ("run a scenario with the metrics collector; print the "
                "snapshot", cmd_metrics, _scenario() + [
                    JSON,
                    _arg("--openmetrics", action="store_true",
                         help="emit the snapshot in OpenMetrics text "
                              "format (with time-series rates)")]),
    "critpath": ("decompose each replicated call's latency into named "
                 "critical-path stages", cmd_critpath,
                 _scenario("circus", 200) + [
                     JSON,
                     _arg("--per-call", action="store_true",
                          help="also list every call's breakdown")]),
    "top": ("live view of a running scenario: per-troupe call rates, "
            "stage breakdown, violations, task progress", cmd_top,
            _scenario("circus", 200) + [
                _arg("--slice", type=float, default=50.0,
                     help="virtual ms simulated per frame (default 50)"),
                _arg("--frames", type=int,
                     help="stop after N frames (default: run to the end)"),
                _arg("--plain", action="store_true",
                     help="re-print frames instead of the curses UI "
                          "(automatic when stdout is not a tty)")]),
    "check": ("run a scenario (or all) under the invariant monitors; exit "
              "nonzero (with a post-mortem dump) on any violation",
              cmd_check, _scenario(choices=SCENARIOS + ("all",)) + [
                  _arg("--dump-dir", default=".",
                       help="where post-mortem dumps go (default .)")]),
    "postmortem": ("render a post-mortem dump written by 'repro check'",
                   cmd_postmortem,
                   [_arg("dump", help="a *_postmortem.json file")]),
    "fuzz": ("explore seeded fault schedules under the invariant "
             "monitors; shrink and dump failures as replayable repro "
             "scripts", cmd_fuzz, [
                 _arg("--scenario", default="echo",
                      help="workload to fuzz (see --list; default echo)"),
                 _arg("--seeds", type=int, default=50,
                      help="number of seeds to sweep (default 50)"),
                 _arg("--base-seed", type=int, default=0,
                      help="first seed of the sweep (default 0)"),
                 _arg("--seed-file", metavar="PATH",
                      help="JSON seed corpus ([..] or {\"seeds\": [..]}); "
                           "overrides --seeds/--base-seed"),
                 _arg("--jobs", type=int, metavar="N",
                      help="forked workers (default: one per available "
                           "CPU; 1 stays in this process); the output is "
                           "the same for every N"),
                 _arg("--budget", type=float,
                      help="virtual ms per run (default: the scenario's)"),
                 _arg("--oracles", help="comma-separated invariant slugs "
                      "(default: the scenario's; none: no monitor)"),
                 _arg("--shrink", action="store_true",
                      help="minimize failing schedules before writing "
                           "their repro scripts"),
                 _arg("--shrink-attempts", type=int, default=200,
                      help="re-run budget per shrink (default 200)"),
                 _arg("--out-dir", default="fuzz-out",
                      help="where repro scripts and post-mortems go "
                           "(default fuzz-out)"),
                 _arg("--artifacts", metavar="DIR",
                      help="also write failing seeds' OpenMetrics "
                           "snapshots and Chrome traces to DIR"),
                 _arg("--history-artifacts", metavar="DIR",
                      help="also write failing seeds' checked operation "
                           "histories (for 'repro lincheck') to DIR"),
                 JSON,
                 _arg("--replay", metavar="PATH",
                      help="re-run one repro script instead of sweeping"),
                 _arg("--list", dest="list_scenarios", action="store_true",
                      help="list the scenario catalog and exit")]),
    "lincheck": ("check a saved operation history offline for "
                 "linearizability / strict serializability", cmd_lincheck, [
                     _arg("history", help="a repro.history/1 JSON file "
                                          "(see fuzz --history-artifacts)"),
                     _arg("--semantics", choices=["register", "list-append",
                                                  "bank", "total-order"],
                          help="checker semantics (default: the history's)"),
                     JSON]),
    "perf": ("view the deterministic work-per-call tables (gated in "
             "BENCH_BASELINE.json; wall-clock numbers: python3 -m "
             "wallbench)", cmd_perf, [
                 _arg("--iterations", type=int, default=200,
                      help="circus calls behind the circus rows (default "
                           "200, as gated)"),
                 JSON,
                 _arg("--profile", metavar="PATH",
                      help="also cProfile the circus workload into PATH")]),
    "shard": ("run the capacity workload across shard kernels with "
              "conservative-lookahead exchange (repro.sim.sharded)",
              cmd_shard, [
                  _arg("--shards", type=int, default=2,
                       help="shard kernels the hosts split over (default 2)"),
                  _arg("--machines", type=int, default=12,
                       help="hosts in the world (default 12)"),
                  _arg("--cells", type=int, default=4,
                       help="machine cells, one echo troupe each "
                            "(default 4; must divide --machines)"),
                  _arg("--sessions", type=int, default=24,
                       help="client sessions (default 24)"),
                  _arg("--degree", type=int, default=3,
                       help="troupe members per cell (default 3)"),
                  _arg("--calls", type=int, default=3,
                       help="calls per session (default 3)"),
                  _arg("--rate", type=float, default=40.0,
                       help="per-session offered calls/sec (default 40)"),
                  _arg("--arrival", default="pareto",
                       choices=["fixed", "poisson", "pareto"],
                       help="interarrival process (default pareto)"),
                  _arg("--horizon", type=float, default=3000.0,
                       help="virtual-time horizon in ms (default 3000)"),
                  _arg("--seed", type=int, default=7),
                  _arg("--mode", default="inproc",
                       choices=["inproc", "process"],
                       help="step every shard here, or shard 0 here and "
                            "each other in a forked process (default "
                            "inproc)"),
                  _arg("--reference", action="store_true",
                       help="also run the 1-shard reference; fail unless "
                            "the packet digests are identical"),
                  JSON]),
    "elastic": ("run the autoscaled availability experiment "
                "(repro.elastic) and compare measured vs M/M/n/n "
                "predicted availability", cmd_elastic, [
                    _arg("--pool", type=int, default=4,
                         help="member-pool machines the failure process "
                              "churns (default 4, at least 2)"),
                    _arg("--duration", type=float, default=30000.0,
                         help="experiment length, virtual ms (default "
                              "30000)"),
                    _arg("--mttf", type=float, default=8000.0,
                         help="mean machine lifetime, virtual ms (default "
                              "8000)"),
                    _arg("--mttr", type=float, default=1200.0,
                         help="mean machine repair time, virtual ms "
                              "(default 1200)"),
                    _arg("--seed", type=int, default=0),
                    JSON]),
})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Replicated Distributed "
                    "Programs' (Cooper, 1985).")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, (text, run, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.set_defaults(run=run)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
    args = parser.parse_args(argv)
    try:
        return args.run(args) or 0
    except CliError as exc:
        print("repro: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
