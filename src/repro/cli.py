"""Command-line interface: run the paper's experiments directly.

    python -m repro table41            # UDP/TCP/Circus ms-per-call
    python -m repro table42            # syscall cost model
    python -m repro table43            # execution profile
    python -m repro fig48              # linearity series + fit
    python -m repro multicast          # the H_n * r analysis
    python -m repro deadlock           # Eq 5.1 Monte-Carlo
    python -m repro availability       # Eq 6.1/6.2
    python -m repro all                # everything above

    python -m repro trace examples/quickstart      # Chrome trace JSON
    python -m repro metrics quickstart             # metrics snapshot

Each experiment command prints a paper-vs-measured table (the same ones
the benchmark suite registers); ``trace`` and ``metrics`` drive the
observability layer (docs/OBSERVABILITY.md) over a canned scenario.
"""

from __future__ import annotations

import argparse
import json
import sys

# A command imports what it runs, inside the command: ``repro --help``
# and ``repro fuzz`` load no benchmark or analysis module
# (tests/test_import_footprint.py).


def cmd_table41(args) -> None:
    from repro.bench.echo import (PAPER_TABLE_4_1, run_circus_series,
                                  run_tcp_echo, run_udp_echo)
    from repro.bench.report import Table

    iterations = args.iterations
    table = Table("Table 4.1: Performance of UDP, TCP, and Circus (ms/rpc)",
                  ["workload", "real(paper)", "real(sim)", "total(paper)",
                   "total(sim)", "user(sim)", "kernel(sim)"])
    udp = run_udp_echo(iterations)
    tcp = run_tcp_echo(iterations)
    table.add_row("UDP", PAPER_TABLE_4_1["UDP"]["real"], udp.real,
                  PAPER_TABLE_4_1["UDP"]["total"], udp.total, udp.user,
                  udp.kernel)
    table.add_row("TCP", PAPER_TABLE_4_1["TCP"]["real"], tcp.real,
                  PAPER_TABLE_4_1["TCP"]["total"], tcp.total, tcp.user,
                  tcp.kernel)
    for result in run_circus_series(iterations=iterations):
        degree = int(result.label[len("Circus("):-1])
        paper = PAPER_TABLE_4_1[degree]
        table.add_row(result.label, paper["real"], result.real,
                      paper["total"], result.total, result.user,
                      result.kernel)
    print(table.render())


def cmd_table42(args) -> None:
    from repro.bench.echo import PAPER_TABLE_4_2
    from repro.bench.report import Table
    from repro.harness import World

    table = Table("Table 4.2: syscall CPU costs (ms)",
                  ["syscall", "paper", "simulated"])
    world = World(machines=1)
    proc = world.machines[0].spawn_process("m")

    def measure(name):
        def body():
            start = world.sim.now
            yield from proc.syscall(name)
            return world.sim.now - start
        return world.run(body())

    for name, paper_cost in PAPER_TABLE_4_2.items():
        table.add_row(name, paper_cost, measure(name))
    print(table.render())


def cmd_table43(args) -> None:
    from repro.bench.echo import PAPER_TABLE_4_3, run_circus_series
    from repro.bench.report import Table

    table = Table("Table 4.3: execution profile (% of per-call CPU)",
                  ["degree", "sendmsg(paper)", "sendmsg(sim)",
                   "select(sim)", "recvmsg(sim)", "setitimer(sim)",
                   "gettimeofday(sim)"])
    for result in run_circus_series(iterations=args.iterations):
        degree = int(result.label[len("Circus("):-1])
        pcts = result.profile_percentages()
        table.add_row(degree, PAPER_TABLE_4_3[degree]["sendmsg"],
                      pcts.get("sendmsg", 0.0), pcts.get("select", 0.0),
                      pcts.get("recvmsg", 0.0), pcts.get("setitimer", 0.0),
                      pcts.get("gettimeofday", 0.0))
    print(table.render())


def cmd_fig48(args) -> None:
    from repro.bench.echo import linear_fit, run_circus_series
    from repro.bench.report import Table

    results = run_circus_series(iterations=args.iterations)
    xs = [1, 2, 3, 4, 5]
    table = Table("Figure 4.8: per-call time vs degree (ms/rpc)",
                  ["component", "n=1", "n=2", "n=3", "n=4", "n=5",
                   "slope", "R^2"])
    for name, ys in [("real", [r.real for r in results]),
                     ("total cpu", [r.total for r in results]),
                     ("user cpu", [r.user for r in results]),
                     ("kernel cpu", [r.kernel for r in results])]:
        slope, _b, r2 = linear_fit(xs, ys)
        table.add_row(name, *ys, slope, r2)
    print(table.render())


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


# ---------------------------------------------------------------------------
# Shared input handling: scenario names and JSON files
# ---------------------------------------------------------------------------

class CliError(Exception):
    """Bad user input; :func:`main` prints it as ``repro: <message>`` on
    stderr and exits 2."""


def _canned(name: str):
    """The canned scenario ``name`` of :mod:`repro.bench.scenarios`,
    imported when it is first built."""
    def build(*args):
        from repro.bench import scenarios
        return getattr(scenarios, name)(*args)
    return build


#: every canned scenario (all four are ``repro check`` targets); the
#: circus one is parameterized by --iterations.
CHECK_SCENARIOS = {name: _canned(name) for name in (
    "quickstart", "protocol_trace", "circus", "lossy")}

#: the ones ``repro trace`` accepts (it has no --iterations) ...
TRACE_SCENARIOS = ("quickstart", "protocol_trace")
#: ... and the ``bench`` argument of metrics / critpath / top.
BENCH_SCENARIOS = TRACE_SCENARIOS + ("circus",)


def _scenario(target: str, names, iterations: int = 30):
    """Resolve a scenario argument — a bare name or a path such as
    ``examples/quickstart.py`` — against ``names`` and build it; returns
    ``(name, world, body)``."""
    name = target.replace("\\", "/").rstrip("/").rsplit("/", 1)[-1]
    if name.endswith(".py"):
        name = name[:-3]
    if name not in names:
        raise SystemExit("unknown scenario %r (choose from: %s)"
                         % (target, ", ".join(sorted(names))))
    factory = CHECK_SCENARIOS[name]
    world, body = factory(iterations) if name == "circus" else factory()
    return name, world, body


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


def cmd_trace(args) -> None:
    from repro.obs import trace_calls

    name, world, body = _scenario(args.target, TRACE_SCENARIOS)
    with trace_calls(world.sim) as tracer:
        world.run(body())
    out = args.out or ("%s_trace.json" % name)
    payload = tracer.to_chrome()
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    calls = tracer.calls
    execs = sum(len(c.execs) for c in calls)
    print("traced %d replicated call(s), %d replica execution(s)"
          % (len(calls), execs))
    print("%d trace events -> %s (load in chrome://tracing or Perfetto)"
          % (len(payload["traceEvents"]), out))


def cmd_metrics(args) -> int:
    from repro.bench.report import Table
    from repro.obs import (SCHEMA_VERSION, CritPathAnalyzer,
                           MetricsCollector, openmetrics)

    _name, world, body = _scenario(args.bench, BENCH_SCENARIOS,
                                   args.iterations)
    want_om = getattr(args, "openmetrics", False)
    with MetricsCollector(world.sim.bus) as collector:
        if want_om:
            with CritPathAnalyzer(world.sim) as critpath:
                world.run(body())
                exposition = openmetrics(collector.registry,
                                         critpath=critpath)
        else:
            world.run(body())
    if want_om:
        print(exposition, end="")
    elif getattr(args, "json", False):
        # The same {"tables": [...]} shape --bench-json writes, so CI can
        # diff metrics snapshots with the same tooling as benchmarks —
        # schema-versioned and key-sorted, so two same-seed runs are
        # byte-identical.
        table = Table("metrics: %s" % args.bench, ["metric", "value"])
        for key, value in collector.registry.snapshot().items():
            table.add_row(key, value)
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "tables": [table.to_dict()]}, indent=2,
                         sort_keys=True))
    else:
        print(collector.registry.render())
    return 0


def cmd_critpath(args) -> int:
    """Critical-path latency attribution over a canned scenario."""
    from repro.obs import SCHEMA_VERSION, CritPathAnalyzer

    _name, world, body = _scenario(args.bench, BENCH_SCENARIOS,
                                   args.iterations)
    with CritPathAnalyzer(world.sim) as critpath:
        world.run(body())
    report = critpath.report()
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION,
                   "workload": args.bench,
                   "report": report}
        if args.per_call:
            payload["calls"] = [p.to_dict() for p in critpath.paths()]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(critpath.render())
        if args.per_call:
            for path in critpath.paths():
                d = path.to_dict()
                print("%-24s #%-4d %8.3f ms  dominant=%s%s" % (
                    d["call"], d["call_number"], d["duration_ms"],
                    d["dominant"],
                    "  [degraded]" if d["degraded"] else ""))
    return 0


def cmd_top(args) -> int:
    """Live per-troupe rates, stage breakdown, and task progress."""
    from repro.obs.top import live_top

    _name, world, body = _scenario(args.bench, BENCH_SCENARIOS,
                                   args.iterations)
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

    name, world, body = _scenario(name, CHECK_SCENARIOS, iterations)
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
    names = sorted(CHECK_SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    failures = 0
    for name in names:
        failures += _check_one(name, args.iterations, args.dump_dir)
    return 1 if failures else 0


def cmd_shard(args) -> int:
    """Run the capacity workload across shard kernels and report the
    merged, deterministic result; with ``--reference`` verify the
    byte-identical-digest contract against the 1-shard run.  The
    ``--json`` payload contains only deterministic fields, so two runs
    of the same seed must serialize identically (the CI shard-smoke
    job ``cmp``'s them)."""
    from repro.bench.workloads import capacity_builder
    from repro.sim.sharded import run_sharded

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
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
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


def cmd_elastic(args) -> int:
    """Run the §6.4.2 availability experiment under the autoscaler and
    report measured vs predicted (M/M/n/n) availability.  The ``--json``
    payload is wholly virtual-time-deterministic: two runs of the same
    seed serialize byte-identically (the CI elastic-smoke job ``cmp``'s
    them)."""
    from repro.elastic.scenario import payload_json, run_elastic

    payload = run_elastic(seed=args.seed, pool=args.pool,
                          duration=args.duration, mttf=args.mttf,
                          mttr=args.mttr)
    if args.json:
        sys.stdout.write(payload_json(payload))
        return 0
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
    return 0


def cmd_perf(args) -> int:
    """The deterministic work-per-call tables (``repro.bench.gated``).

    A viewer: ``benchmarks/compare.py`` gates the same tables against
    BENCH_BASELINE.json.  No wall clock is read: host-time numbers are
    ``python3 -m wallbench``'s job, and two runs of ``--json`` are
    byte-identical.

    ``--profile PATH`` additionally runs the circus workload under
    cProfile and writes a pstats dump for ``snakeviz``/``pstats``.
    """
    from repro import accel
    from repro.bench import gated
    from repro.obs.export import SCHEMA_VERSION

    tables = gated.all_gated_tables(args.iterations)
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "build": accel.status(),
                          "tables": [table.to_dict() for table in tables]},
                         indent=2, sort_keys=True))
    else:
        print("build: %s" % accel.describe())
        for table in tables:
            print(table.render())
    if args.profile:
        import cProfile

        world, body = CHECK_SCENARIOS["circus"](args.iterations)
        profiler = cProfile.Profile()
        profiler.enable()
        world.run(body())
        profiler.disable()
        profiler.dump_stats(args.profile)
        print("\ncProfile of circus-%d written to %s "
              "(inspect with `python -m pstats %s`)"
              % (args.iterations, args.profile, args.profile))
    return 0


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
    return [name.strip() for name in args.oracles.split(",") if name.strip()]


def cmd_fuzz(args) -> int:
    """Seeded fault-schedule fuzzing: sweep, shrink, replay.

    Everything printed under ``--json`` is deterministic — two identical
    invocations must produce byte-identical output (the property the CI
    smoke job checks by diffing the digests of two runs).
    """
    import os

    from repro import explore
    from repro.obs.export import SCHEMA_VERSION
    from repro.obs.recorder import render_postmortem

    oracles = _fuzz_oracles(args)

    if args.list_scenarios:
        from repro.bench.report import Table
        table = Table("fuzz scenarios", ["name", "machines-faulted",
                                         "horizon", "description"])
        for name in sorted(explore.SCENARIOS):
            scn = explore.SCENARIOS[name]
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
        if not result.ok and result.postmortem is not None:
            print(render_postmortem(result.postmortem))
        return 0 if result.ok else 1

    scenario = explore.get_scenario(args.scenario)
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
        os.makedirs(args.out_dir, exist_ok=True)
        stem = os.path.join(args.out_dir, "%s-seed%d"
                            % (result.scenario, result.seed))
        schedule = result.schedule
        if args.shrink:
            schedule, attempts = explore.shrink_failure(
                result, max_attempts=args.shrink_attempts)
            entry["shrunk_actions"] = len(schedule.actions)
            entry["shrink_attempts"] = attempts
        entry["repro_file"] = stem + ".schedule.json"
        schedule.save(entry["repro_file"])
        if result.postmortem is not None:
            with open(stem + ".postmortem.json", "w") as fh:
                json.dump(result.postmortem, fh, indent=2)
                fh.write("\n")
        if args.artifacts and result.artifacts is not None:
            os.makedirs(args.artifacts, exist_ok=True)
            astem = os.path.join(args.artifacts, "%s-seed%d"
                                 % (result.scenario, result.seed))
            with open(astem + ".openmetrics.txt", "w") as fh:
                fh.write(result.artifacts["openmetrics"])
            with open(astem + ".trace.json", "w") as fh:
                json.dump(result.artifacts["trace"], fh, indent=2)
                fh.write("\n")
            entry["artifact_stem"] = astem
        if args.history_artifacts and result.history is not None:
            from repro.obs.history import canonical_dumps
            os.makedirs(args.history_artifacts, exist_ok=True)
            entry["history_file"] = os.path.join(
                args.history_artifacts, "%s-seed%d.history.json"
                % (result.scenario, result.seed))
            with open(entry["history_file"], "w") as fh:
                fh.write(canonical_dumps(result.history))
        if not args.json:
            print("  repro script: %s" % entry["repro_file"])
            print("  replay with:  repro fuzz --replay %s"
                  % entry["repro_file"])

    sweep_digest = explore.digest_of([entry["digest"] for entry in results])
    report = {
        "format": "repro.fuzz.sweep/1",
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "oracles": oracles,
        "seeds": len(seeds),
        "failures": len(failures),
        "digest": sweep_digest,
        "results": results,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("fuzz %-16s %d seed(s), %d failure(s)"
              % (scenario.name, len(seeds), len(failures)))
        print("sweep digest: %s" % sweep_digest)
    return 1 if failures else 0


def cmd_postmortem(args) -> int:
    from repro.obs.recorder import render_postmortem

    report = _load_json(args.dump)
    print(render_postmortem(report))
    return 1 if (report.get("violations") or report.get("crash")) else 0


def cmd_lincheck(args) -> int:
    """Re-check a saved operation history offline (docs/CHECKING.md)."""
    from repro.obs.history import OperationHistory, format_operation
    from repro.obs.lincheck import check_history

    history = _load_json(args.history, OperationHistory.from_dict)
    result = check_history(history, semantics=args.semantics or None)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
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


#: the paper's experiments (``repro all`` runs every one) ...
EXPERIMENTS = {
    "table41": cmd_table41,
    "table42": cmd_table42,
    "table43": cmd_table43,
    "fig48": cmd_fig48,
    "multicast": cmd_multicast,
    "deadlock": cmd_deadlock,
    "availability": cmd_availability,
}


def cmd_all(args) -> None:
    for name in sorted(EXPERIMENTS):
        EXPERIMENTS[name](args)


#: ... and every subcommand :func:`main` dispatches.
COMMANDS = dict(
    EXPERIMENTS, all=cmd_all, trace=cmd_trace, metrics=cmd_metrics,
    critpath=cmd_critpath, top=cmd_top, check=cmd_check,
    postmortem=cmd_postmortem, fuzz=cmd_fuzz, lincheck=cmd_lincheck,
    perf=cmd_perf, shard=cmd_shard, elastic=cmd_elastic)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Replicated Distributed "
                    "Programs' (Cooper, 1985).")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name in sorted(EXPERIMENTS) + ["all"]:
        cmd = sub.add_parser(name, help="run the %s experiment" % name
                             if name != "all" else "run every experiment")
        cmd.add_argument("--iterations", type=int, default=30,
                         help="measurement loop length (default 30)")
    trace_cmd = sub.add_parser(
        "trace", help="run a scenario with call tracing; write Chrome "
                      "trace_event JSON")
    trace_cmd.add_argument(
        "target", help="scenario: examples/quickstart or "
                       "examples/protocol_trace")
    trace_cmd.add_argument("--out", default=None,
                           help="output path (default <scenario>_trace.json)")
    metrics_cmd = sub.add_parser(
        "metrics", help="run a workload with the metrics collector; print "
                        "the snapshot")
    metrics_cmd.add_argument(
        "bench", help="workload: quickstart, protocol_trace, or circus")
    metrics_cmd.add_argument("--iterations", type=int, default=30,
                             help="calls for the circus workload "
                                  "(default 30)")
    metrics_cmd.add_argument("--json", action="store_true",
                             help="emit the snapshot as --bench-json-style "
                                  "{\"tables\": [...]} JSON")
    metrics_cmd.add_argument("--openmetrics", action="store_true",
                             help="emit the snapshot in OpenMetrics text "
                                  "format (with time-series rates)")
    critpath_cmd = sub.add_parser(
        "critpath", help="decompose each replicated call's latency into "
                         "named critical-path stages")
    critpath_cmd.add_argument(
        "bench", nargs="?", default="circus",
        help="workload: quickstart, protocol_trace, or circus (default)")
    critpath_cmd.add_argument("--iterations", type=int, default=200,
                              help="calls for the circus workload "
                                   "(default 200)")
    critpath_cmd.add_argument("--json", action="store_true",
                              help="emit a deterministic JSON report")
    critpath_cmd.add_argument("--per-call", action="store_true",
                              help="also list every call's breakdown")
    top_cmd = sub.add_parser(
        "top", help="live view of a running scenario: per-troupe call "
                    "rates, stage breakdown, violations, task progress")
    top_cmd.add_argument(
        "bench", nargs="?", default="circus",
        help="workload: quickstart, protocol_trace, or circus (default)")
    top_cmd.add_argument("--iterations", type=int, default=200,
                         help="calls for the circus workload (default 200)")
    top_cmd.add_argument("--slice", type=float, default=50.0,
                         help="virtual ms simulated per frame (default 50)")
    top_cmd.add_argument("--frames", type=int, default=None,
                         help="stop after N frames (default: run to "
                              "completion)")
    top_cmd.add_argument("--plain", action="store_true",
                         help="re-print frames instead of the curses UI "
                              "(automatic when stdout is not a tty)")
    check_cmd = sub.add_parser(
        "check", help="run a scenario under the invariant monitors; exit "
                      "nonzero (with a post-mortem dump) on any violation")
    check_cmd.add_argument(
        "scenario", help="scenario: %s, or all"
                         % ", ".join(sorted(CHECK_SCENARIOS)))
    check_cmd.add_argument("--iterations", type=int, default=30,
                           help="calls for the circus scenario (default 30)")
    check_cmd.add_argument("--dump-dir", default=".",
                           help="where post-mortem dumps go (default .)")
    pm_cmd = sub.add_parser(
        "postmortem", help="render a post-mortem dump written by "
                           "'repro check'")
    pm_cmd.add_argument("dump", help="path to a *_postmortem.json file")
    fuzz_cmd = sub.add_parser(
        "fuzz", help="explore seeded fault schedules under the invariant "
                     "monitors; shrink and dump failures as replayable "
                     "repro scripts")
    fuzz_cmd.add_argument("--scenario", default="echo",
                          help="workload to fuzz (see --list; default "
                               "echo)")
    fuzz_cmd.add_argument("--seeds", type=int, default=50,
                          help="number of seeds to sweep (default 50)")
    fuzz_cmd.add_argument("--base-seed", type=int, default=0,
                          help="first seed of the sweep (default 0)")
    fuzz_cmd.add_argument("--seed-file", default=None, metavar="PATH",
                          help="JSON seed corpus ([..] or {\"seeds\": "
                               "[..]}); overrides --seeds/--base-seed")
    fuzz_cmd.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="forked workers to sweep on (default: one "
                               "per available CPU; 1 stays in this "
                               "process); the output is the same for "
                               "every N")
    fuzz_cmd.add_argument("--budget", type=float, default=None,
                          help="virtual-time budget per run (ms; default: "
                               "the scenario's)")
    fuzz_cmd.add_argument("--oracles", default=None,
                          help="comma-separated invariant slugs (default: "
                               "the scenario's oracle set)")
    fuzz_cmd.add_argument("--shrink", action="store_true",
                          help="minimize failing schedules before writing "
                               "their repro scripts")
    fuzz_cmd.add_argument("--shrink-attempts", type=int, default=200,
                          help="re-run budget per shrink (default 200)")
    fuzz_cmd.add_argument("--out-dir", default="fuzz-out",
                          help="where repro scripts and post-mortems go "
                               "(default fuzz-out)")
    fuzz_cmd.add_argument("--artifacts", default=None, metavar="DIR",
                          help="also write OpenMetrics snapshots and "
                               "Chrome traces for failing seeds to DIR "
                               "(what nightly CI uploads)")
    fuzz_cmd.add_argument("--history-artifacts", default=None,
                          metavar="DIR",
                          help="also write each failing seed's checked "
                               "operation history (repro.history/1 JSON, "
                               "re-checkable with 'repro lincheck') to "
                               "DIR")
    fuzz_cmd.add_argument("--json", action="store_true",
                          help="emit a deterministic JSON sweep report")
    fuzz_cmd.add_argument("--replay", default=None, metavar="PATH",
                          help="re-run one repro script instead of "
                               "sweeping")
    fuzz_cmd.add_argument("--list", dest="list_scenarios",
                          action="store_true",
                          help="list the scenario catalog and exit")
    lincheck_cmd = sub.add_parser(
        "lincheck", help="check a saved operation history offline for "
                         "linearizability / strict serializability")
    lincheck_cmd.add_argument("history",
                              help="path to a repro.history/1 JSON file "
                                   "(see fuzz --history-artifacts)")
    lincheck_cmd.add_argument("--semantics", default=None,
                              choices=["register", "list-append", "bank",
                                       "total-order"],
                              help="checker semantics (default: the one "
                                   "recorded in the history)")
    lincheck_cmd.add_argument("--json", action="store_true",
                              help="emit the CheckResult as JSON")
    perf_cmd = sub.add_parser(
        "perf", help="view the deterministic work-per-call tables "
                     "(gated in BENCH_BASELINE.json; wall-clock numbers: "
                     "python3 -m wallbench)")
    perf_cmd.add_argument("--iterations", type=int, default=200,
                          help="circus calls behind the circus rows "
                               "(default 200, the gated rows)")
    perf_cmd.add_argument("--json", action="store_true",
                          help="emit {\"tables\": [...]} JSON")
    perf_cmd.add_argument("--profile", default=None, metavar="PATH",
                          help="also cProfile the circus workload; write "
                               "a pstats dump to PATH")
    shard_cmd = sub.add_parser(
        "shard", help="run the capacity workload across shard kernels "
                      "with conservative-lookahead exchange "
                      "(repro.sim.sharded)")
    shard_cmd.add_argument("--shards", type=int, default=2,
                           help="shard kernels to partition the hosts "
                                "across (default 2)")
    shard_cmd.add_argument("--machines", type=int, default=12,
                           help="hosts in the world (default 12)")
    shard_cmd.add_argument("--cells", type=int, default=4,
                           help="machine cells, one echo troupe each "
                                "(default 4; must divide --machines)")
    shard_cmd.add_argument("--sessions", type=int, default=24,
                           help="client sessions (default 24)")
    shard_cmd.add_argument("--degree", type=int, default=3,
                           help="troupe members per cell (default 3)")
    shard_cmd.add_argument("--calls", type=int, default=3,
                           help="calls per session (default 3)")
    shard_cmd.add_argument("--rate", type=float, default=40.0,
                           help="per-session offered calls/sec "
                                "(default 40)")
    shard_cmd.add_argument("--arrival", default="pareto",
                           choices=["fixed", "poisson", "pareto"],
                           help="interarrival process (default pareto)")
    shard_cmd.add_argument("--horizon", type=float, default=3000.0,
                           help="virtual-time horizon in ms "
                                "(default 3000)")
    shard_cmd.add_argument("--seed", type=int, default=7)
    shard_cmd.add_argument("--mode", default="inproc",
                           choices=["inproc", "process"],
                           help="step every shard in this process, or "
                                "shard 0 here and each further one in a "
                                "forked process (default inproc)")
    shard_cmd.add_argument("--reference", action="store_true",
                           help="also run the single-process (1-shard) "
                                "reference and fail unless the packet "
                                "digests are byte-identical")
    shard_cmd.add_argument("--json", action="store_true",
                           help="emit the deterministic result fields as "
                                "JSON (byte-identical across reruns of "
                                "the same seed)")
    elastic_cmd = sub.add_parser(
        "elastic", help="run the autoscaled availability experiment "
                        "(repro.elastic) and compare measured vs M/M/n/n "
                        "predicted availability")
    elastic_cmd.add_argument("--pool", type=int, default=4,
                             help="member-pool machines the failure "
                                  "process churns (default 4)")
    elastic_cmd.add_argument("--duration", type=float, default=30000.0,
                             help="virtual-time experiment length in ms "
                                  "(default 30000)")
    elastic_cmd.add_argument("--mttf", type=float, default=8000.0,
                             help="mean machine lifetime in virtual ms "
                                  "(default 8000)")
    elastic_cmd.add_argument("--mttr", type=float, default=1200.0,
                             help="mean machine repair time in virtual ms "
                                  "(default 1200)")
    elastic_cmd.add_argument("--seed", type=int, default=0)
    elastic_cmd.add_argument("--json", action="store_true",
                             help="emit the deterministic report as JSON "
                                  "(byte-identical across reruns of the "
                                  "same seed)")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args) or 0
    except CliError as exc:
        print("repro: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
