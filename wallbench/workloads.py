"""The six workloads, as run inside one fresh child process each.

Every function here takes generated inputs, drives the program through
its public API, verifies what comes back, and returns a plain dict: the
per-batch timings (taken from spans), the simulated latencies, the raw
deterministic counters read through public accessors, and a digest of
the simulated behaviour.  ``runner.py`` (the parent) turns those into
the named metrics.

Why a fresh process per workload, per capacity repeat and per set-up
probe: re-using one interpreter moved the 1,000-host run from 6.4 s to
10.7 s in the readings taken for ISSUE 12 (heap growth and allocator
state left behind by the previous world), so a number would depend on
what ran before it.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import hashlib
import resource
import struct
import time
from typing import Dict, List, Optional

from repro import explore
from repro.core import ExportedModule, RuntimeConfig
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.obs import DEFAULT_MONITORS, InvariantMonitor
from repro.pairedmsg import PairedMessageConfig
from repro.rpc import ThreadId
from repro.sim.kernel import Sleep
from repro.sim.sharded import run_sharded

from wallbench import profile as layer_profile
from wallbench.inputs import (CapacityPlan, PayloadStream, capacity_plan,
                              fuzz_seeds)
from wallbench.layers import Spans, host_speed

#: the three echo workloads: argument size, calls per batch, and batches
#: per 10 s of ``--seconds`` on the 2-core container the sizes were set
#: on (circus-seq ~1,100 calls/s, lossy-bulk ~170, observed ~500).
ECHO = {
    "circus-seq": dict(size=8, batch=500, batches=20),
    "lossy-bulk": dict(size=6144, batch=100, batches=16),
    # 14 observed batches + the unobserved reference pass over the same
    # calls (the output check) fill the same 10 s.
    "observed": dict(size=8, batch=250, batches=14),
}
#: fuzz-bank: explorer seeds per batch, batches per 10 s (~16 seeds/s).
FUZZ = dict(batch=10, batches=16)
#: capacity workloads: fresh-process repeats, whatever ``--seconds`` says
#: (the cost of this workload is its size: one repeat is ~7 s, and the
#: median of three survives one disturbed repeat).
CAPACITY_REPEATS = 3
#: ... and how many kernels each capacity workload runs on.
CAPACITY_SHARDS = {"capacity-1000": 1, "capacity-1000-x2": 2}


def echo_module() -> ExportedModule:
    """The rpctest echo interface: result := argument, 1 ms of user CPU
    (the benchmark's own copy of the Figure 4.7 module)."""
    def echo(ctx, args):
        yield from ctx.compute(1.0)
        return args
    return ExportedModule("echo", {0: echo})


def summarize_latencies(latencies: List[float]) -> dict:
    """Mean and the highest percentile of the ladder p50/p90/p99 that
    still has at least ten samples beyond it (the median when even that
    has not).  The ladder stops at p99 so that ``sim_p99_ms`` is what it
    says at full size; the self-test's tiny runs fall back down it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        return {"n": 0, "mean": 0.0, "tail": 0.0, "tail_name": "none",
                "digest": hashlib.sha256(b"").hexdigest()}
    name, beyond = "p50", n // 2
    for candidate, share in (("p90", 0.1), ("p99", 0.01)):
        if int(n * share) >= 10:
            name, beyond = candidate, int(n * share)
    return {
        "n": n,
        "mean": sum(latencies) / n,
        "tail": ordered[max(0, n - beyond - 1)],
        "tail_name": name,
        # in issue order, so a reordering shows as well as a new value
        "digest": hashlib.sha256(
            struct.pack("<%dd" % n, *latencies)).hexdigest(),
    }


def _cpu_seconds() -> float:
    """user+sys CPU of this process and the children it has waited for."""
    # getrusage, not os.times(): the latter counts in 10 ms clock ticks
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _world_counts(worlds) -> Dict[str, float]:
    """Raw deterministic counters of one or more worlds, through public
    accessors only.  (Ghost runtimes of a sharded world never run, so
    their processes add zero.)"""
    counts = dict.fromkeys(
        ("callbacks", "allocs", "ready", "syscalls", "kernel_ms"), 0.0)
    for world in worlds:
        snap = world.sim.perf_snapshot()
        counts["callbacks"] += snap["callbacks_run"]
        counts["allocs"] += snap["calls_allocated"]
        counts["ready"] += snap["ready_dispatched"]
        for runtime in world.runtimes:
            process = runtime.process
            counts["syscalls"] += sum(process.syscall_counts.values())
            counts["kernel_ms"] += process.kernel_time
    return counts


def _wire_counts(network: dict, endpoint: dict) -> Dict[str, float]:
    return {
        "packets": network["packets_sent"],
        "dropped": network["packets_dropped"],
        "duplicated": network["packets_duplicated"],
        "encodes": endpoint["segment_encodes"],
        "bytes_copied": endpoint["bytes_copied"],
        "retransmit_rounds": endpoint["retransmit_rounds"],
        "acks": endpoint["acks_sent"],
        "daemons": endpoint["daemons_spawned"],
    }


def _echo_counts(world: World) -> Dict[str, float]:
    net = world.net
    counts = _world_counts([world])
    counts.update(_wire_counts(
        {"packets_sent": net.packets_sent,
         "packets_dropped": net.packets_dropped,
         "packets_duplicated": net.packets_duplicated},
        world.endpoint_stats()))
    return counts


class _EventCounter(InvariantMonitor):
    """Counts every bus event; an ``InvariantMonitor`` only so that
    ``explore.sweep(monitors=...)`` will attach it to each world."""

    invariant = "wallbench-event-count"

    def __init__(self):
        super().__init__()
        self.events = 0

    def attach(self, bus):
        self._bus = bus
        self._sub = bus.subscribe(self.observe)
        return self

    def observe(self, event) -> None:
        self.events += 1


class _Measure:
    """What every workload records per batch, from spans."""

    def __init__(self, spans: Spans, profiler: Optional[cProfile.Profile],
                 speed_units: int = 1):
        self.spans = spans
        self.profiler = profiler
        #: reference units per host-speed reading: one between short
        #: batches (their median smooths it), more around a long repeat
        self.speed_units = speed_units
        self._speed = None               # the reading before this batch
        self.batches: List[dict] = []
        self.failed = 0                  # failed operations
        self.failures: List[str] = []    # one line per kind of failure

    def fail(self, operations: int, message: str) -> None:
        self.failed += operations
        self.failures.append(message)

    @contextlib.contextmanager
    def batch(self, name: str, record: dict):
        """Time one batch; ``record`` gets its calls filled in by the
        caller and its wall and CPU seconds here, with the host speed
        read right before and right after it (outside the timed span and
        the profiler)."""
        if self._speed is None:
            self._speed = host_speed(self.speed_units)
        if self.profiler is not None:
            self.profiler.enable()
        cpu = _cpu_seconds()
        try:
            with self.spans.span(name) as span:
                yield record
        finally:
            record["cpu_s"] = _cpu_seconds() - cpu
            if self.profiler is not None:
                self.profiler.disable()
        record["wall_s"] = span.seconds
        before, self._speed = self._speed, host_speed(self.speed_units)
        record["host_speed"] = (before + self._speed) / 2.0
        self.batches.append(record)

    def result(self, **fields) -> dict:
        out = {"batches": self.batches, "failed": self.failed,
               "failures": self.failures}
        if self.profiler is not None:
            seconds, attributed = layer_profile.bucket(self.profiler)
            out["profile"] = {"seconds": seconds, "attributed": attributed}
        out.update(fields)
        return out


# ---------------------------------------------------------------------------
# workloads 1-3: sequential echo calls to a 3-member troupe
# ---------------------------------------------------------------------------

def _echo_pass(name: str, seed: int, batches: int, scale: float,
               measure: _Measure, observed: bool, count_events: bool,
               probe_only: bool) -> dict:
    """One world, one client, ``batches`` timed batches after an untimed
    warm-up batch (binding, first-exchange effects, interpreter caches)."""
    shape = ECHO[name]
    batch_calls = max(5, round(shape["batch"] * scale))
    net_config = runtime_config = None
    if name == "lossy-bulk":
        net_config = NetworkConfig(loss_probability=0.10,
                                   duplicate_probability=0.02)
        # max_retries is a budget of retransmission rounds per message;
        # the default (10) is exhausted by about one 13-segment message
        # in 20,000 at this loss rate, and the call then hangs for
        # minutes of virtual time (README "Findings").
        runtime_config = RuntimeConfig(paired=PairedMessageConfig(
            max_segment_data=512, retransmit_interval=30.0, max_retries=64))
    world = World(machines=4, seed=seed, net_config=net_config,
                  runtime_config=runtime_config)
    troupe, _members = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()
    payloads = PayloadStream(seed, shape["size"])
    latencies: List[float] = []
    wrong = [0]

    def body(batch):
        sim = world.sim
        for payload in batch:
            start = sim.now
            reply = yield from client.call_troupe(troupe, 0, 0, payload)
            latencies.append(sim.now - start)
            if reply != payload:
                wrong[0] += 1

    counter = _EventCounter()
    with contextlib.ExitStack() as stack:
        watch = None
        if observed:
            watch = stack.enter_context(world.watch())
            stack.enter_context(world.observe())
            if count_events:
                counter.attach(world.sim.bus)
                stack.callback(counter.detach)
        ready_at = time.monotonic()
        if probe_only:
            return {"ready_at": ready_at}
        world.run(body(payloads.take(batch_calls)))
        latencies.clear()
        counter.events = 0
        base = _echo_counts(world)
        gc.collect()
        for _ in range(batches):
            batch = payloads.take(batch_calls)
            with measure.batch("batch:" + name, {"calls": batch_calls}):
                world.run(body(batch))
        if watch is not None and watch.violations:
            measure.fail(len(watch.violations), "monitor violations: %s"
                         % sorted({v.invariant for v in watch.violations}))
    if wrong[0]:
        measure.fail(wrong[0], "%d replies differ from their argument"
                     % wrong[0])
    counts = {key: value - base[key]
              for key, value in _echo_counts(world).items()}
    return {"ready_at": ready_at, "latency": summarize_latencies(latencies),
            "counts": counts, "events": counter.events}


def run_echo(name: str, seed: int, seconds: float, scale: float,
             spans: Spans, profiler: Optional[cProfile.Profile] = None,
             count_events: bool = False, probe_only: bool = False) -> dict:
    batches = max(2, round(ECHO[name]["batches"] * seconds / 10.0))
    measure = _Measure(spans, profiler)
    observed = name == "observed"
    run = _echo_pass(name, seed, batches, scale, measure, observed,
                     count_events, probe_only)
    if probe_only:
        return run
    extra = {}
    if observed and profiler is None:
        # The output check of this workload: the same calls on an
        # unobserved world must see the same simulated latencies and do
        # the same simulated work, to the bit.  Its batch rate is also
        # the same-process baseline for obs.attached_overhead_x.
        reference = _Measure(Spans(), None)
        plain = _echo_pass(name, seed, batches, scale, reference, False,
                           False, False)
        if (plain["latency"]["digest"] != run["latency"]["digest"]
                or plain["counts"] != run["counts"]):
            measure.fail(1, "observers moved the simulation: latency "
                         "digest %s vs %s unobserved"
                         % (run["latency"]["digest"][:12],
                            plain["latency"]["digest"][:12]))
        extra["reference_batches"] = reference.batches
    digest = hashlib.sha256(repr(
        (run["latency"]["digest"], sorted(run["counts"].items()))
    ).encode()).hexdigest()
    return measure.result(
        ready_at=run["ready_at"], latency=run["latency"],
        counts=run["counts"], events=run["events"],
        attempted=sum(b["calls"] for b in measure.batches),
        digest=digest, **extra)


# ---------------------------------------------------------------------------
# workloads 4-5: the 1,000-host capacity run, single and sharded
# ---------------------------------------------------------------------------

def capacity_builder(plan: CapacityPlan, worlds: List[World]):
    """A ``builder(world)`` for ``run_sharded``: one 3-member echo troupe
    on the first machines of every 4-host cell, then the planned client
    sessions on their home machines.  Owned by the benchmark (a copy of
    the shape of ``repro.bench.workloads.capacity_builder``) so session
    placement is part of the workload.  Every world built is appended to
    ``worlds`` for the counter readout (in-process modes only)."""
    # Queueing near saturation must read as latency, not as member
    # death: retransmits and crash verdicts far beyond the knee.
    tolerant = RuntimeConfig(
        execution="parallel",
        paired=PairedMessageConfig(retransmit_interval=800.0,
                                   probe_interval=2000.0,
                                   crash_timeout=20000.0))

    def cell_module():
        def serve(ctx, args):
            yield from ctx.compute(2.0)
            return args
        return ExportedModule("cell-echo", {0: serve})

    def builder(world: World) -> None:
        worlds.append(world)
        names = [m.name for m in world.machines]
        cell_size = len(names) // plan.cells
        # Troupes first — in every shard, in the same order, so ports,
        # addresses and troupe IDs agree replica-for-replica.
        troupes = []
        for cell in range(plan.cells):
            block = names[cell * cell_size:(cell + 1) * cell_size]
            troupe, _ = world.make_troupe(
                "cell-%d" % cell, cell_module, degree=3,
                on_machines=block[:3], runtime_config=tolerant)
            troupes.append(troupe)
        counters = world.counters
        for key in ("calls_issued", "calls_completed", "wrong_replies"):
            counters.setdefault(key, 0)
        latencies = world.samples.setdefault("latency_ms", [])

        def session(index, plan_row, client):
            sim = world.sim
            yield Sleep(plan_row.start_ms)
            for number, (cell, payload, gap) in enumerate(plan_row.calls):
                counters["calls_issued"] += 1
                start = sim.now
                reply = yield from client.call_troupe(
                    troupes[cell], 0, 0, payload,
                    thread_id=ThreadId("sess-%d" % index, number))
                latencies.append(sim.now - start)
                counters["calls_completed"] += 1
                if reply != payload:
                    counters["wrong_replies"] += 1
                yield Sleep(gap)

        # Sessions after every troupe exists, each on the shard that owns
        # its home machine; creation order within one machine is the same
        # subsequence there as in the single-process run, so client ports
        # agree too.
        for index, plan_row in enumerate(plan.sessions):
            home = names[plan_row.home]
            if world.owns(home):
                client = world.make_client(home, runtime_config=tolerant)
                world.spawn(session(index, plan_row, client),
                            name="sess-%d" % index)

    return builder


def build_capacity_world(seed: int, scale: float, shards: int = 1,
                         mode: str = "inproc") -> int:
    """Build the capacity world and run it for a microsecond; returns the
    hosts built.  This is the build-only probe of ``setup_s`` and the (c)
    driver ``harness.build_ms_per_host``."""
    plan = capacity_plan(seed, scale)
    run_sharded(capacity_builder(plan, []), machines=plan.hosts,
                horizon=1e-3, shards=shards, seed=seed, mode=mode)
    return plan.hosts


def run_capacity(seed: int, scale: float, shards: int, mode: str,
                 spans: Spans, profiler: Optional[cProfile.Profile] = None,
                 probe_only: bool = False) -> dict:
    """One repeat: build + run to the horizon inside ``run_sharded``."""
    if probe_only:
        with spans.span("build:capacity"):
            build_capacity_world(seed, scale, shards, mode)
        return {"ready_at": time.monotonic()}
    with spans.span("inputs:capacity"):
        plan = capacity_plan(seed, scale)
    worlds: List[World] = []
    builder = capacity_builder(plan, worlds)
    measure = _Measure(spans, profiler, speed_units=5)
    gc.collect()
    ready_at = time.monotonic()
    record: dict = {}
    with measure.batch("run_sharded:%d:%s" % (shards, mode), record):
        result = run_sharded(builder, machines=plan.hosts,
                             horizon=plan.horizon_ms, shards=shards,
                             seed=seed, mode=mode)
    completed = int(result.counters["calls_completed"])
    wrong = int(result.counters["wrong_replies"])
    record["calls"] = completed
    if wrong:
        measure.fail(wrong, "%d replies differ from their argument" % wrong)
    counts = _wire_counts(result.network, result.endpoint_stats)
    counts["windows"] = result.windows
    counts["cross_shard"] = result.cross_shard_messages
    counts["issued"] = result.counters["calls_issued"]
    if mode == "inproc":
        # forked shards keep their worlds; only in-process ones are here
        counts.update(_world_counts(worlds))
    # run_sharded sorts the merged samples; the digest is over that order
    return measure.result(
        ready_at=ready_at, attempted=completed,
        latency=summarize_latencies(result.samples["latency_ms"]),
        counts=counts, digest=result.digest)


# ---------------------------------------------------------------------------
# workload 6: the fault-schedule explorer on the bank-transfer scenario
# ---------------------------------------------------------------------------

def run_fuzz(seed: int, seconds: float, scale: float, spans: Spans,
             profiler: Optional[cProfile.Profile] = None,
             count_events: bool = False, probe_only: bool = False) -> dict:
    """``explore.sweep("bank-transfer", seeds)`` in batches.  A call is
    one entry of a seed's outcome list; an attempted operation is one
    seed; a seed fails when an oracle reports a violation or it crashes."""
    batches = max(2, round(FUZZ["batches"] * seconds / 10.0))
    batch_seeds = max(2, round(FUZZ["batch"] * scale))
    scenario = explore.get_scenario("bank-transfer")
    with spans.span("inputs:fuzz"):
        seeds = fuzz_seeds(seed, (batches + 1) * batch_seeds)
    kwargs = {}
    counter = _EventCounter()
    if count_events:
        kwargs["monitors"] = [m for m in DEFAULT_MONITORS
                              if m.invariant in scenario.oracles] + [counter]
    ready_at = time.monotonic()
    if probe_only:
        return {"ready_at": ready_at}
    measure = _Measure(spans, profiler)
    results = []
    explore.sweep(scenario, seeds[:batch_seeds], **kwargs)   # warm-up
    counter.events = 0
    gc.collect()
    for index in range(1, batches + 1):
        chunk = seeds[index * batch_seeds:(index + 1) * batch_seeds]
        record = {"seeds": len(chunk)}
        with measure.batch("batch:fuzz-bank", record):
            swept = explore.sweep(scenario, chunk, **kwargs)
        record["calls"] = sum(len(r.outcome) for r in swept
                              if isinstance(r.outcome, list))
        results.extend(swept)
    latencies = []
    outcomes = committed = 0
    counts = dict.fromkeys(("packets", "dropped", "duplicated"), 0)
    for result in results:
        if not result.ok:
            measure.fail(1, result.summary())
        if isinstance(result.outcome, list):
            outcomes += len(result.outcome)
            committed += sum(1 for o in result.outcome if o.endswith(":ok"))
        for op in (result.history or {}).get("ops", ()):
            if op["returned_at"] is not None:
                latencies.append(op["returned_at"] - op["invoked_at"])
        counts["packets"] += result.stats["packets_sent"]
        counts["dropped"] += result.stats["packets_dropped"]
        counts["duplicated"] += result.stats["packets_duplicated"]
    counts["outcomes"] = outcomes
    counts["committed"] = committed
    digest = hashlib.sha256(
        "".join(r.digest() for r in results).encode()).hexdigest()
    return measure.result(
        ready_at=ready_at, attempted=len(results),
        latency=summarize_latencies(latencies), counts=counts,
        events=counter.events, digest=digest)
