"""The deterministic work tables — each described exactly once.

A :class:`TableSpec` is everything there is to know about one work
table of ``BENCH_BASELINE.json``: its title, columns and formats, its
rows (frozen pre-optimization readings are literal rows; live rows name
a label and are measured), and the acceptance conditions the measured
rows must meet.  ``repro perf`` renders :data:`GATED_TABLES`;
``benchmarks/bench_gated.py`` registers them with the rest of the
benchmark suite, whose every cell ``benchmarks/compare.py`` holds to the
baseline exactly, and ``tests/test_bench_gated.py`` does the same at
tier-1.

Every cell is a count of simulated work or a virtual-time reading, so it
is identical on every machine and every run: a change that adds kernel
callbacks, segment encodes, bus events or copied bytes per call moves a
cell whatever the host's speed.  No wall clock is read here — host-time
numbers come from ``python3 -m wallbench`` (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.bench import scenarios
from repro.bench.report import Table
from repro.bench.workloads import capacity_builder
from repro.elastic.scenario import run_elastic
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.obs import CritPathAnalyzer, MetricsCollector
from repro.obs.history import OperationHistoryRecorder
from repro.pairedmsg import PairedEndpoint, PairedMessageConfig
from repro.sim.sharded import run_sharded

#: circus calls behind the gated rows of ``BENCH_BASELINE.json``.
ITERATIONS = 200


@dataclasses.dataclass(frozen=True)
class TableSpec:
    title: str
    columns: Tuple[str, ...]
    formats: Tuple[Optional[str], ...]
    notes: str
    #: Rows in table order.  A tuple is a frozen row (label, then cells):
    #: a reading recorded once, before an optimization pass, kept as the
    #: trajectory reference.  A string is the label of a live row ("%d"
    #: takes the iteration count); ``measure`` returns the live rows'
    #: cells in the same order.
    rows: Tuple[Union[str, tuple], ...]
    measure: Callable[[int], List[list]]
    #: acceptance conditions on the built rows (at :data:`ITERATIONS`).
    check: Callable[[List[list]], None]

    def labels(self, iterations: int = ITERATIONS) -> List[str]:
        return [row[0] if isinstance(row, tuple)
                else row.replace("%d", str(iterations))
                for row in self.rows]

    def build(self, iterations: int = ITERATIONS) -> Table:
        table = Table(self.title, self.columns, notes=self.notes,
                      formats=self.formats)
        live = iter(self.measure(iterations))
        for row, label in zip(self.rows, self.labels(iterations)):
            cells = row[1:] if isinstance(row, tuple) else next(live)
            table.add_row(label, *cells)
        return table


def _run_circus(iterations: int):
    world, body = scenarios.circus(iterations)
    world.run(body())
    return world


# -- kernel -----------------------------------------------------------------

def _kernel_proxy(iterations):
    """Kernel callbacks executed and ``_ScheduledCall`` handles allocated
    per replicated call: what the hot-path pass targets (freelist hits,
    no spurious callbacks)."""
    snapshot = _run_circus(iterations).sim.perf_snapshot()
    callbacks = snapshot["callbacks_run"] / iterations
    allocs = snapshot["calls_allocated"] / iterations
    return [[callbacks, allocs, callbacks + allocs]]


def _check_kernel_proxy(rows):
    (_, seed_callbacks, _, seed_proxy), (_, callbacks, _, proxy) = rows
    # No pass may add callbacks over the seed kernel's (0.1% tolerance:
    # the retransmit scheduler's wake signals were a wash, not a saving).
    assert callbacks <= 1.001 * seed_callbacks
    # Hot-path acceptance: >= 20% less kernel work per call than the seed.
    assert proxy <= 0.8 * seed_proxy


KERNEL_PROXY = TableSpec(
    "Kernel hot-path proxy metric (work per replicated call)",
    columns=("workload", "callbacks/call", "allocs/call",
             "proxy (callbacks+allocs)"),
    formats=(None, "%.2f", "%.2f", "%.2f"),
    notes="Deterministic (machine-independent) and gated exactly.  "
          "The seed row is the unoptimized kernel, kept as the "
          "trajectory reference.",
    rows=(("circus-200 (seed)", 162.935, 171.85, 334.785), "circus-%d"),
    measure=_kernel_proxy, check=_check_kernel_proxy)


def _dispatch(iterations):
    """Ready-lane entries drained per call (the same-timestamp batching
    path that bypasses the heap) and the lane's share of all dispatches."""
    snapshot = _run_circus(iterations).sim.perf_snapshot()
    callbacks, ready = snapshot["callbacks_run"], snapshot["ready_dispatched"]
    share = 100.0 * ready / callbacks if callbacks else 0.0
    return [[callbacks / iterations, ready / iterations, round(share, 4)]]


def _check_dispatch(rows):
    (_, seed_callbacks, _, _), (_, callbacks, ready, share) = rows
    # Batching cheapens dispatch; it must not change how many callbacks run.
    assert callbacks == seed_callbacks
    assert ready > 0 and share >= 10.0, "the ready lane is barely used"


DISPATCH = TableSpec(
    "Kernel batched dispatch (per replicated call)",
    columns=("workload", "callbacks/call", "ready lane/call",
             "lane share %"),
    formats=(None, "%.2f", "%.3f", "%.2f"),
    notes="Same-timestamp callbacks drain through a ready lane that "
          "bypasses the heap (no push+pop per entry).  callbacks/call "
          "must stay pinned — batching reorders nothing, it only "
          "cheapens dispatch; the lane share is how many dispatches "
          "took the batched path.  Deterministic and gated exactly.",
    # The seed is the pre-batching kernel: no lane by construction, and
    # the callbacks of this tree's protocol code (batching changes none).
    rows=(("circus-200 (seed)", 129.985, 0.0, 0.0), "circus-%d"),
    measure=_dispatch, check=_check_dispatch)


# -- message path -----------------------------------------------------------

def _message_path(iterations):
    """Segment encodes, endpoint helper daemons spawned and packets per
    replicated call; ``msg proxy`` is encodes + daemons."""
    world = _run_circus(iterations)
    totals = world.endpoint_stats()
    encodes = totals["segment_encodes"] / iterations
    daemons = totals["daemons_spawned"] / iterations
    return [[encodes, daemons, world.net.packets_sent / iterations,
             encodes + daemons]]


def _check_message_path(rows):
    (_, _, _, seed_packets, seed_proxy), (_, _, _, packets, proxy) = rows
    # Wire-faithfulness: the pass may not change what goes on the wire.
    assert packets == seed_packets
    # Message-path acceptance: >= 40% less encode + daemon work per call.
    assert proxy <= 0.6 * seed_proxy


MESSAGE_PATH = TableSpec(
    "Message-path proxy metric (work per replicated call)",
    columns=("workload", "encodes/call", "daemons/call", "packets/call",
             "msg proxy (encodes+daemons)"),
    formats=(None, "%.2f", "%.2f", "%.2f", "%.2f"),
    notes="Deterministic (machine-independent) and gated exactly.  "
          "The seed row is the pre-optimization protocol stack: one "
          "encode per transmission and one retransmit daemon per "
          "transfer.",
    rows=(("circus-200 (seed)", 11.990, 6.020, 11.990, 18.010),
          "circus-%d"),
    measure=_message_path, check=_check_message_path)


def lossy_transfer_metrics(delayed_acks: bool = False, transfers: int = 8,
                           loss: float = 0.15,
                           seed: int = 11) -> Dict[str, float]:
    """The deterministic lossy paired-message exchange (13-segment call
    messages, seeded loss) with or without ack coalescing — the
    ``pm-loss15`` workload."""
    message = bytes(range(256)) * 24          # 6144 bytes -> 13 segments
    world = World(machines=2, seed=seed,
                  net_config=NetworkConfig(loss_probability=loss))
    config = PairedMessageConfig(max_segment_data=512,
                                 retransmit_interval=30.0,
                                 delayed_acks=delayed_acks)
    client_proc = world.machines[0].spawn_process("pm-client")
    server_proc = world.machines[1].spawn_process("pm-server")
    client = PairedEndpoint(client_proc, config=config)
    server = PairedEndpoint(server_proc, port=600, config=config)

    def server_loop():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number, b"ok")

    server_proc.spawn(server_loop(), daemon=True)

    def body():
        start = world.sim.now
        for number in range(1, transfers + 1):
            yield from client.call(server.addr, number, message)
        return (world.sim.now - start) / transfers

    latency = world.run(body())

    def per_transfer(counter):
        return (client.counters[counter]
                + server.counters[counter]) / transfers

    return {
        "ms_per_transfer": latency,
        "packets_per_transfer": world.net.packets_sent / transfers,
        "acks_per_transfer": per_transfer("acks_sent"),
        "acks_coalesced_per_transfer": per_transfer("acks_coalesced"),
        "bytes_copied_per_transfer": per_transfer("bytes_copied"),
    }


def _delayed_ack(_iterations):
    return [[row["ms_per_transfer"], row["packets_per_transfer"],
             row["acks_per_transfer"], row["acks_coalesced_per_transfer"]]
            for row in (lossy_transfer_metrics(delayed_acks=False),
                        lossy_transfer_metrics(delayed_acks=True))]


def _check_delayed_ack(rows):
    (_, ms, packets, acks, _), (_, _, on_packets, on_acks, _) = rows
    # Delayed acks are opt-in: the default row is the seed protocol
    # stack's reading to the bit.
    assert (ms, packets) == (226.52244269964925, 23.125)
    assert on_acks < acks and on_packets < packets


DELAYED_ACK = TableSpec(
    "Message-path: delayed-ack coalescing (pm-loss15, deterministic)",
    columns=("configuration", "ms/transfer", "packets/transfer",
             "acks/transfer", "acks coalesced/transfer"),
    formats=(None, "%.4f", "%.3f", "%.3f", "%.3f"),
    notes="13-segment (6 KB) calls at 15% seeded loss.  delayed_acks "
          "holds the highest cumulative ack per message and flushes "
          "one batch per 10 ms interval; probe replies stay "
          "immediate so crash detection is unchanged.",
    rows=("immediate-acks", "delayed-acks"),
    measure=_delayed_ack, check=_check_delayed_ack)


def _zero_copy(iterations):
    """``bytes_copied``: payload+header bytes written into fresh
    message-path buffers (one wire per segment, one marked wire per
    retransmitted segment, one join per delivered message — decode and
    reassembly are views and contribute zero)."""
    totals = _run_circus(iterations).endpoint_stats()
    return [[totals["bytes_copied"] / iterations],
            [lossy_transfer_metrics()["bytes_copied_per_transfer"]]]


def _check_zero_copy(rows):
    (_, circus_seed), (_, circus), (_, lossy_seed), (_, lossy) = rows
    # Zero-copy acceptance: >= 40% fewer bytes materialized than the
    # copying path on both workloads.
    assert circus <= 0.6 * circus_seed and lossy <= 0.6 * lossy_seed


ZERO_COPY = TableSpec(
    "Message-path zero-copy (bytes copied per call)",
    columns=("workload", "bytes copied per call/transfer"),
    formats=(None, "%.3f"),
    notes="bytes_copied counts payload+header bytes written into "
          "fresh message-path buffers: one wire per segment, one "
          "marked wire per retransmitted segment, one join per "
          "delivered message; decode and reassembly are memoryviews "
          "and contribute zero.  The seed rows are the copying path "
          "(encode copied the payload twice, decode sliced it, "
          "wire_marked copied the whole wire twice).  Deterministic "
          "and gated exactly.",
    rows=(("circus-200 (seed)", 885.165), "circus-%d",
          ("pm-loss15 (seed)", 26893.25), "pm-loss15"),
    measure=_zero_copy, check=_check_zero_copy)


# -- observability ----------------------------------------------------------

def _telemetry_work(iterations, unobserved_end, attach_extra=None):
    """Telemetry counters on the circus workload with the metrics
    collector and critical-path analyzer attached; ``attach_extra(world)``
    installs one more observer and returns its detach callable."""
    world, body = scenarios.circus(iterations)
    delivered = [0]

    def count(_event):
        delivered[0] += 1

    sub = world.sim.bus.subscribe(count)
    detach_extra = attach_extra(world) if attach_extra is not None else None
    with MetricsCollector(world.sim.bus) as metrics:
        analyzer = CritPathAnalyzer(world.sim)
        try:
            world.run(body())
            report = analyzer.report()
        finally:
            analyzer.close()
    if detach_extra is not None:
        detach_extra()
    world.sim.bus.unsubscribe(sub)
    if world.sim.now != unobserved_end:
        raise AssertionError("observers moved virtual time: %r != %r"
                             % (world.sim.now, unobserved_end))
    return [delivered[0] / iterations,
            metrics.registry.updates() / iterations,
            analyzer.milestones / iterations, report["attributed_pct"],
            report["residual_pct"], round(unobserved_end, 6)]


def _observability(iterations):
    """Bus events delivered, time-series cell updates and critical-path
    milestones per call, plus attribution quality.  ``virtual end`` is
    the unobserved run's end time, which every observed run must hit —
    it catches an observer that perturbs the simulation even when its
    work counters happen to match.  The ``+history`` row additionally
    attaches an :class:`~repro.obs.history.OperationHistoryRecorder`."""
    unobserved_end = _run_circus(iterations).sim.now
    recorders = []

    def attach_recorder(world):
        recorders.append(OperationHistoryRecorder(world.sim,
                                                  scenario="circus"))
        return recorders[0].detach

    rows = [_telemetry_work(iterations, unobserved_end),
            _telemetry_work(iterations, unobserved_end, attach_recorder)]
    # The circus workload declares no operations: the recorder's
    # bus-side correlation is its entire cost.
    if recorders[0].ops:
        raise AssertionError("recorder invented operations: %r"
                             % recorders[0].ops)
    return rows


def _check_observability(rows):
    base, history = rows
    # The recorder is a pure reader: no counter (or virtual time) moves.
    assert history[1:] == base[1:], "the history recorder perturbed telemetry"
    # Critical-path acceptance: >= 95% of latency lands in named stages.
    assert base[4] >= 95.0 and base[5] < 5.0


OBSERVABILITY = TableSpec(
    "Observability telemetry (work per replicated call + overhead)",
    columns=("workload", "events/call", "ts updates/call",
             "milestones/call", "attributed %", "residual %",
             "virtual end (ms)"),
    formats=(None, "%.2f", "%.2f", "%.2f", "%.2f", "%.2f", "%.3f"),
    notes="Time-series collector + critical-path analyzer attached "
          "to the circus workload.  Every column is deterministic "
          "and gated exactly.  virtual end (ms) must equal the "
          "unobserved run's — subscribers never move virtual time.  "
          "The +history row adds the operation-history recorder; it "
          "must equal the base row exactly (the recorder is a pure "
          "reader).",
    rows=("circus-%d", "circus-%d+history"),
    measure=_observability, check=_check_observability)


# -- sharded simulation -----------------------------------------------------

def _sharded_exchange(_iterations):
    """Completed calls, wire packets and cross-shard envelopes per call,
    synchronization windows, and whether the canonical packet digest
    equals the 1-shard run's — the byte-identical-behaviour contract of
    :mod:`repro.sim.sharded`."""
    rows, reference = [], None
    for shards in (1, 2, 4):
        # 12 hosts in 4 cells (one 3-member echo troupe each), 24
        # Zipf/Pareto client sessions.
        result = run_sharded(
            capacity_builder(cells=4, sessions=24, calls_per_session=3,
                             rate=40.0, seed=7),
            machines=12, shards=shards, seed=7, horizon=3000.0)
        reference = reference or result.digest
        calls = result.counters.get("calls_completed", 0)
        rows.append([calls, result.network["packets_sent"] / (calls or 1),
                     result.cross_shard_messages / (calls or 1),
                     result.windows, int(result.digest == reference)])
    return rows


def _check_sharded_exchange(rows):
    one, two, four = rows
    for row in rows:
        assert row[5] == 1, "%s diverged from the 1-shard run" % row[0]
        assert row[1] == one[1] > 0 and row[4] == one[4]
    # The partition must be exercised: traffic crosses shard boundaries
    # with more than one shard, never with one.
    assert 0.0 == one[3] < two[3] < four[3]


SHARDED_EXCHANGE = TableSpec(
    "Sharded simulation: conservative cross-shard exchange (deterministic)",
    columns=("configuration", "calls", "packets/call",
             "cross-shard/call", "sync windows", "digest == 1-shard"),
    formats=(None, None, "%.2f", "%.2f", None, None),
    notes="12-host capacity workload (4 cells x 3-member echo "
          "troupes, 24 Zipf/Pareto sessions) partitioned across "
          "shard kernels with conservative lookahead on the wire's "
          "transit floor.  Every column is deterministic and gated "
          "exactly; the digest flag is the byte-identical-behaviour "
          "contract (canonical multiset digest over net.* events).",
    rows=("shards-1", "shards-2", "shards-4"),
    measure=_sharded_exchange, check=_check_sharded_exchange)


# -- elastic troupes --------------------------------------------------------

def _elastic(_iterations):
    """Completed calls, membership churn performed through the §6.4.1
    join and remove protocols, and measured troupe-level availability
    from the autoscaled availability experiment (:mod:`repro.elastic`)."""
    # A 4-machine member pool under the §6.4.2 exponential churn, the
    # autoscaler keeping the troupe populated.
    payload = run_elastic(seed=3, pool=4, duration=12000.0, mttf=8000.0,
                          mttr=1200.0)
    membership = payload["membership"]
    return [[payload["calls"]["ok"], membership["joins"],
             membership["removes"], payload["calls"]["p99_ms"],
             payload["availability"]["measured_troupe"],
             payload["virtual_end_ms"]]]


def _check_elastic(rows):
    ((_, calls_ok, joins, removes, _, availability, _),) = rows
    assert calls_ok > 0 and 0.0 < availability <= 1.0
    # Churn happened: beyond the two founding joins, at least one load-
    # or failure-driven reconfiguration in each direction.
    assert joins > 2 and removes > 0


ELASTIC = TableSpec(
    "Elastic troupe grow-shrink (autoscaled availability experiment)",
    columns=("workload", "calls ok", "joins", "removes", "p99 ms",
             "troupe avail", "virtual end (ms)"),
    formats=(None, None, None, None, "%.3f", "%.6f", "%.3f"),
    notes="4-machine member pool, 12 s virtual, mttf 8 s / mttr "
          "1.2 s; the autoscaler grows on burst load, shrinks in "
          "quiet phases, and replaces fail-stopped members through "
          "§6.4.1 state transfer.  Every column is deterministic "
          "(virtual time only) and gated exactly: joins/removes "
          "pin the reconfiguration cadence, troupe avail is the "
          "uptime the M/M/n/n machine model cannot see.",
    rows=("elastic-pool4",),
    measure=_elastic, check=_check_elastic)


#: every work table, in ``repro perf`` order.
GATED_TABLES = (KERNEL_PROXY, DISPATCH, MESSAGE_PATH, DELAYED_ACK, ZERO_COPY,
                OBSERVABILITY, SHARDED_EXCHANGE, ELASTIC)


def all_gated_tables(iterations: int = ITERATIONS) -> List[Table]:
    return [spec.build(iterations) for spec in GATED_TABLES]
