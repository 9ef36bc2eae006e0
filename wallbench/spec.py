"""Names, units, directions and bounds — the benchmark's vocabulary.

``BENCHMARK.json`` states the same lists for the driver; the self-test
asserts the two agree, so a metric cannot be renamed in one place only.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str            # "higher" | "lower"
    bound: float = 0.0     # end-to-end only: share of the parent's median


#: the six workloads, in the order the one command runs them.
WORKLOADS: Dict[str, str] = {
    "circus-seq":
        "Table 4.1 Circus(3) shape: sequential 8-byte calls on a lossless "
        "wire; kernel + single-segment message path, bus idle - the baseline",
    "lossy-bulk":
        "6 KiB calls (13 segments) under 10% loss + 2% duplication: "
        "segmentation, acks, retransmit scheduler and reassembly do the work",
    "observed":
        "circus-seq's exact inputs with monitors, flight recorder, metrics, "
        "time-series and critpath attached: obs does most of the work",
    "capacity-1000":
        "run_sharded(shards=1) on 1000 hosts / 250 cells / 1500 Zipf+Pareto "
        "sessions: big heap, per-timestamp Shard.advance, fresh process each",
    "capacity-1000-x2":
        "identical inputs on 2 forked shards: the only workload running the "
        "coordinator, envelope codec and lookahead windows; digest must match",
    "fuzz-bank":
        "explore.sweep('bank-transfer'): many short worlds under fault "
        "schedules with oracles and the serializability check - CI traffic",
}

#: end-to-end metrics, the same six on every workload.  One bound per
#: metric covers all workloads and ten different seeds, so it is set by
#: the widest spread measured at calibration (README "Spread"): the
#: host-time rows by what is left of the container's drift after the
#: host-speed correction, peak_rss_mb and sim_ms_per_call by fuzz-bank,
#: whose seeds build different worlds.
END_TO_END: List[Metric] = [
    Metric("calls_per_s", "1/s", "higher", 0.25),
    Metric("cpu_us_per_call", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_ms_per_call", "sim_ms", "lower", 0.25),
    Metric("sim_p99_ms", "sim_ms", "lower", 0.10),
]

#: layers = packages under src/repro (see profile.layer_of).
LAYERS = ["sim", "sharded", "host", "net", "pairedmsg", "rpc", "core",
          "transactions", "binding", "obs.bus", "obs.subscribers",
          "explore", "harness", "other"]

#: (a) traced run: self time per layer, plus the cost of tracing.
TRACED: List[Metric] = (
    [Metric("%s.self_us_per_call" % layer, "us", "lower")
     for layer in LAYERS]
    + [Metric("trace.overhead_x", "x", "lower"),
       Metric("trace.attributed_pct", "%", "higher")])

#: (b) counts read through public accessors after an untraced run.
COUNTS: List[Metric] = [
    Metric("sim.callbacks_per_call", "count", "lower"),
    Metric("sim.allocs_per_call", "count", "lower"),
    Metric("sim.ready_lane_share", "share", "higher"),
    Metric("sim.callbacks_per_s", "1/s", "higher"),
    Metric("net.packets_per_call", "count", "lower"),
    Metric("net.dropped_share", "share", "lower"),
    Metric("net.duplicated_per_call", "count", "lower"),
    Metric("pairedmsg.encodes_per_call", "count", "lower"),
    Metric("pairedmsg.bytes_copied_per_call", "bytes", "lower"),
    Metric("pairedmsg.retransmit_rounds_per_call", "count", "lower"),
    Metric("pairedmsg.acks_per_call", "count", "lower"),
    Metric("pairedmsg.daemons_per_call", "count", "lower"),
    Metric("host.syscalls_per_call", "count", "lower"),
    Metric("host.kernel_ms_per_call", "sim_ms", "lower"),
    Metric("obs.events_per_call", "count", "lower"),
    Metric("obs.attached_overhead_x", "x", "lower"),
    Metric("sharded.windows", "count", "lower"),
    Metric("sharded.cross_shard_per_call", "count", "lower"),
    Metric("sharded.speedup_x", "x", "higher"),
    Metric("transactions.commit_share", "share", "higher"),
    Metric("explore.seeds_per_s", "1/s", "higher"),
    Metric("explore.failed_seeds", "count", "lower"),
    Metric("model.circus3_real_err_pct", "%", "lower"),
]

#: (c) one layer's public entry points alone (layers.py).
DRIVERS: List[Metric] = [
    Metric("sim.timer_events_per_s", "1/s", "higher"),
    Metric("sim.queue_events_per_s", "1/s", "higher"),
    Metric("sim.select_events_per_s", "1/s", "higher"),
    Metric("net.datagrams_per_s", "1/s", "higher"),
    Metric("pairedmsg.transfers_per_s", "1/s", "higher"),
    Metric("pairedmsg.codec_segments_per_s", "1/s", "higher"),
    Metric("rpc.codec_msgs_per_s", "1/s", "higher"),
    Metric("obs.emit_ns", "ns", "lower"),
    Metric("harness.build_ms_per_host", "ms", "lower"),
]

PER_LAYER: List[Metric] = TRACED + COUNTS + DRIVERS

#: Table 4.1 of the paper, Circus with a 3-member troupe: real ms/call.
PAPER_CIRCUS3_REAL_MS = 69.4
