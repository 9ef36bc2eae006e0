"""The parent: runs children one at a time and names the metrics.

Load is generated from this one process.  Every measurement happens in a
child started here, sequentially, so at most ``nproc`` processes are
busy at once (only capacity-1000-x2, with its two forked shards, uses
both cores of the container the sizes were set on).

Two phases per workload, never mixed:

- ``trace=0`` — the end-to-end metrics, from untraced runs only;
- ``trace=1`` — the per-layer ledger: (a) a profiled run bucketed by
  layer, (b) deterministic counts from an untraced run of the same
  inputs, (c) the single-layer drivers.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from wallbench import ROOT, spec
from wallbench.layers import Spans, host_speed
from wallbench.workloads import CAPACITY_REPEATS, CAPACITY_SHARDS

#: set-up probes per run (plus one discarded probe that warms the page
#: cache): setup_s is their median.
PROBES = 3
#: a child may not outlive the contract's per-run limit.
CHILD_TIMEOUT_S = 170


class Report(dict):
    """One workload, one phase: ``correct``/``attempted``/``failed``/
    ``metrics`` are the contract's result line; ``notes`` carries what a
    reader (and ``--out``) wants besides."""

    def result_line(self) -> str:
        return json.dumps({key: self[key] for key in
                           ("correct", "attempted", "failed", "metrics")})


class Runner:
    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.spans = Spans()

    # -- children ------------------------------------------------------

    def _spawn(self, child_spec: dict) -> dict:
        """One fresh interpreter per child (see workloads.py for why)."""
        # A fixed hash seed takes dict/set layout out of the run-to-run
        # spread; it does not change any simulated result.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run(
            [sys.executable, "-m", "wallbench.child",
             json.dumps(child_spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError("child %r exited %d: %s" % (
                child_spec, proc.returncode, proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def child(self, label: str, kind: str, **fields) -> dict:
        """Run one child to completion and return its result, with
        ``setup_s`` = spawn to the child's ready stamp."""
        child_spec = dict(kind=kind, seed=self.seed, seconds=self.seconds,
                          scale=self.scale)
        child_spec.update(fields)
        first = len(self.spans.rows)
        with self.spans.span(label) as span:
            result = self._spawn(child_spec)
        if "error" in result:
            # an unsanctioned exception in the workload: a failed operation
            return {"error": result["error"], "failed": 1, "attempted": 1,
                    "failures": [result["error"].strip().splitlines()[-1]]}
        self.spans.adopt(result.pop("spans"), first)
        for row in self.spans.rows[first:]:
            row.workload = label.split("/")[0]
        if "ready_at" in result:
            result["setup_s"] = result["ready_at"] - span.start
        return result

    def workload_child(self, name: str, phase: str, **fields) -> dict:
        label = "%s/%s" % (name, phase)
        if name in CAPACITY_SHARDS:
            fields.setdefault("shards", CAPACITY_SHARDS[name])
            fields.setdefault(
                "mode", "process" if fields["shards"] > 1 else "inproc")
            return self.child(label, "capacity", **fields)
        return self.child(label, name, **fields)

    # -- phase 0: end to end ---------------------------------------------

    def _probe(self, name: str) -> dict:
        """One set-up probe, with the host speed read around it."""
        before = host_speed(3)
        probe = self.workload_child(name, "probe", probe=True)
        probe["host_speed"] = (before + host_speed(3)) / 2.0
        return probe

    def end_to_end(self, name: str) -> Report:
        probes = [self._probe(name) for _ in range(PROBES + 1)][1:]
        repeats = CAPACITY_REPEATS if name in CAPACITY_SHARDS else 1
        runs = [self.workload_child(name, "timed") for _ in range(repeats)]
        check = _Check(runs)
        for probe in probes:
            check.absorb(probe)
        check.repeats_agree()
        batches = [b for run in runs for b in run.get("batches", ())
                   if b["calls"]]
        first = runs[0]
        latency = first.get("latency", {})
        # Host-time readings are corrected for the host's speed at the
        # moment they were taken (layers.host_speed): time x speed.
        rates = _rates(batches)
        cpu_us = [1e6 * b["cpu_s"] * b["host_speed"] / b["calls"]
                  for b in batches]
        setups = [p["setup_s"] * p["host_speed"]
                  for p in probes if "setup_s" in p]
        values = {
            "calls_per_s": _median(rates),
            "cpu_us_per_call": _median(cpu_us),
            "peak_rss_mb": max(run.get("rss_mb", 0.0) for run in runs),
            "setup_s": _median(setups),
            "sim_ms_per_call": latency.get("mean", 0.0),
            "sim_p99_ms": latency.get("tail", 0.0),
        }
        notes = {
            "digest": first.get("digest", ""),
            "tail_percentile": latency.get("tail_name", "none"),
            "latency_samples": latency.get("n", 0),
            "batches": len(batches),
            "calls": sum(b["calls"] for b in batches),
            "probes": len(probes),
            "host_speed": _median([b["host_speed"] for b in batches]),
            "uncorrected": {
                "calls_per_s": _median([b["calls"] / b["wall_s"]
                                        for b in batches]),
                "cpu_us_per_call": _median([1e6 * b["cpu_s"] / b["calls"]
                                            for b in batches]),
                "setup_s": _median([p["setup_s"] for p in probes
                                    if "setup_s" in p]),
            },
            "spread": {"calls_per_s": _spread(rates),
                       "cpu_us_per_call": _spread(cpu_us),
                       "setup_s": _spread(setups)},
            "failures": check.failures,
        }
        return _report(name, 0, spec.END_TO_END, values, check, notes)

    # -- phase 1: the per-layer ledger -----------------------------------

    def layers(self, name: str) -> Report:
        capacity = name in CAPACITY_SHARDS
        # capacity runs at full size (its cost is the size); the batch
        # workloads at a fifth of the timed region
        sized = {} if capacity else {"seconds": self.seconds / 5.0}
        observing = name in ("observed", "fuzz-bank")
        plain = self.workload_child(name, "untraced", count_events=observing,
                                    **sized)
        # forked shards are out of the profiler's reach: -x2 is traced
        # with both shards in this process
        traced = self.workload_child(
            name, "traced", profile=True,
            **(dict(mode="inproc") if capacity else sized))
        check = _Check([plain, traced])
        values = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
        notes = {"failures": check.failures}
        if check.ok_so_far:
            check.same("digest, traced vs untraced run",
                       plain["digest"], traced["digest"])
            counts = dict(plain["counts"])
            if name == "capacity-1000-x2":
                # kernel and syscall counters live in the shard worlds,
                # which only the in-process (traced) run can read
                counts.update({k: v for k, v in traced["counts"].items()
                               if k not in counts})
                # The output check of this workload: the forked run's
                # packet digest must equal the single-kernel run's on the
                # same inputs.  It costs a third 1,000-host run, so it is
                # made here and in the all-workloads command, not in each
                # of the end-to-end phase's timed runs.
                reference = self.workload_child(name, "reference", shards=1)
                check.absorb(reference)
                if check.ok_so_far:
                    check.same("packet digest, 2 forked shards vs 1 kernel",
                               plain["digest"], reference["digest"])
                    values["sharded.speedup_x"] = (
                        _wall(reference) / _wall(plain))
            values.update(_traced_metrics(plain, traced))
            values.update(_count_metrics(name, plain, counts))
            notes["digest"] = plain["digest"]
        drivers = self.child(name + "/drivers", "drivers", reps=3,
                             min_seconds=self.seconds / 50.0)
        check.absorb(drivers)
        values.update(drivers.get("drivers", {}))
        return _report(name, 1, spec.PER_LAYER, values, check, notes)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class _Check:
    """Attempted/failed operations and the reasons, over a set of runs."""

    def __init__(self, runs: List[dict]):
        self.runs = list(runs)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        for run in runs:
            self.attempted += run.get("attempted", 0)
            self.absorb(run)

    def absorb(self, run: dict) -> None:
        """Count a run's failures (for a supporting run — probe,
        reference, drivers — that is all: its operations are not this
        workload's)."""
        self.failed += run.get("failed", 0)
        self.failures.extend(run.get("failures", ()))

    @property
    def ok_so_far(self) -> bool:
        return not self.failed

    def same(self, what: str, a, b) -> None:
        if a != b:
            self.failed += 1
            self.failures.append("%s differs: %s vs %s"
                                 % (what, str(a)[:16], str(b)[:16]))

    def repeats_agree(self) -> None:
        """Simulated results may not depend on the run: digest, latency
        digest and every count equal across the repeats of a workload."""
        first = self.runs[0]
        for other in self.runs[1:]:
            for key in ("digest", "latency", "counts"):
                self.same("%s across repeats" % key,
                          json.dumps(first.get(key), sort_keys=True),
                          json.dumps(other.get(key), sort_keys=True))


def _report(name: str, trace: int, metrics, values: Dict[str, float],
            check: _Check, notes: dict) -> Report:
    return Report(
        workload=name, trace=trace, correct=check.failed == 0,
        attempted=max(1, check.attempted), failed=check.failed,
        metrics={m.name: {"value": values[m.name], "unit": m.unit}
                 for m in metrics},
        notes=notes)


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------

def _rates(batches: List[dict]) -> List[float]:
    """Calls per host second of each batch, at reference host speed."""
    return [b["calls"] / (b["wall_s"] * b["host_speed"]) for b in batches]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below 4
    samples, where quartiles mean nothing)."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _wall(run: dict) -> float:
    """Host seconds of a run's batches, at reference host speed."""
    return sum(b["wall_s"] * b["host_speed"] for b in run["batches"])


def _calls(run: dict) -> int:
    return sum(b["calls"] for b in run["batches"]) or 1


def _traced_metrics(plain: dict, traced: dict) -> Dict[str, float]:
    """(a): profiled self seconds per layer over the traced run's calls,
    and what tracing cost against the same inputs untraced."""
    profile = traced["profile"]
    calls = _calls(traced)
    speed = _median([b["host_speed"] for b in traced["batches"]])
    out = {"%s.self_us_per_call" % layer: 1e6 * seconds * speed / calls
           for layer, seconds in profile["seconds"].items()}
    out["trace.overhead_x"] = ((_wall(traced) / calls)
                               / (_wall(plain) / _calls(plain)))
    out["trace.attributed_pct"] = 100.0 * profile["attributed"]
    return out


def _count_metrics(name: str, run: dict, counts: dict) -> Dict[str, float]:
    """(b): the raw counters of an untraced run, per call.  A counter the
    workload has no public accessor for reads 0 (README lists which)."""
    calls = _calls(run)
    wall = _wall(run)

    def per_call(key: str) -> float:
        return counts.get(key, 0) / calls

    def share(part: str, whole: str) -> float:
        return counts.get(part, 0) / counts[whole] if counts.get(whole) \
            else 0.0

    out = {
        "sim.callbacks_per_call": per_call("callbacks"),
        "sim.allocs_per_call": per_call("allocs"),
        "sim.ready_lane_share": share("ready", "callbacks"),
        "sim.callbacks_per_s": counts.get("callbacks", 0) / wall,
        "net.packets_per_call": per_call("packets"),
        "net.dropped_share": share("dropped", "packets"),
        "net.duplicated_per_call": per_call("duplicated"),
        "pairedmsg.encodes_per_call": per_call("encodes"),
        "pairedmsg.bytes_copied_per_call": per_call("bytes_copied"),
        "pairedmsg.retransmit_rounds_per_call":
            per_call("retransmit_rounds"),
        "pairedmsg.acks_per_call": per_call("acks"),
        "pairedmsg.daemons_per_call": per_call("daemons"),
        "host.syscalls_per_call": per_call("syscalls"),
        "host.kernel_ms_per_call": per_call("kernel_ms"),
        "obs.events_per_call": run.get("events", 0) / calls,
        "sharded.windows": counts.get("windows", 0),
        "sharded.cross_shard_per_call": per_call("cross_shard"),
        "transactions.commit_share": share("committed", "outcomes"),
    }
    if name == "observed":
        out["obs.attached_overhead_x"] = (
            _median(_rates(run["reference_batches"]))
            / _median(_rates(run["batches"])))
    if name == "fuzz-bank":
        out["explore.seeds_per_s"] = (
            sum(b["seeds"] for b in run["batches"]) / wall)
        out["explore.failed_seeds"] = run["failed"]
    if name in ("circus-seq", "observed"):
        out["model.circus3_real_err_pct"] = 100.0 * abs(
            run["latency"]["mean"] - spec.PAPER_CIRCUS3_REAL_MS
        ) / spec.PAPER_CIRCUS3_REAL_MS
    return out
