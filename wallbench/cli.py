"""The one command.

    python3 -m wallbench --seed 7                      # everything
    python3 -m wallbench --seed 7 --out A.json --trace-out traces/
    python3 -m wallbench --compare A.json B.json
    python3 -m wallbench --workload lossy-bulk --seed 3 --seconds 8 --trace 0

The last form is the benchmark contract's: one workload, one phase, and
the result as one JSON object on the last line of standard output.
Either way every metric is printed by name with its unit, outputs are
verified, and any failed operation makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from typing import List, Optional

from wallbench import ROOT, spec
from wallbench.runner import Report, Runner


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m wallbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all six, both "
                             "phases)")
    parser.add_argument("--seed", type=int, default=7,
                        help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="size of the timed region: batch counts are "
                             "fixed per 10 s (default 8, as BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics "
                             "(untraced), 1 = the per-layer ledger")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink batch sizes and the capacity world "
                             "(the self-test uses 0.02); shapes stay")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result JSON (all-workloads "
                             "form)")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write spans.json and layers.json there")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files; A is the base")
    return parser


def _print_report(report: Report) -> None:
    notes = report["notes"]
    print("== %s (%s)" % (report["workload"],
                          "per-layer" if report["trace"] else "end-to-end"))
    for name, metric in report["metrics"].items():
        print("  %-40s %16.6f %s" % (name, metric["value"], metric["unit"]))
    if not report["trace"]:
        print("  samples: %d batches, %d calls, %d set-up probes; "
              "sim_p99_ms is the %s of %d simulated latencies"
              % (notes["batches"], notes["calls"], notes["probes"],
                 notes["tail_percentile"], notes["latency_samples"]))
        print("  host speed %.3f of reference; uncorrected: %s"
              % (notes["host_speed"], ", ".join(
                  "%s %.4f" % item
                  for item in notes["uncorrected"].items())))
    if notes.get("digest"):
        print("  digest of simulated behaviour: %s" % notes["digest"])
    print("  attempted %d, failed %d" % (report["attempted"],
                                         report["failed"]))
    for failure in notes["failures"]:
        print("  FAILED: %s" % failure)


def _fingerprint() -> dict:
    from repro import accel
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # an exported checkout is not a repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "build": accel.describe(), "commit": commit}


def _write_traces(directory: str, runner: Runner,
                  reports: List[Report]) -> None:
    """The span list (kept in memory until now) and the layer tables."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "spans.json"), "w") as fh:
        json.dump(runner.spans.to_rows(), fh)
    with open(os.path.join(directory, "layers.json"), "w") as fh:
        json.dump({r["workload"]: r["metrics"]
                   for r in reports if r["trace"]}, fh, indent=1)


def _run_all(args) -> int:
    runner = Runner(args.seed, args.seconds, args.scale)
    reports: List[Report] = []
    for name in spec.WORKLOADS:
        for phase in (runner.end_to_end, runner.layers):
            report = phase(name)
            _print_report(report)
            reports.append(report)
    failed = sum(r["failed"] for r in reports)
    by_name = {r["workload"]: r for r in reports if not r["trace"]}
    one, two = by_name["capacity-1000"], by_name["capacity-1000-x2"]
    if one["notes"]["digest"] != two["notes"]["digest"]:
        failed += 1
        print("FAILED: capacity-1000-x2 digest differs from capacity-1000")
    print("== %s: %d failed operations" % ("FAILED" if failed else "ok",
                                          failed))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": "wallbench/1", "claim": None,
                       "seed": args.seed, "seconds": args.seconds,
                       "scale": args.scale, "machine": _fingerprint(),
                       "failed": failed, "reports": reports}, fh, indent=1)
    if args.trace_out:
        _write_traces(args.trace_out, runner, reports)
    return 1 if failed else 0


def _run_one(args) -> int:
    runner = Runner(args.seed, args.seconds, args.scale)
    report = (runner.layers if args.trace else runner.end_to_end)(
        args.workload)
    _print_report(report)
    if args.trace_out:
        _write_traces(args.trace_out, runner, [report])
    print(report.result_line())
    return 0 if report["correct"] else 1


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, the ratio with its
    base, the bound, and ok / worse / unresolved.  Simulated-time rows and
    digests compare exactly — a pure speed-up leaves them identical."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, doc in (("A", a), ("B", b)):
        print("%s: %s  seed %s  %s" % (side, doc["machine"], doc["seed"],
                                      "FAILED" if doc["failed"] else "ok"))

    def end_to_end(doc):
        return {r["workload"]: r for r in doc["reports"] if not r["trace"]}

    rows_a, rows_b = end_to_end(a), end_to_end(b)
    verdicts = set()
    print("%-18s %-16s %14s %14s %10s %7s  %s" % (
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"))
    for name in spec.WORKLOADS:
        if name not in rows_a or name not in rows_b:
            continue
        ra, rb = rows_a[name], rows_b[name]
        for metric in spec.END_TO_END:
            va = ra["metrics"][metric.name]["value"]
            vb = rb["metrics"][metric.name]["value"]
            ratio = vb / va if va else float("inf")
            worse_by = (ratio - 1.0) if metric.better == "lower" \
                else (1.0 - ratio)
            simulated = metric.unit == "sim_ms"
            spreads = [r["notes"]["spread"].get(metric.name)
                       for r in (ra, rb)]
            if simulated:
                verdict = "ok" if va == vb else "changed"
            elif worse_by > metric.bound:
                verdict = "worse"
            elif any(s is not None and s > metric.bound for s in spreads):
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts.add(verdict)
            print("%-18s %-16s %14.4f %14.4f %9.4fx %6.0f%%  %s" % (
                name, metric.name, va, vb, ratio,
                0.0 if simulated else 100 * metric.bound, verdict))
        same = ra["notes"]["digest"] == rb["notes"]["digest"]
        print("%-18s simulated behaviour %s" % (
            name, "identical" if same else "CHANGED"))
    return 1 if verdicts & {"worse", "unresolved", "changed"} else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return _run_one(args)
    return _run_all(args)
