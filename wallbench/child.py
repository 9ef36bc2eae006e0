"""One workload run in this (fresh) process: ``python3 -m wallbench.child SPEC``.

``SPEC`` is a JSON object written by ``runner.py``; the result is one
JSON object on the last line of standard output.  An exception anywhere
in the workload is an unsanctioned exception, i.e. a failed operation:
it is reported in the result, not as a crash of the benchmark.
"""

from __future__ import annotations

import cProfile
import json
import resource
import sys
import traceback

from wallbench import workloads
from wallbench.layers import Spans, run_drivers


def run(spec: dict) -> dict:
    spans = Spans()
    kind = spec["kind"]
    common = dict(
        spans=spans, probe_only=spec.get("probe", False),
        profiler=cProfile.Profile() if spec.get("profile") else None)
    if kind == "drivers":
        result = {"drivers": run_drivers(
            spans, lambda: workloads.build_capacity_world(0, spec["scale"]),
            spec["reps"], spec["min_seconds"])}
    elif kind in workloads.ECHO:
        result = workloads.run_echo(
            kind, spec["seed"], spec["seconds"], spec["scale"],
            count_events=spec.get("count_events", False), **common)
    elif kind == "fuzz-bank":
        result = workloads.run_fuzz(
            spec["seed"], spec["seconds"], spec["scale"],
            count_events=spec.get("count_events", False), **common)
    elif kind == "capacity":
        result = workloads.run_capacity(
            spec["seed"], spec["scale"], spec["shards"], spec["mode"],
            **common)
    else:
        raise ValueError("unknown child kind %r" % kind)
    result["spans"] = spans.to_rows()
    # Linux reports ru_maxrss in KiB; the largest single process counts,
    # which for forked shards is one of the (waited-for) children.
    result["rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    try:
        result = run(spec)
    except Exception:   # noqa: BLE001 — the boundary: report, do not crash
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
