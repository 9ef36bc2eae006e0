"""End-to-end determinism: identical seeds give identical executions.

Reproducibility is the substrate for every measured claim in
EXPERIMENTS.md, so it gets its own regression test: a full replicated
workload (binding, calls, a crash, reconfiguratory traffic) replayed
twice must produce byte-identical packet traces and timings — and must not
depend on ``PYTHONHASHSEED``, which reorders every ``set`` of strings.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import ExportedModule
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.tools import trace_network


def run_workload(seed):
    world = World(machines=6, seed=seed,
                  net_config=NetworkConfig(loss_probability=0.1,
                                           duplicate_probability=0.05,
                                           jitter=0.2))

    def factory():
        state = {"n": 0}

        def bump(ctx, args):
            state["n"] += 1
            return b"%d" % state["n"]
        return ExportedModule("bump", {0: bump})

    troupe, runtimes = world.make_troupe("bump", factory, degree=3)
    client = world.make_client()

    def body():
        replies = []
        for i in range(6):
            replies.append((yield from client.call_troupe(
                troupe, 0, 0, b"%d" % i)))
            if i == 2:
                world.machine(troupe.members[2].process.host).crash()
        return replies

    with trace_network(world.net) as trace:
        replies = world.run(body())
    packets = [(p.time, p.src_host, p.dst_host, p.summary)
               for p in trace.packets]
    return replies, packets, world.sim.now


def test_same_seed_same_everything():
    run1 = run_workload(seed=424242)
    run2 = run_workload(seed=424242)
    assert run1[0] == run2[0]          # same replies
    assert run1[1] == run2[1]          # byte-identical packet trace
    assert run1[2] == run2[2]          # same final clock


def test_different_seed_different_trace():
    """The seed genuinely drives the stochastic components."""
    run1 = run_workload(seed=1)
    run2 = run_workload(seed=2)
    assert run1[0] == run2[0]          # semantics are seed-independent...
    assert run1[1] != run2[1]          # ...but the wire schedule is not


@pytest.mark.parametrize("argv, marker", [
    (["shard", "--shards", "2", "--json"], b'"digest"'),
    (["metrics", "circus", "--iterations", "10", "--openmetrics"],
     b"# EOF"),
    (["elastic", "--pool", "4", "--duration", "20000", "--seed", "11",
      "--json"], b'"predicted_mmnn"'),
    (["fuzz", "--scenario", "bank-transfer", "--seeds", "5",
      "--base-seed", "334", "--jobs", "1", "--json"], b'"digest"'),
], ids=["shard", "metrics-openmetrics", "elastic", "fuzz-bank-transfer"])
def test_cli_output_is_the_same_under_any_hash_seed(argv, marker):
    """``repro shard --shards 2 --json`` (digest, counters, per-shard
    event counts), the OpenMetrics exposition of the circus scenario and
    the autoscaled availability report, byte for byte under three
    string-hash seeds: nothing on those paths may iterate a set or lean
    on hash order."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        outputs.add(subprocess.run(
            [sys.executable, "-m", "repro"] + argv,
            env=env, check=True, timeout=120, stdout=subprocess.PIPE).stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    assert marker in out
    if argv[0] == "elastic":
        _check_elastic_report(json.loads(out))


def _check_elastic_report(report):
    """The measured-vs-M/M/n/n comparison is well formed, the troupe was
    founded (two joins at least) and calls got through."""
    avail = report["availability"]
    assert 0.0 < avail["predicted_mmnn"] <= 1.0, avail
    assert 0.0 <= avail["measured_machine"] <= 1.0, avail
    assert report["membership"]["joins"] >= 2, report["membership"]
    assert report["calls"]["ok"] > 0, report["calls"]
