"""Tests for replicated-call tracing (span trees + Chrome export).

The golden file ``golden_call_span.json`` is the exact span tree of one
quickstart-style replicated call (fixed seed, deterministic simulation).
Regenerate after an intentional protocol/timing change with:

    PYTHONPATH=src python tests/obs/test_trace.py
"""

import json
import pathlib

from repro.bench.scenarios import echo_module
from repro.core import ExportedModule
from repro.harness import World
from repro.obs import trace_calls

GOLDEN = pathlib.Path(__file__).with_name("golden_call_span.json")


def _one_call_world():
    """One replicated call to a 2-member troupe — the quickstart shape,
    pinned to named machines so the golden file reads naturally."""
    world = World(machines=3, seed=5,
                  machine_names=["client", "server-1", "server-2"])
    troupe, _ = world.make_troupe("echo", echo_module, degree=2,
                                  on_machines=["server-1", "server-2"])
    client = world.make_client("client")

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"hi")

    return world, body


def _trace_one_call():
    world, body = _one_call_world()
    with trace_calls(world.sim) as tracer:
        world.run(body())
    return tracer


def test_span_tree_matches_golden_file():
    tree = _trace_one_call().span_tree()
    expected = json.loads(GOLDEN.read_text())
    assert tree == expected


def test_span_tree_shape():
    tracer = _trace_one_call()
    assert len(tracer.roots) == 1
    [call] = tracer.span_tree()
    assert call["name"] == "call echo 0.0"
    assert call["client"] == "client/client"
    assert call["outcome"] == "ok"
    assert call["members"] == 2
    assert call["t1"] > call["t0"]
    assert [r["status"] for r in call["results"]] == ["ok", "ok"]
    assert call["collation"]["verdict"] == "agreed"
    assert call["collation"]["responses"] == 2
    execs = call["executions"]
    assert sorted(e["replica"].split("/")[0] for e in execs) == \
        ["server-1", "server-2"]
    for e in execs:
        assert e["outcome"] == "ok"
        # The handler charges 1 ms of compute inside the span.
        assert e["t1"] - e["t0"] >= 1.0
        assert call["t0"] <= e["t0"] <= e["t1"] <= call["t1"]


def test_chrome_export_covers_call_executions_and_collation():
    tracer = _trace_one_call()
    payload = json.loads(tracer.to_json())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"

    calls = [e for e in events if e["ph"] == "X" and e["cat"] == "rpc"]
    execs = [e for e in events if e["ph"] == "X" and e["cat"] == "rpc.exec"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]

    assert len(calls) == 1 and calls[0]["name"] == "call echo 0.0"
    assert len(execs) == 2                       # one span per replica
    assert sum(1 for e in instants
               if e["name"].startswith("collate")) == 1
    assert sum(1 for e in instants
               if e["name"].startswith("result")) == 2
    assert sum(1 for e in instants if e["name"] == "return") == 2

    # Three hosts → three process lanes, each named.
    assert sum(1 for e in meta if e["name"] == "process_name") == 3

    # ts is virtual µs: the call span must agree with the span ×1000.
    [root] = tracer.roots
    assert calls[0]["ts"] == round(root.start * 1000.0, 3)
    assert calls[0]["dur"] == round((root.end - root.start) * 1000.0, 3)

    # Virtual-time ordering survives the export.
    ts = [e["ts"] for e in events if "ts" in e and e["ph"] != "M"]
    assert ts == sorted(ts)


def test_nested_calls_attach_under_the_issuing_execution():
    world = World(machines=5, seed=9)
    inner_troupe, _ = world.make_troupe("inner", echo_module, degree=2)

    def outer_module():
        def relay(ctx, args):
            reply = yield from ctx.call(inner_troupe, 0, 0, args)
            return b"relay:" + reply
        return ExportedModule("outer", {0: relay})

    outer_troupe, _ = world.make_troupe("outer", outer_module, degree=2)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(outer_troupe, 0, 0, b"hi"))

    with trace_calls(world.sim) as tracer:
        reply = world.run(body())
    assert reply == b"relay:echo:hi"

    # Only the client's call is a root; each outer replica's nested call
    # to the inner troupe hangs off that replica's execution span.
    assert len(tracer.roots) == 1
    assert len(tracer.calls) == 3
    [root] = tracer.span_tree()
    assert root["troupe"] == "outer"
    nested = [c for e in root["executions"] for c in e["calls"]]
    assert len(nested) == 2
    for call in nested:
        assert call["troupe"] == "inner"
        assert call["outcome"] == "ok"
        assert call["thread_id"] == root["thread_id"]


if __name__ == "__main__":
    tree = _trace_one_call().span_tree()
    GOLDEN.write_text(json.dumps(tree, indent=2) + "\n")
    print("wrote %s" % GOLDEN)
