"""What an attached observer still holds once a call is over.

An observer's footprint must follow what is in flight, not the length of
the run: the critical-path analyzer folds each call into one
``CallPath`` and drops its timelines and (when they are its own) its
spans.  Pinned by a heap census (``tests/census.py``) after 250 calls of
the circus shape and again after 250 more, in a fresh interpreter: each
probe holds what a call leaves behind, type by type and in dict entries,
to a table within half an object per call, and its bytes to a bound.
What is left under ``watch()`` + ``observe()`` is held on purpose
(``ExactlyOnceMonitor``'s evidence, the clock domain's bounded edge
tables, the time-series rings, still filling in this window).

The byte bounds keep the headroom they had over the traced bytes per
call of calls 250 to 1,250 (2,000 over 1,019 alone, 4,400 over 3,745
under ``watch()``, 6,300 over 5,431 under both) on the census bytes of
the same code (984, 3,394, 5,329).  Traced, the analyzer read 4,846
alone and 11,121 under both before it folded; while a stamp was a dict
per event, 7,398 under both and 5,726 under ``watch()``.
"""

import contextlib
import functools
import json
import os
import subprocess
import sys

import repro
from repro.bench import scenarios
from repro.harness import World
from repro.obs import CritPathAnalyzer
from repro.sim import Sleep
from tests.census import census

WARM_UP, WINDOW = 250, 250


def _circus_world():
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world.make_client()

    def body(calls):
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    return world, body


#: probe -> the observers it puts on the bus, from before the warm-up on
_PROBES = {
    "analyzer": lambda world: [CritPathAnalyzer(world.sim)],
    "watch": lambda world: [world.watch()],
    "everything": lambda world: [world.watch(), world.observe()],
}


def _probe(name):
    """What each call of the window left behind under ``name``'s
    observers: objects by type name, ``"dict entries"`` and
    ``"heap bytes"``."""
    world, body = _circus_world()
    with contextlib.ExitStack() as stack:
        for observer in _PROBES[name](world):
            stack.enter_context(observer)
        world.run(body(WARM_UP))
        before = census()
        world.run(body(WINDOW))
        after = census(before)
    kept = {cls.__name__: n / WINDOW for cls, n in (after - before).items()}
    kept["dict entries"] = (after.keys - before.keys) / WINDOW
    kept["heap bytes"] = (after.bytes - before.bytes) / WINDOW
    return kept


@functools.cache
def _probed():
    """Every probe, in one fresh interpreter: there a census counts the
    probed world, not what an earlier test left behind and lets go of
    during the window."""
    tests = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(repro.__file__)),
        os.path.dirname(tests), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import json\n"
         "from tests.obs.test_retention import _PROBES, _probe\n"
         "print(json.dumps({name: _probe(name) for name in _PROBES}))"],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=300,
        stdout=subprocess.PIPE).stdout
    return json.loads(out)


def _bytes_kept_per_call(name, keeps):
    """Check what each call of ``name``'s window kept against ``keeps``
    (type name -> objects, and ``"dict entries"``), to within half an
    object; return the bytes it kept."""
    kept = dict(_probed()[name])
    size = kept.pop("heap bytes")
    for kind in kept.keys() | keeps.keys():
        assert abs(kept.get(kind, 0) - keeps.get(kind, 0)) < 0.5, (
            kind, kept)
    return size


def test_the_analyzer_alone_keeps_a_path_per_call_and_little_else():
    assert _bytes_kept_per_call("analyzer", {
        "CallPath": 1, "CallRef": 1, "list": 1,
        "tuple": 4.1, "float": 5, "int": 5.6, "str": 1.1}) < 1930


def test_everything_attached_keeps_what_is_held_on_purpose():
    assert _bytes_kept_per_call("everything", {
        "CallPath": 1, "CallRef": 1, "list": 1, "ExecutionStarted": 3,
        "_Sketch": 1, "dict": 1, "tuple": 23.1, "float": 13,
        "int": 36.7, "str": 1.1, "dict entries": 16.1}) < 6180


def test_the_monitors_and_recorder_alone_keep_less_still():
    assert _bytes_kept_per_call("watch", {
        "ExecutionStarted": 3, "tuple": 19.1, "float": 3, "int": 29.6,
        "dict entries": 8.1}) < 3980


def test_what_is_held_shares_its_stamps_and_thread_ids():
    """A passive event between two ticks shares its node's one ``ahead``
    tuple; a ``pm.send``'s edge entry *is* its event's tuple; every rpc
    event of one thread carries the one thread-id string."""
    world, body = _circus_world()
    seen = []
    edges = []
    with world.watch() as probe:
        world.sim.bus.subscribe(seen.append)
        pm_edges = probe.clocks._pm_edges
        world.sim.bus.subscribe(lambda e: edges.append((e, pm_edges[
            e.endpoint, e.msg_type, e.call_number, e.peer])), "pm.send")
        world.run(body(6))
    assert len(edges) > 30
    assert all(edge[0] is e._vt for e, edge in edges)
    between_ticks = {}                  # node -> its passive events since
    for e in seen:
        if e.causal:
            between_ticks[e.node] = []
        else:
            run = between_ticks.setdefault(e.node, [])
            run.append(e)
            assert run[0]._vt is e._vt
    assert max(map(len, between_ticks.values())) > 1
    rpc = [e for e in seen if e.kind.startswith("rpc.")]
    assert len(rpc) > 30 and all(e.thread_id for e in rpc)
    assert len({id(e.thread_id) for e in rpc}) == 1


def test_a_callers_tracer_still_holds_every_span():
    world, body = _circus_world()
    with world.watch(trace=True) as probe:
        world.run(body(60))
        analyzer, tracer = probe.critpath, probe.tracer
        assert analyzer.tracer is tracer
        assert len(tracer.calls) == len(tracer.roots) == 60
        assert len(tracer.execs) == 180
        assert all(len(call.execs) == 3 and len(call.results) == 3
                   for call in tracer.calls)
        # ... while the analyzer keeps one path each and the timeline of
        # the one call that ended at this very instant.
        assert len(analyzer.paths()) == 60
        assert list(analyzer._sends) == [tracer.calls[-1].call_number]
    assert len(tracer.to_chrome()["traceEvents"]) > 60 * 8


def test_nothing_is_held_for_a_call_that_is_over():
    """A RETURN is retransmitted until the next exchange acknowledges it:
    after the last call of a run those retransmissions arrive with no
    call left to read them."""
    world, body = _circus_world()
    late = []

    def idle():
        yield Sleep(400.0)

    with world.observe() as obs:
        world.run(body(20))
        last_end = world.sim.now
        sub = world.sim.bus.subscribe(late.append, "pm.retransmit")
        world.run(idle())
        world.sim.bus.unsubscribe(sub)
        assert late and all(event.t > last_end for event in late)
        analyzer = obs.critpath
        assert not analyzer._sends and not analyzer._retransmits
        assert not analyzer._in_flight and not analyzer._ended
        assert not analyzer.tracer._open_calls
    assert not analyzer._sends and not analyzer._retransmits
    assert len(analyzer.paths()) == 20
    assert analyzer.report()["degraded_calls"] == 0
