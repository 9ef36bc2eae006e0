"""What an attached observer still holds once a call is over.

An observer's footprint must follow what is in flight, not the length of
the run: the critical-path analyzer folds each call into one row of flat
columns and drops its timelines and (when they are its own) its spans.
Pinned by a heap census (``tests/census.py``) after 250 calls of the
circus shape and again after 250 more, in a fresh interpreter, with each
probe's observers attached and with none: what the observers add to what
each call leaves behind is held, type by type and in dict entries, to a
table within half an object per call, and its bytes to a bound.  The
bare world is held to its own table, so that what it keeps is caught
there and cannot hide in the subtraction: 265 B a call in this window,
none of it a leak.  The window straddles the end of CPython's shared
small ints (0 to 256): each server runtime's 256 remembered results and
each endpoint's 128 delivered call numbers per peer come to be keyed by
call numbers with an int object of their own, 4.6 ints a call; over
calls 1,000 to 3,000 the world keeps 0.4 B a call.  A world whose calls
take the first reply keeps the same in this window (256 B).  What is
left under ``watch()`` + ``observe()`` is held on purpose: the rows
``ExactlyOnceMonitor`` and ``TroupeDeterminismMonitor`` keep of each
execution (flat arrays, so bytes but no object), the clock domain's
bounded edge tables (an int key and the sender's stamp packed into one
``bytes`` an entry: three RETURN edges, a call edge and a return edge a
call) and the time-series rings, still filling in this window.

Over the bare world, the analyzer adds 72 B a call (708 while it kept a
``CallPath`` per call), ``watch()`` 1,671 and both 2,926; absolute, the
analyzer keeps 338 (984) and both 3,191.  While an edge was a key tuple
and the sender's stamp tuple, ``watch()`` added 2,405 and both 3,660
(10 tuples and 19 ints a call where 5 ``bytes`` and 5.3 ints are now);
while the two monitors kept the events themselves and an edge held a
``(vector, lamport)`` pair, 3,129 and 4,382 (5,063 before the analyzer
folded), 4,647 absolute.  Calls decided by their first reply add 927
under ``watch()`` over their own bare world (1,265 with tuple edges), as
the collation monitor lets such a call go at its ``rpc.call_end``; they
added 2,598 while it kept a ``CallStarted``, a ``ReplicaResult`` and a
list of each waiting for a final verdict that never comes (and the
monitors above kept the execution events).  The bounds are at most 10 %
above those figures: 300 for the world, 200 for the analyzer, 1,800 for
``watch()``, 3,200 for both and 1,010 for first-reply calls.  Traced,
the analyzer read 4,846 alone and 11,121 under both before it folded;
while a stamp was a dict per event, 7,398 under both and 5,726 under
``watch()``.
"""

import contextlib
import functools
import json
import os
import subprocess
import sys
from array import array

import repro
from repro.bench import scenarios
from repro.core import first_come
from repro.harness import World
from repro.obs import CritPathAnalyzer
from repro.sim import Sleep
from tests.census import census

WARM_UP, WINDOW = 250, 250


def _circus_world(collator=None):
    """The circus shape; ``collator`` makes each call's collator (None:
    the default unanimous one)."""
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world.make_client()

    def body(calls):
        for i in range(calls):
            yield from client.call_troupe(
                troupe, 0, 0, b"ping %d" % i,
                collator=None if collator is None else collator())

    return world, body


#: probe -> (the observers it puts on the bus, from before the warm-up
#: on; the collator its calls use, None for the unanimous one)
_PROBES = {
    "world": (lambda world: [], None),
    "analyzer": (lambda world: [CritPathAnalyzer(world.sim)], None),
    "watch": (lambda world: [world.watch()], None),
    "everything": (lambda world: [world.watch(), world.observe()], None),
    "first-come world": (lambda world: [], first_come),
    "first-come": (lambda world: [world.watch()], first_come),
}


def _probe(name):
    """What each call of the window left behind under ``name``'s
    observers: objects by type name, ``"dict entries"`` and
    ``"heap bytes"``."""
    observers, collator = _PROBES[name]
    world, body = _circus_world(collator)
    with contextlib.ExitStack() as stack:
        for observer in observers(world):
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


def _bytes_kept_per_call(name, keeps, over="world"):
    """Check what ``name``'s observers added to each call of the window
    over the bare probe ``over`` (None: what ``name`` kept itself)
    against ``keeps`` (type name -> objects, and ``"dict entries"``), to
    within half an object; return those bytes."""
    probed = _probed()
    kept, bare = probed[name], {} if over is None else probed[over]
    added = {kind: kept.get(kind, 0) - bare.get(kind, 0)
             for kind in kept.keys() | bare.keys()}
    size = added.pop("heap bytes")
    for kind in added.keys() | keeps.keys():
        assert abs(added.get(kind, 0) - keeps.get(kind, 0)) < 0.5, (
            kind, added)
    return size


def test_the_world_alone_keeps_only_call_numbers_past_the_small_ints():
    for bare in ("world", "first-come world"):
        assert _bytes_kept_per_call(bare, {
            "int": 4.6, "tuple": 0.1, "dict entries": 0.1}, over=None) < 300


def test_the_analyzer_alone_keeps_no_object_per_call():
    assert _bytes_kept_per_call("analyzer", {}) < 200


def test_everything_attached_keeps_what_is_held_on_purpose():
    assert _bytes_kept_per_call("everything", {
        "_Sketch": 1, "dict": 1, "bytes": 5, "float": 2, "int": 12.4,
        "dict entries": 13}) < 3200


def test_the_monitors_and_recorder_alone_keep_less_still():
    assert _bytes_kept_per_call("watch", {
        "bytes": 5, "int": 5.3, "dict entries": 5}) < 1800


def test_a_call_decided_by_its_first_reply_is_let_go_at_its_end():
    """A first-come verdict is ``decided_early``, never final: what such
    a call leaves under ``watch()`` is its two call-level edges, and
    nothing of the collation monitor's."""
    assert _bytes_kept_per_call("first-come", {
        "bytes": 2, "int": 2.4, "dict entries": 2},
        over="first-come world") < 1010


def test_what_is_held_shares_its_stamps_and_thread_ids():
    """A passive event between two ticks shares its node's one ``ahead``
    tuple; a ``pm.send``'s edge value is its event's stamp, packed; every
    rpc event of one thread carries the one thread-id string."""
    world, body = _circus_world()
    seen = []
    edges = []
    with world.watch() as probe:
        world.sim.bus.subscribe(seen.append)
        domain = probe.clocks

        def edge_of(e):
            channel = domain._channels[e.endpoint, e.msg_type, e.peer]
            return domain._pm_edges[e.call_number << 32 | channel]
        world.sim.bus.subscribe(lambda e: edges.append((e, edge_of(e))),
                                "pm.send")
        world.run(body(6))
    assert len(edges) > 30
    assert all(edge == array("q", e._vt).tobytes() for e, edge in edges)
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
        # ... while the analyzer keeps one folded row each and the
        # timeline of the one call that ended at this very instant.
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
