"""What an attached observer still holds once a call is over.

An observer's footprint must follow what is in flight, not the length of
the run: the critical-path analyzer folds each call into one
``CallPath`` and drops its timelines and (when they are its own) its
spans.  Pinned with ``tracemalloc`` — exact and repeatable — over calls
250 to 1,250 of the circus shape, a window in which the time-series
rings are still filling.  Before the analyzer folded it read 4,846 bytes
per call alone and 11,121 under ``watch()`` + ``observe()``; what is
left in the second figure is held on purpose (``ExactlyOnceMonitor``'s
evidence, the clock domain's bounded edge tables, the rings).  While a
stamp was a dict per event that figure read 7,398, and 5,726 under
``watch()`` alone; a stamp shared as one tuple, and one string per
thread id, make them 5,484 and 3,797.
"""

import contextlib
import gc
import tracemalloc

from repro.bench import scenarios
from repro.harness import World
from repro.obs import CritPathAnalyzer
from repro.sim import Sleep

WARM_UP, WINDOW = 250, 1000


def _circus_world():
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world.make_client()

    def body(calls):
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    return world, body


def _bytes_kept_per_call(attach):
    """Traced bytes still allocated per call of the window, with
    ``attach(world, stack)``'s observers on the bus throughout."""
    world, body = _circus_world()
    with contextlib.ExitStack() as stack:
        attach(world, stack)
        world.run(body(WARM_UP))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            world.run(body(WINDOW))
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / WINDOW
        finally:
            tracemalloc.stop()


def test_the_analyzer_alone_keeps_a_path_per_call_and_little_else():
    def attach(world, stack):
        stack.enter_context(CritPathAnalyzer(world.sim))

    assert _bytes_kept_per_call(attach) < 2000


def test_everything_attached_keeps_what_is_held_on_purpose():
    def attach(world, stack):
        stack.enter_context(world.watch())
        stack.enter_context(world.observe())

    assert _bytes_kept_per_call(attach) < 6300


def test_the_monitors_and_recorder_alone_keep_less_still():
    def attach(world, stack):
        stack.enter_context(world.watch())

    assert _bytes_kept_per_call(attach) < 4400


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
