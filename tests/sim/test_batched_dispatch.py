"""Regression tests for batched same-timestamp dispatch (the ready lane).

The kernel drains all entries sharing the current timestamp through a
FIFO lane that bypasses the heap (no push+pop per immediate callback).
These tests pin the guarantees that make the optimization invisible:
seq order is preserved exactly across batch boundaries and across the
lane/heap split, handles keep the cancel-at-most-once + freelist
contract, and the bounded ``run()`` variants (``until``/``stop_when``)
behave exactly as before.
"""

from repro.sim import Event, Simulator, Sleep


def _now(sim, fn, *args):
    """Schedule on the ready lane (what event fires / process wakes use)."""
    return sim._schedule_now(fn, *args)


# ---------------------------------------------------------------------------
# Ordering: seq order across the lane/heap split and batch boundaries
# ---------------------------------------------------------------------------

def _interleaved_world(order):
    """Same-timestamp callbacks created alternately through the heap
    (schedule at delay 0) and the lane (_schedule_now), plus nested
    same-time scheduling from inside a callback (a batch boundary)."""
    sim = Simulator()

    def tag(label):
        order.append(label)

    def nest(label):
        order.append(label)
        # scheduled mid-batch, still at the same timestamp: must run
        # after everything already queued at this time, in seq order.
        _now(sim, tag, ("nested-lane", label))
        sim.schedule(0.0, tag, ("nested-heap", label))

    for i in range(12):
        if i % 3 == 0:
            sim.schedule(0.0, tag, ("heap", i))
        elif i % 3 == 1:
            _now(sim, tag, ("lane", i))
        else:
            _now(sim, nest, ("mixed", i))
    return sim


def test_same_timestamp_seq_order_is_creation_order():
    order = []
    sim = _interleaved_world(order)
    sim.run()

    first = [label for label in order if label[0] in ("heap", "lane", "mixed")]
    assert first == [("heap", 0), ("lane", 1), ("mixed", 2),
                     ("heap", 3), ("lane", 4), ("mixed", 5),
                     ("heap", 6), ("lane", 7), ("mixed", 8),
                     ("heap", 9), ("lane", 10), ("mixed", 11)]
    # Nested same-time work runs after the first wave, still in the
    # order it was created (lane before heap for each nest call, nests
    # in their creation order).
    nested = [label for label in order if label[0].startswith("nested")]
    assert nested == [("nested-lane", ("mixed", 2)),
                      ("nested-heap", ("mixed", 2)),
                      ("nested-lane", ("mixed", 5)),
                      ("nested-heap", ("mixed", 5)),
                      ("nested-lane", ("mixed", 8)),
                      ("nested-heap", ("mixed", 8)),
                      ("nested-lane", ("mixed", 11)),
                      ("nested-heap", ("mixed", 11))]


def test_same_timestamp_order_is_deterministic():
    runs = []
    for _ in range(2):
        order = []
        sim = _interleaved_world(order)
        sim.run()
        runs.append(order)
    assert runs[0] == runs[1]


def test_batches_at_later_timestamps_preserve_order():
    """Sleep wake-ups land on the heap; event fires land on the lane.
    When both hit the same later timestamp the creation (seq) order
    still decides."""
    sim = Simulator()
    order = []
    event = Event(sim, "evt")

    def sleeper(tag):
        yield Sleep(5.0)
        order.append(("sleep", tag))

    def waiter(tag):
        value = yield event
        order.append(("event", tag, value))

    def firer():
        yield Sleep(5.0)
        event.fire("v")

    sim.spawn(sleeper("a"))
    sim.spawn(waiter("w1"))
    sim.spawn(firer())
    sim.spawn(sleeper("b"))
    sim.spawn(waiter("w2"))
    sim.run()
    # At t=5: sleeper a wakes, firer wakes and fires (waking w1, w2 on
    # the lane), sleeper b wakes — in spawn/seq order throughout.
    assert order == [("sleep", "a"), ("sleep", "b"),
                     ("event", "w1", "v"), ("event", "w2", "v")]
    assert sim.ready_dispatched > 0


# ---------------------------------------------------------------------------
# Freelist + cancellation under batching
# ---------------------------------------------------------------------------

def test_lane_cancellation_is_at_most_once_and_skips_execution():
    sim = Simulator()
    ran = []
    handles = [_now(sim, ran.append, i) for i in range(100)]
    for handle in handles[::2]:
        handle.cancel()
        handle.cancel()          # idempotent before execution
    sim.run()
    assert ran == list(range(1, 100, 2))


def test_lane_handles_are_recycled_through_the_freelist():
    sim = Simulator()
    sink = []
    for _ in range(3):
        for i in range(50):
            _now(sim, sink.append, i)
        sim.run()
    baseline = sim.calls_allocated
    # Steady state: the same 50-immediate burst must allocate nothing.
    for _ in range(5):
        for i in range(50):
            _now(sim, sink.append, i)
        sim.run()
    assert sim.calls_allocated == baseline


def test_cancelled_lane_entries_are_compacted():
    """Mass-cancelling lane entries must not leave the lane bloated
    (the compactor sweeps the lane like the heap)."""
    sim = Simulator()
    handles = [_now(sim, (lambda: None)) for _ in range(600)]
    for handle in handles:
        handle.cancel()
    # Compaction is triggered from cancel() once dead entries dominate.
    assert len(sim._ready) < 600
    assert sim.pending_events() == 0
    sim.run()
    assert sim.now == 0.0


# ---------------------------------------------------------------------------
# Bounded run() variants: the slow path is behaviour-identical
# ---------------------------------------------------------------------------

def test_run_until_stops_between_events_with_lane_pending():
    sim = Simulator()
    ran = []
    sim.schedule(5.0, ran.append, "t5")
    sim.schedule(10.0, ran.append, "t10")
    _now(sim, ran.append, "immediate")
    end = sim.run(until=7.0)
    assert ran == ["immediate", "t5"]
    assert end == 7.0 and sim.now == 7.0
    sim.run()
    assert ran == ["immediate", "t5", "t10"]


def test_run_stop_when_checks_after_each_callback():
    sim = Simulator()
    order = []
    for i in range(6):
        _now(sim, order.append, i)
    sim.run(stop_when=lambda: len(order) >= 2)
    assert order == [0, 1]
    sim.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_run_until_then_unbounded_drains_stale_lane_entries():
    """A bounded run can leave same-time entries on the lane with the
    clock stopped past their timestamp; the next run must still drain
    them before any later heap work, in seq order."""
    sim = Simulator()
    order = []

    def at_five():
        order.append("t5")
        _now(sim, order.append, "t5-immediate-1")
        _now(sim, order.append, "t5-immediate-2")

    sim.schedule(5.0, at_five)
    sim.schedule(9.0, order.append, "t9")
    sim.run(stop_when=lambda: order)
    assert order == ["t5"]
    sim.run(until=7.0)
    assert order == ["t5", "t5-immediate-1", "t5-immediate-2"]
    assert sim.now == 7.0
    # New immediate work at t=7 goes behind nothing; heap work at t=9
    # still runs last.
    _now(sim, order.append, "t7-immediate")
    sim.run()
    assert order == ["t5", "t5-immediate-1", "t5-immediate-2",
                     "t7-immediate", "t9"]


def test_schedule_now_after_clock_rewind_falls_back_to_heap():
    """run(until=...) can stop the clock *before* pending lane entries'
    timestamps ever existed; a subsequent _schedule_now at an earlier
    now must not break lane monotonicity (it detours via the heap)."""
    sim = Simulator()
    order = []

    def at_five():
        order.append("t5")
        _now(sim, order.append, "t5-immediate")

    sim.schedule(5.0, at_five)
    sim.run(stop_when=lambda: order)   # lane holds an entry stamped t=5
    assert sim.now == 5.0
    # The lane's tail is t=5; an immediate at t=5 appends in seq order.
    _now(sim, order.append, "second-immediate")
    sim.run()
    assert order == ["t5", "t5-immediate", "second-immediate"]
    assert sim.pending_events() == 0
