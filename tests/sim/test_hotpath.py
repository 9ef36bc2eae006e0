"""Regression tests for the kernel hot-path optimizations.

These pin the *observable guarantees* of the optimization pass (see
docs/PERFORMANCE.md): O(1) pending-event counting, bounded heap growth
under lazily-cancelled timers, freelist reuse, and the determinism of
the perf counters the CI gate reads.
"""

import pytest

from repro.sim import AnyOf, Event, Queue, Simulator, Sleep, SleepUntil
from repro.sim.events import QueueClosed


# ---------------------------------------------------------------------------
# Queue.push_front on a closed queue (bug fix)
# ---------------------------------------------------------------------------

def test_push_front_on_closed_queue_raises():
    sim = Simulator()
    queue = Queue(sim, "q")
    queue.close()
    with pytest.raises(QueueClosed):
        queue.push_front("item")


def test_put_on_closed_queue_still_raises():
    sim = Simulator()
    queue = Queue(sim, "q")
    queue.close()
    with pytest.raises(QueueClosed):
        queue.put("item")


def test_shared_get_waitable_serves_multiple_getters():
    """get() returns one shared waitable per queue; concurrent getters
    must still each receive their own item, in FIFO order."""
    sim = Simulator()
    queue = Queue(sim, "q")
    got = []

    def getter(tag):
        item = yield queue.get()
        got.append((tag, item))

    sim.spawn(getter("a"))
    sim.spawn(getter("b"))
    sim.run()
    queue.put(1)
    queue.put(2)
    sim.run()
    assert got == [("a", 1), ("b", 2)]


# ---------------------------------------------------------------------------
# O(1) pending_events
# ---------------------------------------------------------------------------

def test_pending_events_counts_live_entries():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), (lambda: None).__call__)
               for i in range(10)]
    assert sim.pending_events() == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending_events() == 6
    sim.run()
    assert sim.pending_events() == 0


def test_pending_events_settles_after_each_run_slice():
    sim = Simulator()
    seen = []

    def worker():
        for _ in range(5):
            yield Sleep(1.0)
        seen.append(1)

    sim.spawn(worker())
    sim.run(until=2.5)
    # one timer (the next wake-up) remains armed
    assert sim.pending_events() == 1
    sim.run()
    assert seen == [1]
    assert sim.pending_events() == 0


# ---------------------------------------------------------------------------
# Bounded heap under lazily-cancelled timers
# ---------------------------------------------------------------------------

def test_cancelled_timers_do_not_bloat_the_heap():
    """Each cancel is O(1) (lazy), but compaction must keep the heap
    proportional to the *live* entries, not the cancellation history."""
    sim = Simulator()

    def churner():
        for _ in range(2000):
            handle = sim.schedule(10_000.0, lambda _=None: None, None)
            handle.cancel()
            yield Sleep(0.01)

    sim.run_process(churner())
    assert len(sim._queue) < 200          # 2000 cancels, bounded residue
    assert sim.pending_events() == 0


def test_retransmit_pattern_keeps_queue_bounded():
    """The protocol shape that motivated compaction: every transfer arms
    a retransmission timeout that is cancelled when the ack wins the
    AnyOf race.  Hundreds of acked transfers must not grow the heap."""
    sim = Simulator()

    def transfer():
        done = Event(sim, "ack")
        sim.schedule(0.5, done.fire)               # the "ack" arrives
        index, _value = yield AnyOf(done, Sleep(1_000.0))
        assert index == 0                          # ack, not timeout

    def client():
        for _ in range(500):
            yield from transfer()

    sim.run_process(client())
    assert len(sim._queue) < 200
    assert sim.pending_events() == 0


# ---------------------------------------------------------------------------
# Freelist reuse and perf-counter determinism
# ---------------------------------------------------------------------------

def test_steady_state_scheduling_reuses_handles():
    sim = Simulator()

    def worker():
        for _ in range(1000):
            yield Sleep(1.0)

    for _ in range(10):
        sim.spawn(worker())
    sim.run()
    snapshot = sim.perf_snapshot()
    assert snapshot["callbacks_run"] == 10 * 1000 + 10
    # One handle per concurrent process covers the whole run: the
    # freelist recycles them, so allocations stay at the concurrency
    # plateau instead of one per event.
    assert snapshot["calls_allocated"] <= 20


def test_absolute_time_sleeps_reuse_handles_too():
    """``SleepUntil`` arms through the same inlined freelist path as
    ``Sleep``: mixing the two allocates nothing past the plateau."""
    sim = Simulator()

    def worker():
        for _ in range(500):
            yield SleepUntil((sim.now + 0.4) + 0.6)
            yield Sleep(1.0)

    for _ in range(10):
        sim.spawn(worker())
    sim.run(until=100.0)
    plateau = sim.calls_allocated
    sim.run()
    snapshot = sim.perf_snapshot()
    assert snapshot["callbacks_run"] == 10 * 1000 + 10
    assert snapshot["calls_allocated"] == plateau <= 20


def test_perf_counters_are_deterministic():
    def run_once():
        sim = Simulator()
        queue = Queue(sim, "q")

        def producer():
            for i in range(50):
                queue.put(i)
                yield Sleep(1.0)

        def consumer():
            total = 0
            for _ in range(50):
                total += yield queue.get()
            return total

        sim.spawn(producer())
        proc = sim.spawn(consumer())
        sim.run()
        snap = sim.perf_snapshot()
        return proc.result, snap["callbacks_run"], snap["calls_allocated"]

    assert run_once() == run_once()


def test_cancel_is_idempotent_before_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    handle.cancel()                                # second cancel: no-op
    sim.run()
    assert seen == []
    assert sim.pending_events() == 0
