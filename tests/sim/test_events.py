"""Tests for Condition and Queue primitives."""

import pytest

from repro.sim import Condition, Queue, QueueClosed, Simulator, Sleep
from repro.sim.events import is_closed_marker


def test_condition_wakes_current_waiters_only():
    sim = Simulator()
    cond = Condition(sim, "c")
    woken = []

    def waiter(tag):
        value = yield cond
        woken.append((tag, value, sim.now))

    sim.spawn(waiter("early"))

    def signaller():
        yield Sleep(1.0)
        cond.signal("first")
        yield Sleep(1.0)
        cond.signal("second")  # nobody waiting; signal is lost

    sim.spawn(signaller())
    sim.run()
    assert woken == [("early", "first", 1.0)]


def test_condition_reusable_across_signals():
    sim = Simulator()
    cond = Condition(sim, "c")
    values = []

    def waiter():
        for _ in range(3):
            value = yield cond
            values.append(value)

    def signaller():
        for i in range(3):
            yield Sleep(1.0)
            cond.signal(i)

    sim.spawn(waiter())
    sim.spawn(signaller())
    sim.run()
    assert values == [0, 1, 2]


def test_queue_put_then_get():
    sim = Simulator()
    q = Queue(sim, "q")
    q.put("a")
    q.put("b")

    def body():
        x = yield q.get()
        y = yield q.get()
        return [x, y]

    assert sim.run_process(body()) == ["a", "b"]


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = Queue(sim, "q")

    def consumer():
        item = yield q.get()
        return item, sim.now

    def producer():
        yield Sleep(4.0)
        q.put("late")

    sim.spawn(producer())
    assert sim.run_process(consumer()) == ("late", 4.0)


def test_queue_fifo_order_for_getters():
    sim = Simulator()
    q = Queue(sim, "q")
    got = []

    def consumer(tag):
        item = yield q.get()
        got.append((tag, item))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))

    def producer():
        yield Sleep(1.0)
        q.put("x")
        q.put("y")

    sim.spawn(producer())
    sim.run()
    assert got == [("first", "x"), ("second", "y")]


def test_queue_get_nowait():
    sim = Simulator()
    q = Queue(sim, "q")
    with pytest.raises(LookupError):
        q.get_nowait()
    q.put(1)
    assert q.get_nowait() == 1


def test_queue_len():
    sim = Simulator()
    q = Queue(sim, "q")
    assert len(q) == 0
    q.put(1)
    q.put(2)
    assert len(q) == 2


def test_queue_close_delivers_marker():
    sim = Simulator()
    q = Queue(sim, "q")

    def consumer():
        item = yield q.get()
        return is_closed_marker(item)

    def closer():
        yield Sleep(1.0)
        q.close()

    sim.spawn(closer())
    assert sim.run_process(consumer()) is True


def test_queue_put_after_close_rejected():
    sim = Simulator()
    q = Queue(sim, "q")
    q.close()
    with pytest.raises(QueueClosed):
        q.put(1)


def test_queues_that_never_waited_share_nothing_that_fills():
    """A queue takes a deque of its own on first use; one that has had
    neither a waiting item nor a waiting getter must not see another's."""
    sim = Simulator()
    with_item, with_getter, idle = (Queue(sim, name) for name in "abc")
    with_item.put("x")

    def consumer():
        yield with_getter.get()

    sim.spawn(consumer())
    sim.run()
    assert len(with_item) == 1 and len(with_getter) == 0
    assert len(idle) == 0
    assert "0 items, 0 getters" in repr(idle)
    assert "1 items, 0 getters" in repr(with_item)
    assert "0 items, 1 getters" in repr(with_getter)
    with pytest.raises(LookupError):
        idle.get_nowait()
