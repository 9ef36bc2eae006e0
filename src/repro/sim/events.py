"""Synchronization primitives for simulated processes.

All of these are *waitables*: a process suspends on one with ``yield``.

- :class:`Event` — one-shot, value-carrying.  Waiting on an already-fired
  event resumes immediately with the stored value.
- :class:`Condition` — reusable broadcast signal (the paper's protocol code
  awaits ``troupe.status_change``; this is that construct).
- :class:`Queue` — unbounded FIFO with blocking ``get``.

Hot-path design: waiter cancellation is O(1).  A subscription is a
:class:`_Waiter` cell; cancelling it nulls the cell in place (a
*tombstone*) instead of an O(n) ``list.remove``.  Wake-ups skip
tombstones, and a primitive that accumulates cancelled cells without
ever waking (e.g. a transfer-done event polled by a retransmission loop)
compacts its waiter list once tombstones dominate, and drops it for the
shared empty one once no live waiter is left — so repeated
subscribe/cancel cycles cannot grow memory, and wake order over live
waiters is exactly subscription order, as before.
"""

from __future__ import annotations

import collections
from typing import Any, Callable, Deque, List, Optional

from repro.sim.kernel import Simulator

#: tombstones tolerated in a waiter list before an in-place compaction.
_COMPACT_MIN_DEAD = 8

#: what every :class:`Queue` holds in place of a deque while no item waits
#: in it.  Shared, so never appended to: a queue swaps in a deque of its
#: own (``is _NO_DEQUE``) before an append, and drops it when it drains.
_NO_DEQUE: Deque[Any] = collections.deque()

#: the waiter list of every primitive nothing waits on: an
#: :class:`Event`, :class:`Condition` or :class:`Queue` holds it before
#: its first wait and again once its last waiter is woken or cancelled.
#: Shared, so never appended to: a primitive swaps in a list of its own
#: (``is _NO_WAITERS``) first.
_NO_WAITERS: List["_Waiter"] = []


class _Waiter:
    """One waiter cell: ``resume`` is nulled on cancellation or consumption.

    This object is also the cancellation handle the kernel holds while
    the process is suspended (the ``cancel()`` protocol)."""

    __slots__ = ("resume", "owner")

    def __init__(self, owner: Any, resume: Callable[[Any], None]):
        self.owner: Any = owner
        self.resume: Optional[Callable[[Any], None]] = resume

    def cancel(self) -> None:
        if self.resume is not None:
            self.resume = None
            owner = self.owner
            self.owner = None
            owner._waiter_cancelled()


def _without_dead(waiters: List["_Waiter"], dead: int):
    """``(waiters, dead)`` after a cancellation left ``dead`` tombstones in
    ``waiters``: the shared empty once every cell is dead, compacted once
    tombstones dominate, else as they were."""
    if dead == len(waiters):
        return _NO_WAITERS, 0
    if dead > _COMPACT_MIN_DEAD and dead * 2 >= len(waiters):
        return [w for w in waiters if w.resume is not None], 0
    return waiters, dead


class Event:
    """A one-shot event carrying an optional value.

    ``fire(value)`` wakes every current waiter with ``value`` and causes all
    future waits to resume immediately.  Firing twice is an error: one-shot
    means one shot.
    """

    __slots__ = ("sim", "name", "fired", "value", "_waiters", "_dead")

    def __init__(self, sim: Simulator, name: str = "event"):
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: List[_Waiter] = _NO_WAITERS
        self._dead = 0

    def __repr__(self) -> str:
        state = "fired" if self.fired else "pending"
        return "<Event %s (%s)>" % (self.name, state)

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise RuntimeError("event %s fired twice" % self.name)
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = _NO_WAITERS
            self._dead = 0
            schedule_now = self.sim._schedule_now
            for waiter in waiters:
                resume = waiter.resume
                if resume is not None:
                    waiter.resume = None
                    waiter.owner = None
                    schedule_now(resume, value)

    def _subscribe(self, resume: Callable[[Any], None]):
        if self.fired:
            return self.sim._schedule_now(resume, self.value)
        waiter = _Waiter(self, resume)
        waiters = self._waiters
        if waiters is _NO_WAITERS:
            waiters = self._waiters = []
        waiters.append(waiter)
        return waiter

    def _waiter_cancelled(self) -> None:
        self._waiters, self._dead = _without_dead(self._waiters,
                                                  self._dead + 1)


class Condition:
    """A reusable broadcast signal.

    Each ``signal(value)`` wakes all processes waiting *at that moment*.
    Unlike :class:`Event`, a signal with no waiters is lost — exactly the
    semantics of condition variables, so code must re-check its predicate
    in a loop.
    """

    __slots__ = ("sim", "name", "_waiters", "_dead")

    def __init__(self, sim: Simulator, name: str = "condition"):
        self.sim = sim
        self.name = name
        self._waiters: List[_Waiter] = _NO_WAITERS
        self._dead = 0

    def __repr__(self) -> str:
        return "<Condition %s (%d waiting)>" % (
            self.name, len(self._waiters) - self._dead)

    def signal(self, value: Any = None) -> None:
        waiters = self._waiters
        if waiters:
            self._waiters = _NO_WAITERS
            self._dead = 0
            schedule_now = self.sim._schedule_now
            for waiter in waiters:
                resume = waiter.resume
                if resume is not None:
                    waiter.resume = None
                    waiter.owner = None
                    schedule_now(resume, value)

    def _subscribe(self, resume: Callable[[Any], None]):
        waiter = _Waiter(self, resume)
        waiters = self._waiters
        if waiters is _NO_WAITERS:
            waiters = self._waiters = []
        waiters.append(waiter)
        return waiter

    def _waiter_cancelled(self) -> None:
        self._waiters, self._dead = _without_dead(self._waiters,
                                                  self._dead + 1)


class QueueClosed(Exception):
    """Raised by ``Queue.get`` after ``close()`` once the queue drains."""


class _QueueGet:
    """Waitable returned by ``Queue.get()``."""

    __slots__ = ("queue",)

    def __init__(self, queue: "Queue"):
        self.queue = queue

    def _subscribe(self, resume: Callable[[Any], None]):
        return self.queue._subscribe_get(resume)


class Queue:
    """An unbounded FIFO queue between simulated processes.

    ``put`` never blocks.  ``get()`` returns a waitable; the waiting process
    resumes with the next item.  Items are delivered to getters in FIFO
    order of both items and getters.

    An empty deque is 760 bytes and most queues of a large world hold an
    item only for moments, so ``_items`` is :data:`_NO_DEQUE` whenever no
    item waits there.  Getters wait one at a time, so they are a list
    (the shared :data:`_NO_WAITERS` whenever no getter waits).
    """

    __slots__ = ("sim", "name", "_items", "_getters", "_dead", "closed",
                 "_get_waitable")

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = _NO_DEQUE
        self._getters: List[_Waiter] = _NO_WAITERS
        self._dead = 0
        self.closed = False
        # _QueueGet is stateless (it only forwards _subscribe to this
        # queue), so one shared instance serves every get() call.
        self._get_waitable = _QueueGet(self)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return "<Queue %s (%d items, %d getters)>" % (
            self.name, len(self._items), len(self._getters) - self._dead)

    def _pop_live_getter(self):
        """The oldest live getter, discarding tombstones — or None."""
        getters = self._getters
        while getters:
            waiter = getters.pop(0)
            resume = waiter.resume
            if resume is None:
                self._dead -= 1
                continue
            waiter.resume = None
            waiter.owner = None
            if len(getters) == self._dead:
                self._getters = _NO_WAITERS
                self._dead = 0
            return resume
        return None

    def put(self, item: Any) -> None:
        if self.closed:
            raise QueueClosed("put on closed queue %s" % self.name)
        resume = self._pop_live_getter()
        if resume is not None:
            self.sim._schedule_now(resume, item)
        else:
            items = self._items
            if items is _NO_DEQUE:
                items = self._items = collections.deque()
            items.append(item)

    def get(self) -> _QueueGet:
        return self._get_waitable

    def push_front(self, item: Any) -> None:
        """Put an item back at the head of the queue (used by select-style
        peeking that must not consume data)."""
        if self.closed:
            raise QueueClosed("push_front on closed queue %s" % self.name)
        resume = self._pop_live_getter()
        if resume is not None:
            self.sim._schedule_now(resume, item)
        else:
            items = self._items
            if items is _NO_DEQUE:
                items = self._items = collections.deque()
            items.appendleft(item)

    def get_nowait(self) -> Any:
        """Return the next item or raise LookupError if empty."""
        items = self._items
        if not items:
            raise LookupError("queue %s is empty" % self.name)
        item = items.popleft()
        if not items:
            self._items = _NO_DEQUE
        return item

    def close(self) -> None:
        """Close the queue: pending getters receive QueueClosed markers."""
        self.closed = True
        while True:
            resume = self._pop_live_getter()
            if resume is None:
                break
            self.sim._schedule_now(resume, _CLOSED)

    def _subscribe_get(self, resume: Callable[[Any], None]):
        items = self._items
        if items:
            item = items.popleft()
            if not items:
                self._items = _NO_DEQUE
            return self.sim._schedule_now(resume, item)
        if self.closed:
            return self.sim._schedule_now(resume, _CLOSED)
        waiter = _Waiter(self, resume)
        getters = self._getters
        if getters is _NO_WAITERS:
            getters = self._getters = []
        getters.append(waiter)
        return waiter

    def _waiter_cancelled(self) -> None:
        self._getters, self._dead = _without_dead(self._getters,
                                                  self._dead + 1)


class _ClosedMarker:
    """Sentinel delivered to getters of a closed, drained queue."""

    def __repr__(self) -> str:
        return "<queue closed>"


_CLOSED = _ClosedMarker()


def is_closed_marker(value: Any) -> bool:
    """True if a value received from ``Queue.get`` means the queue closed."""
    return value is _CLOSED
