"""A general timer package multiplexed over a single interval timer.

Berkeley 4.2BSD gave Circus exactly one interval timer per process
(``setitimer``), so the paper built "a general timer package ... on top of
the single interval timer" (§4.2.4).  This module reproduces that design:
any number of :class:`Timer` objects are multiplexed over one underlying
alarm, and every re-arm of the underlying alarm can be charged to the
owning process via the ``on_arm`` hook (that is how ``setitimer`` shows up
in the execution profile of Table 4.3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs import events as obs_events
from repro.sim.kernel import Simulator


class Timer:
    """A single timeout: fires ``callback(*args)`` after ``interval``."""

    __slots__ = ("interval", "callback", "args", "deadline", "active", "service")

    def __init__(self, service: "TimerService", interval: float,
                 callback: Callable, args: tuple):
        self.service = service
        self.interval = interval
        self.callback = callback
        self.args = args
        self.deadline = 0.0
        self.active = False

    def start(self) -> "Timer":
        self.service._start(self)
        return self

    def stop(self) -> None:
        self.service._stop(self)

    def restart(self) -> None:
        self.service._stop(self)
        self.service._start(self)

    def __repr__(self) -> str:
        state = "active(deadline=%.3f)" % self.deadline if self.active else "stopped"
        return "<Timer %s %s>" % (self.interval, state)


class TimerService:
    """Multiplexes many timers over one simulated interval timer.

    ``on_arm`` is invoked every time the underlying alarm is (re)armed —
    the host layer uses it to charge a ``setitimer`` system call to the
    owning process, reproducing the accounting in the paper.
    """

    def __init__(self, sim: Simulator,
                 on_arm: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.on_arm = on_arm
        self._timers: List[Timer] = []
        self._alarm = None  # the single underlying scheduled call
        self._alarm_deadline: Optional[float] = None

    def timer(self, interval: float, callback: Callable, *args: Any) -> Timer:
        """Create a (stopped) timer; call ``.start()`` to arm it."""
        return Timer(self, interval, callback, args)

    def after(self, interval: float, callback: Callable, *args: Any) -> Timer:
        """Create and immediately start a timer."""
        return self.timer(interval, callback, *args).start()

    def cancel_all(self) -> None:
        for timer in list(self._timers):
            self._stop(timer)

    def active_count(self) -> int:
        return len(self._timers)

    # -- internals ---------------------------------------------------------

    def _start(self, timer: Timer) -> None:
        if timer.active:
            raise RuntimeError("timer already active: %r" % timer)
        timer.deadline = self.sim.now + timer.interval
        timer.active = True
        self._timers.append(timer)
        self._rearm()

    def _stop(self, timer: Timer) -> None:
        if not timer.active:
            return
        timer.active = False
        self._timers.remove(timer)
        self._rearm()

    def _rearm(self) -> None:
        """Point the single underlying alarm at the earliest deadline."""
        next_deadline = min((t.deadline for t in self._timers), default=None)
        if next_deadline == self._alarm_deadline:
            return
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None
        self._alarm_deadline = next_deadline
        if next_deadline is None:
            return
        delay = max(0.0, next_deadline - self.sim.now)
        self._alarm = self.sim.schedule(delay, self._alarm_fired)
        if self.on_arm is not None:
            self.on_arm()

    def _alarm_fired(self) -> None:
        self._alarm = None
        self._alarm_deadline = None
        now = self.sim.now
        due = [t for t in self._timers if t.deadline <= now]
        if due and "sim.timer" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.TimerFired(t=now, due=len(due)))
        for timer in due:
            timer.active = False
            self._timers.remove(timer)
        self._rearm()
        for timer in due:
            timer.callback(*timer.args)
