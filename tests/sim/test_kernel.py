"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Event,
    ProcessKilled,
    Queue,
    SimulationError,
    Simulator,
    Sleep,
    SleepUntil,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_schedule_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_call_does_not_run():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_a_cancel_that_outlived_its_callback_is_a_detected_no_op():
    """A handle names one scheduling.  Its pooled entry serves the next
    callback once this one has run, and a late cancel must not drop that
    stranger: it does nothing and says so."""
    sim = Simulator()
    seen = []
    stale = sim.schedule(1.0, seen.append, "f")
    sim.run()
    fresh = sim.schedule_at(2.0, seen.append, "g")
    assert stale.cancel() is False
    sim.run()
    assert seen == ["f", "g"]
    assert fresh.cancel() is False
    assert sim.pending_events() == 0
    pending = sim.schedule(1.0, seen.append, "h")
    assert pending.cancel() is True
    assert pending.cancel() is False
    sim.run()
    assert seen == ["f", "g"]
    assert sim.pending_events() == 0


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0
    sim.run()
    assert seen == ["late"]


def test_process_sleep_advances_clock():
    sim = Simulator()

    def body():
        yield Sleep(3.0)
        yield Sleep(4.0)
        return sim.now

    result = sim.run_process(body())
    assert result == 7.0


def test_process_return_value():
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        return 42

    assert sim.run_process(body()) == 42


def test_sleep_until_wakes_at_exactly_the_float_given():
    """The ``now < t / 2`` case of docs/PERFORMANCE.md "The determinism
    contract": a delta re-derives ``t`` as ``now + (t - now)``, an ulp
    off; the absolute-time waitable lands on ``t`` itself."""
    sim = Simulator()
    now, t = 0.3, 0.9
    assert now < t / 2 and now + (t - now) != t

    def body():
        yield Sleep(now)
        yield SleepUntil(t)
        exact = sim.now
        yield SleepUntil(sim.now)           # the present is not the past
        return exact, sim.now

    assert sim.run_process(body()) == (t, t)


def test_sleep_until_ties_with_schedule_at_break_by_seq():
    sim = Simulator()
    seen = []

    def body(tag):
        yield SleepUntil(5.0)
        seen.append(tag)

    sim.schedule_at(5.0, seen.append, "a")
    sim.spawn(body("b"))
    sim.run(until=1.0)                      # b has armed its timer
    sim.schedule_at(5.0, seen.append, "c")
    sim.spawn(body("d"))
    sim.run()
    assert seen == ["a", "b", "c", "d"]


def test_sleep_until_in_the_past_is_refused_like_schedule_at():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError) as direct:
        sim.schedule_at(1.0, lambda: None)

    def body():
        yield SleepUntil(1.0)

    sim.spawn(body())
    with pytest.raises(ValueError) as yielded:
        sim.run()
    assert str(yielded.value) == str(direct.value)


def test_zero_sleep_yields_control():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield Sleep(0.0)
        order.append("a2")

    def b():
        order.append("b1")
        yield Sleep(0.0)
        order.append("b2")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ev = Event(sim, "e")
    results = []

    def waiter():
        value = yield ev
        results.append((sim.now, value))

    def firer():
        yield Sleep(2.5)
        ev.fire("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert results == [(2.5, "payload")]


def test_event_already_fired_resumes_immediately():
    sim = Simulator()
    ev = Event(sim, "e")
    ev.fire(7)

    def waiter():
        value = yield ev
        return value

    assert sim.run_process(waiter()) == 7


def test_event_fire_twice_is_error():
    sim = Simulator()
    ev = Event(sim, "e")
    ev.fire()
    with pytest.raises(RuntimeError):
        ev.fire()


def test_event_wakes_multiple_waiters():
    sim = Simulator()
    ev = Event(sim, "e")
    woken = []

    def waiter(tag):
        yield ev
        woken.append(tag)

    for tag in range(3):
        sim.spawn(waiter(tag))

    def firer():
        yield Sleep(1.0)
        ev.fire()

    sim.spawn(firer())
    sim.run()
    assert sorted(woken) == [0, 1, 2]


def test_anyof_returns_first_fired_index():
    sim = Simulator()
    ev = Event(sim, "e")

    def body():
        index, value = yield AnyOf(ev, Sleep(10.0))
        return index, value, sim.now

    def firer():
        yield Sleep(3.0)
        ev.fire("fast")

    sim.spawn(firer())
    assert sim.run_process(body()) == (0, "fast", 3.0)


def test_anyof_timeout_branch():
    sim = Simulator()
    ev = Event(sim, "never")

    def body():
        index, _ = yield AnyOf(ev, Sleep(2.0))
        return index, sim.now

    assert sim.run_process(body()) == (1, 2.0)


def test_anyof_loser_subscription_cancelled():
    """The losing sleep of an AnyOf must not resume the process later."""
    sim = Simulator()
    ev = Event(sim, "e")
    resumes = []

    def body():
        index, _ = yield AnyOf(ev, Sleep(1.0))
        resumes.append(index)
        yield Sleep(100.0)
        resumes.append("end")

    def firer():
        yield Sleep(0.5)
        ev.fire()

    sim.spawn(body())
    sim.spawn(firer())
    sim.run()
    assert resumes == [0, "end"]


def test_sleep_until_as_an_anyof_branch_wins_or_is_cancelled():
    sim = Simulator()
    ev = Event(sim, "e")
    resumes = []

    def body():
        resumes.append((yield AnyOf(ev, SleepUntil(2.0))))
        resumes.append((yield AnyOf(ev, SleepUntil(9.0))))
        yield Sleep(100.0)
        resumes.append(sim.now)

    sim.spawn(body())
    sim.schedule(3.0, ev.fire, "fired")
    sim.run()
    # The losing timer (due at 9.0) never resumes the process.
    assert resumes == [(1, None), (0, "fired"), 103.0]
    assert sim.pending_events() == 0


def test_unjoined_exception_fails_the_run():
    sim = Simulator()

    def body():
        yield Sleep(1.0)
        raise RuntimeError("unattended")

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_kill_stops_process_and_runs_finally():
    sim = Simulator()
    log = []

    def body():
        try:
            yield Sleep(100.0)
            log.append("never")
        except ProcessKilled:
            log.append("killed")
            raise
        finally:
            log.append("finally")

    proc = sim.spawn(body())

    def killer():
        yield Sleep(1.0)
        proc.kill()

    sim.spawn(killer())
    sim.run()
    assert log == ["killed", "finally"]
    assert not proc.alive
    assert proc.killed


def test_killed_process_does_not_fail_run():
    sim = Simulator()

    def body():
        yield Sleep(100.0)

    proc = sim.spawn(body())
    sim.schedule(1.0, proc.kill)
    sim.run()
    assert not proc.alive


def test_kill_cancels_a_sleep_until():
    sim = Simulator()
    log = []

    def body():
        yield SleepUntil(100.0)
        log.append("woke")

    killed = sim.spawn(body())
    sim.schedule(1.0, killed.kill)
    assert sim.run() == 1.0                 # the timer died with its wait
    assert log == []
    assert killed.killed
    assert sim.pending_events() == 0


def test_yield_from_composition():
    sim = Simulator()

    def helper(n):
        total = 0
        for _ in range(n):
            yield Sleep(1.0)
            total += 1
        return total

    def body():
        a = yield from helper(2)
        b = yield from helper(3)
        return a + b, sim.now

    assert sim.run_process(body()) == (5, 5.0)


def test_non_waitable_yield_is_an_error():
    sim = Simulator()

    def body():
        yield 12345

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_process_unfinished_raises():
    sim = Simulator()

    def body():
        yield Event(sim, "never-fires")

    with pytest.raises(SimulationError):
        sim.run_process(body())


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        log = []

        def body(tag, delay):
            yield Sleep(delay)
            log.append(tag)
            yield Sleep(delay)
            log.append(tag)

        for tag in range(20):
            sim.spawn(body(tag, (tag * 7) % 5 + 1))
        sim.run()
        return log

    assert run_once() == run_once()


def test_finished_processes_and_waits_leave_no_cyclic_garbage():
    """Process and wait state dies by reference counting: with the cyclic
    collector off, a world exercising multi-way AnyOf (each branch
    winning), timers, kill, interrupt and a replicated parallel call
    leaves nothing of the kernel's for a collection to find."""
    import gc
    import types

    from repro.core import ExportedModule
    from repro.core.runtime import RuntimeConfig
    from repro.harness import World
    from repro.sim import events, kernel

    def scenario():
        world = World(machines=4, seed=3)
        sim = world.sim
        troupe, _ = world.make_troupe(
            "echo", lambda: ExportedModule(
                "echo", {0: lambda ctx, args: args}), degree=3)
        client = world.make_client(
            runtime_config=RuntimeConfig(execution="parallel"))
        event = Event(sim, "second-branch")
        box = Queue(sim, "third-branch")

        def sleeper():
            yield AnyOf(Event(sim, "never"), Sleep(1e6))

        def main():
            for _ in range(3):
                assert (yield from client.call_troupe(
                    troupe, 0, 0, b"x")) == b"x"
            sim.schedule(2.0, event.fire, "v")
            sim.schedule(50.0, box.put, 50.0)
            # each branch of a three-way AnyOf wins once
            assert (yield AnyOf(Sleep(1.0), event, box.get()))[0] == 0
            assert (yield AnyOf(Sleep(5.0), event, box.get())) == (1, "v")
            assert (yield AnyOf(Sleep(100.0), Event(sim, "never"),
                                box.get())) == (2, 50.0)
            victim = sim.spawn(sleeper())
            yield Sleep(1.0)
            victim.kill()

        world.run(main())
        return world

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        # Collect while the world is still referenced: a dropped world
        # is itself cyclic and would take its live daemons with it.
        world = scenario()
        gc.collect()
        kernel_types = (kernel.Process, types.GeneratorType,
                        kernel._AnyOfWait, kernel._AnyOfBranch,
                        kernel._ScheduledCall, kernel.Timer, events._Waiter)
        found = [obj for obj in gc.garbage if isinstance(obj, kernel_types)]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
    assert not found, sorted({type(obj).__name__ for obj in found})
