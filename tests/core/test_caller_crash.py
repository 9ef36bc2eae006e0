"""The calling process fail-stops mid-call (§4.3): every call form raises
:class:`CallerCrashed` to whoever drives the call from elsewhere."""

import pytest

from repro.core import CallerCrashed
from repro.core.runtime import ExportedModule
from repro.harness import World
from repro.sim import AnyOf, Sleep


def slow_module():
    def slow(ctx, args):
        yield Sleep(50.0)
        return args
    return ExportedModule("slow", {0: slow})


def _call_troupe(client, troupe):
    yield from client.call_troupe(troupe, 0, 0, b"x")


def _stream_reader(client, troupe):
    stream = yield from client.call_troupe_stream(troupe, 0, 0, b"x")
    while (yield from stream.next()) is not None:
        pass


def _watchdog(client, troupe):
    yield from client.call_troupe_watchdog(troupe, 0, 0, b"x")


@pytest.mark.parametrize("form", [_call_troupe, _stream_reader, _watchdog],
                         ids=["call_troupe", "stream", "watchdog"])
def test_a_caller_crash_mid_call_raises_caller_crashed(form):
    """Three members each take 50 ms; the client's host crashes 40 ms
    into the call, before any reply.  The body runs outside that host,
    so it outlives the crash and learns of it at the crash instant."""
    world = World(machines=4)
    troupe, _ = world.make_troupe("slow", slow_module, degree=3)
    client = world.make_client()
    assert client.process.host not in {m.process.host
                                       for m in troupe.members}

    def body():
        crash_at = world.sim.now + 40.0
        world.sim.schedule(40.0, client.process.machine.crash)
        with pytest.raises(CallerCrashed):
            yield from form(client, troupe)
        return crash_at

    assert world.run(body()) == world.sim.now


def test_a_watchdog_killed_with_its_caller_still_completes_the_report():
    """Members answer at 10 / 50 / 90 ms; the client's host crashes at
    60 ms, after the call has returned with the first reply and while its
    watchdog still waits for the third.  The watchdog dies with the host,
    and ``report.done`` fires at that instant with ``consistent`` None,
    so a waiter outside the host is not left waiting for ever."""
    delays = iter([10.0, 50.0, 90.0])

    def staggered_module():
        delay = next(delays)

        def answer(ctx, args):
            yield Sleep(delay)
            return args
        return ExportedModule("staggered", {0: answer})

    world = World(machines=4)
    troupe, _ = world.make_troupe("staggered", staggered_module, degree=3)
    client = world.make_client()

    def body():
        crash_at = world.sim.now + 60.0
        world.sim.schedule(60.0, client.process.machine.crash)
        result, report = yield from client.call_troupe_watchdog(
            troupe, 0, 0, b"x")
        assert result == b"x" and world.sim.now < crash_at
        index, _ = yield AnyOf(report.done, Sleep(1e5))
        assert index == 0 and world.sim.now == crash_at
        assert report.consistent is None and not report.mismatches
        return crash_at

    assert world.run(body()) == world.sim.now
