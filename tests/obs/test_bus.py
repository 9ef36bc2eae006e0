"""Tests for the observability event bus (repro.obs.bus)."""

import collections
import contextlib
import dataclasses

import pytest

from repro.bench.scenarios import echo_module
from repro.core import CollationError, ExportedModule
from repro.harness import World
from repro.obs import EventBus, MonitorSuite, events
from repro.obs.bus import COUNTED_KINDS


def _event(kind_cls, **kw):
    kw.setdefault("t", 0.0)
    return kind_cls(**kw)


def test_inactive_until_subscribed():
    bus = EventBus()
    assert not bus.active and not bus.wanted
    assert bus.subscriber_count() == 0
    sub = bus.subscribe(lambda e: None)
    assert bus.active
    assert bus.wanted == events.KINDS          # None: everything
    assert bus.subscriber_count() == 1
    bus.unsubscribe(sub)
    assert not bus.active and not bus.wanted
    assert bus.subscriber_count() == 0


def test_active_is_derived_and_read_only():
    bus = EventBus()
    with pytest.raises(AttributeError):
        bus.active = True


def test_unsubscribe_is_idempotent():
    bus = EventBus()
    sub = bus.subscribe(lambda e: None)
    bus.unsubscribe(sub)
    bus.unsubscribe(sub)          # second detach is a no-op
    assert not bus.wanted


def test_emit_without_subscribers_is_a_no_op():
    bus = EventBus()
    bus.emit(_event(events.ProcessExited, name="p1"))   # must not raise


def test_subscribe_all_receives_everything():
    bus = EventBus()
    got = []
    bus.subscribe(got.append)
    e1 = _event(events.ProcessExited, name="p1")
    e2 = _event(events.ProcessSpawned, name="p", daemon=False)
    bus.emit(e1)
    bus.emit(e2)
    assert got == [e1, e2]


def test_kind_prefix_filtering():
    bus = EventBus()
    sim_only, exact, multi = [], [], []
    bus.subscribe(sim_only.append, kinds="sim.")
    bus.subscribe(exact.append, kinds="sim.exit")
    bus.subscribe(multi.append, kinds=("sim.spawn", "net."))
    exited = _event(events.ProcessExited, name="p1")
    spawn = _event(events.ProcessSpawned, name="p", daemon=False)
    drop = _event(events.PacketDropped, src="a", dst="b", reason="loss")
    for e in (exited, spawn, drop):
        bus.emit(e)
    assert sim_only == [exited, spawn]
    assert exact == [exited]
    assert multi == [spawn, drop]


def test_inactive_bus_emit_builds_no_kind_index():
    bus = EventBus()
    bus.emit(_event(events.ProcessExited, name="p1"))
    # The no-subscriber fast path returns before touching the per-kind
    # index: nothing is allocated or cached for an unobserved emit.
    assert bus._by_kind == {}
    sub = bus.subscribe(lambda e: None, kinds="sim.")
    bus.emit(_event(events.ProcessExited, name="p1"))
    assert "sim.exit" in bus._by_kind
    bus.unsubscribe(sub)
    # Detaching the last subscriber drops the index with it.
    assert bus._by_kind == {}
    assert not bus.wanted


def test_kind_index_is_invalidated_on_subscribe():
    bus = EventBus()
    first, second = [], []
    bus.subscribe(first.append, kinds="sim.exit")
    bus.emit(_event(events.ProcessExited, name="p1"))       # caches sim.exit
    bus.subscribe(second.append, kinds="sim.")
    bus.emit(_event(events.ProcessExited, name="p2"))
    assert len(first) == 2
    assert len(second) == 1                          # saw the rebuild


def test_handlers_run_in_subscription_order():
    bus = EventBus()
    order = []
    bus.subscribe(lambda e: order.append("first"))
    bus.subscribe(lambda e: order.append("second"))
    bus.emit(_event(events.ProcessExited, name="p1"))
    assert order == ["first", "second"]


def test_handler_may_unsubscribe_during_emit():
    bus = EventBus()
    got = []
    sub = bus.subscribe(lambda e: (got.append(e), bus.unsubscribe(sub)))
    bus.emit(_event(events.ProcessExited, name="p1"))
    bus.emit(_event(events.ProcessExited, name="p2"))
    assert len(got) == 1
    assert not bus.wanted


def test_raising_handler_does_not_abort_emission():
    bus = EventBus()
    before, after, errors = [], [], []
    bus.subscribe(before.append)

    def bad(event):
        raise RuntimeError("broken probe")

    bus.subscribe(bad, kinds="sim.")
    bus.subscribe(after.append)
    bus.subscribe(errors.append, kinds="mon.error")
    event = _event(events.ProcessExited, name="p1")
    bus.emit(event)               # must not raise
    # Handlers after the broken one still saw the event (they also get
    # the follow-up mon.error, being catch-all subscribers).
    assert before[0] is event
    assert after[0] is event
    assert [e.kind for e in after] == ["sim.exit", "mon.error"]
    # The failure surfaced as a mon.error event instead of an exception.
    (error,) = errors
    assert error.kind == "mon.error"
    assert error.event_kind == "sim.exit"
    assert "RuntimeError: broken probe" in error.error
    assert "bad" in error.handler


def test_raising_stamper_is_contained_like_a_raising_handler():
    """A stamper bug must not unwind into the emitting protocol code —
    the event goes unstamped and the failure becomes a mon.error."""
    bus = EventBus()
    got, errors = [], []
    bus.subscribe(got.append)
    bus.subscribe(errors.append, kinds="mon.error")

    class BrokenStamper:
        def stamp(self, event):
            if event.kind != "mon.error":
                raise AttributeError("no such field on %s" % event.kind)

    bus.stamper = BrokenStamper()
    event = _event(events.ProcessExited, name="p1")
    bus.emit(event)               # must not raise
    assert got[-1] is event       # delivery still happened, unstamped
    assert not hasattr(event, "lamport")
    (error,) = errors
    assert error.event_kind == "sim.exit"
    assert "AttributeError" in error.error


def test_stamper_failing_on_monitor_error_does_not_recurse():
    bus = EventBus()
    got = []
    bus.subscribe(got.append)

    class AlwaysBroken:
        def stamp(self, event):
            raise ValueError("stamps nothing, mon.error included")

    bus.stamper = AlwaysBroken()
    bus.emit(_event(events.ProcessExited, name="p1"))     # must terminate
    assert [e.kind for e in got] == ["mon.error", "sim.exit"]


def test_handler_failing_on_monitor_error_does_not_recurse():
    bus = EventBus()
    got = []
    bus.subscribe(got.append)

    def always_bad(event):
        raise ValueError("fails on everything, mon.error included")

    bus.subscribe(always_bad)
    bus.emit(_event(events.ProcessExited, name="p1"))     # must terminate
    kinds = [e.kind for e in got]
    assert kinds == ["sim.exit", "mon.error"]


def test_events_are_dataclasses_with_kind_and_time():
    for kind, cls in events.ALL_EVENTS.items():
        assert cls.kind == kind
        fields = {f.name for f in dataclasses.fields(cls)}
        assert "t" in fields


def _one_call_world():
    world = World(machines=3, seed=11)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"hi")

    return world, body


@pytest.fixture
def constructed(monkeypatch):
    """Counts every event *constructed*, by kind — the guard's promise is
    about construction, not delivery."""
    counts = collections.Counter()
    for kind, cls in events.ALL_EVENTS.items():
        def counting_init(self, *args, _init=cls.__init__, _kind=kind, **kw):
            counts[_kind] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_full_stack_run_with_no_subscribers_constructs_nothing(constructed):
    world, body = _one_call_world()
    assert not world.sim.bus.wanted
    world.run(body())
    # Every emission site tests its kind against bus.wanted first, so an
    # unobserved run never constructs a single event object.
    assert not constructed


def test_net_only_subscriber_costs_the_other_layers_nothing(constructed):
    world, body = _one_call_world()
    seen = []
    world.sim.bus.subscribe(seen.append, "net.")
    assert world.sim.bus.wanted == {
        "net.send", "net.deliver", "net.drop", "net.dup"}
    world.run(body())
    assert constructed and all(k.startswith("net.") for k in constructed)
    # ... and the subscriber still saw every packet.
    assert len(seen) == sum(constructed.values())
    assert constructed["net.send"] == world.net.packets_sent
    assert constructed["net.deliver"] == world.net.packets_delivered


def test_wanted_resolves_prefixes_against_the_vocabulary():
    bus = EventBus()
    sub = bus.subscribe(lambda e: None, "rpc.call")
    assert bus.wanted == {"rpc.call_start", "rpc.call_end"}
    other = bus.subscribe(lambda e: None, ("pm.send", "txn.vote", "no.such"))
    assert bus.wanted == {"rpc.call_start", "rpc.call_end",
                          "pm.send", "txn.vote"}
    bus.unsubscribe(sub)
    assert bus.wanted == {"pm.send", "txn.vote"}
    bus.unsubscribe(other)
    assert bus.wanted == frozenset()


def test_subscribe_kinds_runs_one_handler_per_exact_kind():
    bus = EventBus()
    starts, ends, everything = [], [], []
    bus.subscribe(everything.append)
    sub = bus.subscribe_kinds({"rpc.call_start": starts.append,
                               "rpc.call_end": ends.append})
    start = _event(events.CallStarted)
    end = _event(events.CallCompleted)
    for e in (start, end, _event(events.Collated)):
        bus.emit(e)
    assert (starts, ends) == ([start], [end])
    assert len(everything) == 3
    bus.unsubscribe(sub)
    bus.emit(_event(events.CallStarted))
    assert starts == [start]


def test_synthetic_kinds_outside_the_vocabulary_still_dispatch():
    class Synthetic:
        kind = "test.synthetic"
        t = 0.0

    bus = EventBus()
    by_prefix, everything, exact = [], [], []
    bus.subscribe(by_prefix.append, "test.")
    bus.subscribe(everything.append)
    bus.subscribe_kinds({"test.synthetic": exact.append})
    assert "test.synthetic" not in bus.wanted      # not in the vocabulary
    event = Synthetic()
    bus.emit(event)                                # ... but emit delivers
    assert by_prefix == everything == exact == [event]


def test_handler_may_subscribe_during_emit():
    bus = EventBus()
    late = []

    def recruiting(event):
        if not late:
            bus.subscribe(late.append)

    bus.subscribe(recruiting)
    first = _event(events.ProcessExited, name="p1")
    bus.emit(first)               # delivered to the membership at emit time
    assert late == []
    second = _event(events.ProcessExited, name="p2")
    bus.emit(second)
    assert late == [second]


def test_every_event_class_is_in_the_vocabulary():
    """The guard is resolved against ALL_EVENTS: an event class left out
    of it could never be constructed by a guarded site."""
    declared = {cls for cls in vars(events).values()
                if isinstance(cls, type)
                and issubclass(cls, events.ObsEvent)
                and cls is not events.ObsEvent}
    assert declared == set(events.ALL_EVENTS.values())
    assert events.KINDS == set(events.ALL_EVENTS)


def test_installed_stamper_wants_the_causal_kinds_and_nothing_more(
        constructed):
    """A MonitorSuite with no recorder subscribes to eleven kinds; its clocks
    also need both ends of every happens-before edge (pm.send ->
    pm.deliver), so under a stamper the bus wants what was subscribed to
    plus the causal vocabulary — and leaves every other kind unbuilt."""
    world, body = _one_call_world()
    bus = world.sim.bus
    suite = MonitorSuite(world.sim)
    assert bus.wanted == events.CAUSAL_KINDS
    world.run(body())
    for kind in ("pm.send", "pm.deliver", "rpc.call_start", "rpc.exec_start",
                 "rpc.return", "rpc.result", "rpc.collate", "rpc.call_end"):
        assert constructed[kind], kind
    # ... and no net.*, sim.*, pm.ack_*, txn.lock_* or any other kind.
    assert set(constructed) <= events.CAUSAL_KINDS
    assert suite.clocks.stamped == sum(constructed.values())
    # The execution's clock covers the client's call through the pm edge.
    (server, *_rest) = [n for n in suite.clocks.nodes() if "echo" in n]
    assert any("client" in n for n in suite.clocks.clock_of(server))
    # A subscriber adds what it asks for, and only that.
    packets = bus.subscribe(lambda e: None, "net.")
    assert bus.wanted == events.CAUSAL_KINDS | {
        "net.send", "net.deliver", "net.drop", "net.dup"}
    bus.unsubscribe(packets)
    assert bus.wanted == events.CAUSAL_KINDS
    # Uninstalling narrows wanted back to what the monitors subscribe to.
    suite.clocks.uninstall()
    assert bus.wanted == {
        "rpc.exec_start", "rpc.call_start", "rpc.result", "rpc.collate",
        "rpc.call_end", "txn.vote", "txn.commit", "pm.crash", "pm.retransmit", "pm.probe",
        "bind.member"}
    suite.detach()
    assert not bus.wanted


def test_a_stamper_with_nobody_subscribed_wants_nothing(constructed):
    from repro.obs.clocks import ClockDomain
    world, body = _one_call_world()
    ClockDomain().install(world.sim.bus)
    assert not world.sim.bus.wanted
    world.run(body())
    assert not constructed


def test_violation_frontier_is_the_same_with_and_without_a_recorder():
    """The recorder subscribes to everything, the bare suite to ten
    kinds; the stamps (and so a violation's causal frontier) must not
    depend on which one is attached."""
    def _corrupt_replica_world():
        world = World(machines=4, seed=5, troupe_id_base=100)
        built = []

        def factory():
            index = len(built)
            built.append(index)

            def echo(ctx, args):
                yield from ctx.compute(1.0)
                return (b"corrupt:" if index == 1 else b"echo:") + args
            return ExportedModule("echo", {0: echo})

        troupe, _ = world.make_troupe("echo", factory, degree=3)
        client = world.make_client()

        def body():
            with contextlib.suppress(CollationError):
                yield from client.call_troupe(troupe, 0, 0, b"poison")
        return world, body

    def frontier(attach):
        world, body = _corrupt_replica_world()
        with attach(world) as probe:
            world.run(body())
        (violation,) = probe.violations
        return violation.lamport, dict(violation.vc)

    class BareSuite:
        def __init__(self, world):
            self.world = world

        def __enter__(self):
            self.suite = MonitorSuite(self.world.sim)
            return self.suite

        def __exit__(self, *exc_info):
            self.suite.detach()

    assert frontier(BareSuite) == frontier(lambda world: world.watch())


def test_wanted_is_empty_again_after_watch_and_observe_exit():
    world, body = _one_call_world()
    bus = world.sim.bus
    with world.watch(trace=True):
        with world.observe():
            # Everything but the kinds the metrics read from bus.counts.
            assert bus.wanted == events.KINDS - set(COUNTED_KINDS)
            world.run(body())
        # The stamper, the recorder and the tracer are still in.
        assert bus.wanted == events.CAUSAL_KINDS | {
            "mon.warn", "mon.error", "rpc.exec_end"}
    assert not bus.wanted
    assert bus.stamper is None
    assert bus.subscriber_count() == 0
    with world.observe():
        # No stamper: only what the three collectors handle (no mon.*
        # except the violations series).
        assert "net.send" in bus.wanted and "mon.error" not in bus.wanted
    assert not bus.wanted


def test_full_stack_run_publishes_every_layer():
    world, body = _one_call_world()
    kinds = set()
    world.sim.bus.subscribe(lambda e: kinds.add(e.kind))
    world.run(body())
    # One replicated call exercises the kernel, the wire, the paired
    # message protocol and the RPC layer.
    for expected in ("sim.spawn", "net.send", "net.deliver", "pm.send",
                     "pm.deliver", "rpc.call_start", "rpc.exec_start",
                     "rpc.exec_end", "rpc.result", "rpc.collate",
                     "rpc.call_end", "rpc.return", "rpc.gather"):
        assert expected in kinds, expected
