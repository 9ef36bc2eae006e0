"""Differential tests: the metrics collector that reads the counts kept
at emission sites against the collector that counted every event.

``_ReferenceMetrics`` is ``MetricsCollector`` as it was while it
subscribed to every counted kind, ``sim.spawn`` / ``sim.exit`` /
``net.deliver`` / ``net.dup`` / ``pm.ack_implicit`` / ``pm.dup`` /
``rpc.gather`` included, and added one per event.  It is the
specification: attached beside the real collector on one bus, every
``snapshot()``, ``render()`` and OpenMetrics exposition of the two
registries must come out byte-equal — read while both are attached, in
the middle of a run and after it, and once more after ``close()``.
"""

import contextlib

import pytest

from repro.bench import scenarios
from repro.harness import World
from repro.obs import MetricsCollector, MetricsRegistry, events, monitor
from repro.obs import metrics as obs_metrics
from repro.obs.bus import COUNTED_KINDS
from repro.obs.export import openmetrics
from repro.obs.metrics import Handles
from repro.sim import Queue, Sleep
from tests.obs.test_clocks import _bulk_lossy_world

#: every kind the reference counts as it arrives (the collector's table
#: before the site counts took seven of them over).
_REFERENCE_COUNTED = {
    "sim.spawn": ("sim.processes_spawned", ()),
    "sim.exit": ("sim.processes_exited", ()),
    "net.deliver": ("net.packets_delivered", ()),
    "net.drop": ("net.packets_dropped", ("reason",)),
    "net.dup": ("net.packets_duplicated", ()),
    "pm.retransmit": ("pm.retransmits", ("endpoint",)),
    "pm.dup": ("pm.duplicates_suppressed", ("endpoint",)),
    "pm.ack_explicit": ("pm.explicit_acks", ("endpoint",)),
    "pm.ack_implicit": ("pm.implicit_acks", ("endpoint", "by")),
    "pm.probe": ("pm.probes", ("endpoint",)),
    "pm.crash": ("pm.crashes_declared", ("endpoint",)),
    "pm.timeout": ("pm.send_timeouts", ("endpoint",)),
    "pm.deliver": ("pm.messages_delivered", ("endpoint",)),
    "rpc.result": ("rpc.replica_results", ("status",)),
    "rpc.collate": ("rpc.collations", ("verdict",)),
    "rpc.gather": ("rpc.gathers", ("host",)),
    "rpc.return": ("rpc.returns_sent", ("host",)),
    "rpc.stale": ("rpc.stale_calls_rejected", ("host",)),
    "txn.lock_wait": ("txn.lock_waits", ()),
    "txn.deadlock": ("txn.deadlocks", ()),
    "txn.commit": ("txn.commit_decisions", ("decision",)),
    "bind.lookup": ("bind.lookups", ("op",)),
    "bind.member": ("bind.membership_changes", ("op",)),
    "bind.stale": ("bind.stale_bindings", ()),
    "bind.get_state": ("bind.state_transfers", ()),
    "mon.violation": ("mon.violations", ("invariant",)),
}


class _ReferenceMetrics(MetricsCollector):
    """``MetricsCollector`` as it was: one bus handler per kind for every
    kind of ``_REFERENCE_COUNTED``, nothing folded.  The handlers of the
    kinds that do more than count one are the real collector's, so the
    instruments they update are the windowed ones where it has those."""

    def __init__(self, bus, registry=None):
        self.bus = bus
        self.registry = reg = registry or MetricsRegistry()
        self._call_started = {}
        self._exec_started = {}
        counter, histogram = reg.counter, reg.histogram
        self._packets_sent = self._handles("net.packets_sent")
        self._bytes_sent = Handles(counter, "net.bytes_sent")
        self._messages_sent = Handles(counter, "pm.messages_sent", "endpoint")
        self._segments_sent = Handles(counter, "pm.segments_sent", "endpoint")
        self._calls_started = self._handles("rpc.calls_started", "troupe")
        self._calls_completed = self._handles("rpc.calls_completed",
                                              "troupe", "outcome")
        self._call_ms = self._handles("rpc.call_ms", "troupe")
        self._open_calls = self._handles("rpc.open_calls")[()]
        self._incomplete_gathers = Handles(
            counter, "rpc.incomplete_gathers", "host")
        self._executions = Handles(counter, "rpc.executions",
                                   "host", "outcome")
        self._exec_ms = Handles(histogram, "rpc.exec_ms", "host")
        self._lock_wait_ms = Handles(histogram, "txn.lock_wait_ms")
        self._votes = Handles(counter, "txn.votes", "ready")
        handlers = {kind: self._counting(name, fields)
                    for kind, (name, fields) in _REFERENCE_COUNTED.items()}
        handlers.update({
            "net.send": self._on_net_send,
            "pm.send": self._on_pm_send,
            "rpc.call_start": self._on_call_start,
            "rpc.call_end": self._on_call_end,
            "rpc.exec_start": self._on_exec_start,
            "rpc.exec_end": self._on_exec_end,
            "txn.lock_grant": self._on_lock_grant,
            "txn.vote": self._on_vote,
        })
        self._sub = bus.subscribe_kinds(handlers)

    def close(self) -> None:
        self.bus.unsubscribe(self._sub)


def _assert_same(real, reference):
    """Everything a consumer reads of two registries is byte-equal."""
    assert real.snapshot() == reference.snapshot()
    assert real.render() == reference.render()
    assert openmetrics(real) == openmetrics(reference)


class _Beside:
    """The reference and the real collector on one bus, attached
    together; a third subscriber compares their registries at every
    ``every``-th ``rpc.call_end`` (after both have handled it)."""

    def __init__(self, bus, every=10):
        self.reference = _ReferenceMetrics(bus)
        self.real = MetricsCollector(bus)
        self.reads = 0
        self._ends = 0
        self._every = every
        self._sub = bus.subscribe(self._on_call_end, "rpc.call_end")

    def _on_call_end(self, event) -> None:
        self._ends += 1
        if self._ends % self._every == 1:
            self.check()

    def check(self):
        _assert_same(self.real.registry, self.reference.registry)
        self.reads += 1
        return self.reference.registry

    def close(self):
        """Detach and compare once more; returns the reference registry."""
        self.real.bus.unsubscribe(self._sub)
        self.real.close()
        self.reference.close()
        return self.check()


def _run_beside(world, body, every=10):
    """Run ``body`` with both collectors attached; compare mid-run (on
    call ends), after the run while attached, and after ``close()``."""
    beside = _Beside(world.sim.bus, every)
    world.run(body())
    beside.check()
    reads = beside.reads
    registry = beside.close()
    assert reads >= 2
    return registry


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def test_circus_forty_calls():
    world, body = scenarios.circus(40)
    reg = _run_beside(world, body)
    assert reg.total("net.packets_delivered") > 40 * 11
    assert reg.total("rpc.gathers") == 40 * 3
    assert reg.total("sim.processes_spawned") \
        >= reg.total("sim.processes_exited") > 0
    assert reg.total("pm.implicit_acks") > 0


def test_thirteen_segment_calls_under_loss_and_duplication():
    # Seed 11: a server's RETURN is once still unacknowledged when the
    # client's next CALL arrives, so both by= values are counted.
    world, troupe, client = _bulk_lossy_world()
    payload = bytes(range(256)) * 24            # 6 KiB: 13 segments

    def body():
        for _ in range(25):
            yield from client.call_troupe(troupe, 0, 0, payload)

    reg = _run_beside(world, body, every=5)
    assert reg.total("net.packets_duplicated") > 0
    assert reg.total("pm.duplicates_suppressed") > 0
    snapshot = reg.snapshot()
    assert any("by=call" in key for key in snapshot
               if key.startswith("pm.implicit_acks"))
    assert any("by=return" in key for key in snapshot
               if key.startswith("pm.implicit_acks"))


def test_many_to_many_call():
    world = World(machines=8, seed=17)
    servers, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    _clients, runtimes = world.make_client_troupe("clients", degree=2)
    done = Queue(world.sim, "callers-done")

    def caller(runtime, delay):
        yield Sleep(delay)
        for i in range(5):
            yield from runtime.call_troupe(servers, 0, 0, b"mm %d" % i)
        done.put(runtime)

    def body():
        world.sim.spawn(caller(runtimes[0], 0.0))
        world.sim.spawn(caller(runtimes[1], 3.5))
        yield done.get()
        yield done.get()

    reg = _run_beside(world, body, every=3)
    # One gather per call per server member: both callers' messages
    # join one many-to-one call.
    assert reg.total("rpc.gathers") == 5 * 3


@pytest.mark.parametrize("scenario,seed", [
    ("bank-transfer", 1),
    ("bank-transfer", 396),             # a HistoryOracle violation
    ("elastic-adversarial", 302),       # crashes, restarts, spawns, exits
])
def test_explorer_seeds(monkeypatch, scenario, seed):
    from repro import explore
    attached = []
    real_watch = monitor.watch

    @contextlib.contextmanager
    def watch_beside_the_reference(sim, **kwargs):
        beside = _Beside(sim.bus, every=7)
        with real_watch(sim, **kwargs) as probe:
            attached.append(beside)
            yield probe
        beside.check()
        beside.close()

    monkeypatch.setattr(monitor, "watch", watch_beside_the_reference)
    explore._attempt(explore.get_scenario(scenario), seed, None,
                     monitors=None, budget=None, capacity=4096,
                     explain=True)
    [beside] = attached
    assert beside.reads >= 4
    reg = beside.reference.registry
    assert reg.total("sim.processes_spawned") \
        >= reg.total("sim.processes_exited") > 0
    assert reg.total("net.packets_delivered") > 0


# ---------------------------------------------------------------------------
# Attaching, sharing, closing
# ---------------------------------------------------------------------------

def _circus_in_halves():
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world.make_client()

    def body(calls):
        def run():
            for i in range(calls):
                yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)
        return run
    return world, body


def test_a_collector_attached_mid_run_counts_only_what_follows():
    world, body = _circus_in_halves()
    world.run(body(10)())
    assert world.sim.bus.counts["net.deliver"][()] > 0
    reg = _run_beside(world, body(10))
    assert reg.total("rpc.gathers") == 10 * 3


def test_two_collectors_attached_at_different_times():
    world, body = _circus_in_halves()
    bus = world.sim.bus
    shared, shared_reference = MetricsRegistry(), MetricsRegistry()
    early = _Beside(bus)
    early_shared = (MetricsCollector(bus, shared),
                    _ReferenceMetrics(bus, shared_reference))
    world.run(body(10)())
    late = _Beside(bus)
    late_shared = (MetricsCollector(bus, shared),
                   _ReferenceMetrics(bus, shared_reference))
    world.run(body(10)())
    early.check()
    late.check()
    _assert_same(shared, shared_reference)
    for collector in early_shared + late_shared:
        collector.close()
    early_reg, late_reg = early.close(), late.close()
    _assert_same(shared, shared_reference)
    assert early_reg.total("rpc.gathers") == 20 * 3
    assert late_reg.total("rpc.gathers") == 10 * 3
    assert shared_reference.total("rpc.gathers") == 30 * 3


def test_close_is_idempotent_and_final():
    world, body = _circus_in_halves()
    beside = _Beside(world.sim.bus)
    world.run(body(5)())
    beside.close()
    before = beside.real.registry.snapshot()
    beside.real.close()
    assert beside.real.registry._folds == []
    world.run(body(5)())
    assert beside.real.registry.snapshot() == before
    beside.check()


# ---------------------------------------------------------------------------
# What an observed call builds
# ---------------------------------------------------------------------------

def test_wanted_sets():
    world, body = _circus_in_halves()
    bus = world.sim.bus
    with world.watch() as probe:
        # mon.warn / mon.error are the recorder's; no site guards them.
        assert bus.wanted == events.CAUSAL_KINDS | {"mon.warn", "mon.error"}
        world.run(body(5)())
        stamped = probe.clocks.stamped
        world.run(body(20)())
        assert (probe.clocks.stamped - stamped) / 20 == 27
    with world.watch(trace=True) as probe, world.observe():
        rare = {kind for kind in obs_metrics._COUNTED
                if kind not in events.CAUSAL_KINDS}
        assert bus.wanted - events.CAUSAL_KINDS == rare | {
            "net.send", "rpc.exec_end", "txn.lock_grant",
            "mon.warn", "mon.error"}
        assert not bus.wanted & set(COUNTED_KINDS)
        world.run(body(5)())
        stamped = probe.clocks.stamped
        world.run(body(20)())
        # 27 causal, 12 net.send and 3 rpc.exec_end per call.
        assert (probe.clocks.stamped - stamped) / 20 == 42
