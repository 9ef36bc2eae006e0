"""Differential tests: the windows the one metrics collector keeps against
the time-series stack that kept them beside it.

``_ReferenceTimeSeries`` is the ``TimeSeriesRegistry`` +
``TimeSeriesCollector`` pair as it was before the two metric stacks
merged: its own registry, its own handlers and call-start dict, and the
unlabelled sums ``net.packets_dropped``, ``pm.retransmits`` and
``pm.crashes_declared`` where the metrics collector windows its labelled
counters.  Attached beside a :class:`MetricsCollector` on one bus, every
series must come out with equal ``points()``, ``to_dict()`` and
``evicted``; for the three split names the per-bucket sum over labels
must equal the reference's unlabelled points; and the registries'
``updates()`` must be equal.

The reference keeps its rate formula too — events ÷ (non-empty buckets ×
width), which reads every sparse series as one event per bucket width.
"""

import collections
import contextlib

from repro.bench import scenarios
from repro.obs import MetricsCollector, monitor
from repro.obs import events as ev
from repro.obs.metrics import (BUCKET_MS, CAPACITY, Handles, WindowedCounter,
                               WindowedGauge, WindowedHistogram,
                               _labelset, _render_key, _WindowedSeries)
from tests.obs.test_clocks import _bulk_lossy_world

#: the series the reference windows as one unlabelled sum.
_SPLIT = ("net.packets_dropped", "pm.retransmits", "pm.crashes_declared")


class _ReferenceCounter(WindowedCounter):
    """A windowed counter read the old way: over its retained buckets."""

    __slots__ = ()

    def total(self, last=None):
        return sum(self.cells.values())

    def rate_per_sec(self, last=None):
        cells = list(self.cells.values())
        if last is not None:
            cells = cells[-last:]
        if not cells:
            return 0.0
        return sum(cells) / (len(cells) * self.width / 1000.0)


class _ReferenceTimeSeries:
    """Get-or-create windowed series keyed ``(name, labels)``, fed by its
    own bus handlers: the old registry and collector in one."""

    def __init__(self, bus, bucket_ms=BUCKET_MS, capacity=CAPACITY):
        self.bus = bus
        self.bucket_ms = bucket_ms
        self.capacity = capacity
        self._series = {}
        self._open_calls = 0
        self._call_started = {}
        self._calls_started = Handles(self.counter, "rpc.calls_started",
                                      "troupe")
        self._calls_completed = Handles(self.counter, "rpc.calls_completed",
                                        "troupe", "outcome")
        self._call_ms = Handles(self.histogram, "rpc.call_ms", "troupe")
        self._commit_decisions = Handles(
            self.counter, "txn.commit_decisions", "decision")
        self._violations = Handles(self.counter, "mon.violations",
                                   "invariant")
        self._open_gauge = self.gauge("rpc.open_calls")
        handlers = {
            ev.CallStarted.kind: self._on_call_start,
            ev.CallCompleted.kind: self._on_call_end,
            ev.CommitOutcome.kind: self._on_commit,
            ev.InvariantViolation.kind: self._on_violation,
        }
        for kind, name in ((ev.PacketSent.kind, "net.packets_sent"),
                           (ev.PacketDropped.kind, "net.packets_dropped"),
                           (ev.SegmentRetransmitted.kind, "pm.retransmits"),
                           (ev.PeerCrashDeclared.kind,
                            "pm.crashes_declared")):
            handlers[kind] = self._counting(self.counter(name))
        self._sub = bus.subscribe_kinds(handlers)

    def close(self):
        self.bus.unsubscribe(self._sub)

    # -- the registry ------------------------------------------------------

    def _get(self, cls, name, labels):
        key = (name, _labelset(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = cls(self.bucket_ms, self.capacity)
        assert isinstance(series, cls)
        return series

    def counter(self, name, **labels):
        return self._get(_ReferenceCounter, name, labels)

    def gauge(self, name, **labels):
        return self._get(WindowedGauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(WindowedHistogram, name, labels)

    def items(self):
        return sorted(self._series.items(), key=lambda item: item[0])

    def updates(self):
        return sum(series.updates for series in self._series.values())

    # -- the collector -----------------------------------------------------

    @staticmethod
    def _counting(series):
        inc = series.inc

        def handle(event):
            inc(event.t)
        return handle

    def _on_call_start(self, event):
        self._calls_started[event.troupe].inc(event.t)
        self._call_started[(event.host, event.proc, event.thread_id,
                            event.call_number)] = event.t
        self._open_calls += 1
        self._open_gauge.set(event.t, self._open_calls)

    def _on_call_end(self, event):
        self._calls_completed[event.troupe, event.outcome].inc(event.t)
        self._open_calls = max(0, self._open_calls - 1)
        self._open_gauge.set(event.t, self._open_calls)
        started = self._call_started.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if started is not None:
            self._call_ms[event.troupe].observe(event.t, event.t - started)

    def _on_commit(self, event):
        self._commit_decisions[event.decision].inc(event.t)

    def _on_violation(self, event):
        self._violations[event.invariant].inc(event.t)


def _summed(series):
    """Per-bucket sums over several counters' points, in time order."""
    sums = collections.Counter()
    for one in series:
        for t, n in one.points():
            sums[t] += n
    return sorted(sums.items())


def _assert_same_windows(registry, reference):
    """Every window the reference keeps, the registry keeps equally."""
    assert registry.updates() == reference.updates()
    compared = set()
    for (name, labels), ref in reference.items():
        if name in _SPLIT:
            assert not labels
            # Each label's ring keeps every bucket the sum's ring keeps.
            labeled = [series for _, series in registry.labeled(name)]
            start = ref.points()[0][0] if ref.cells else 0.0
            assert [(t, n) for t, n in _summed(labeled) if t >= start] \
                == ref.points(), name
            assert sum(s.value for s in labeled) == ref.value
            continue
        series = registry.series(name, **dict(labels))
        assert series is not None, _render_key(name, labels)
        assert series.points() == ref.points()
        assert series.to_dict() == ref.to_dict()
        assert series.evicted == ref.evicted
        compared.add((name, labels))
    windowed = {key for key, metric in registry.items()
                if isinstance(metric, _WindowedSeries)
                and key[0] not in _SPLIT}
    assert windowed == compared


def _run_beside(world, body):
    reference = _ReferenceTimeSeries(world.sim.bus)
    with MetricsCollector(world.sim.bus) as collector:
        world.run(body())
        _assert_same_windows(collector.registry, reference)
    reference.close()
    return collector.registry, reference


def test_circus_forty_calls():
    world, body = scenarios.circus(40)
    registry, reference = _run_beside(world, body)
    [(_, completed)] = registry.labeled("rpc.calls_completed")
    [(_, old)] = [(labels, s) for (name, labels), s in reference.items()
                  if name == "rpc.calls_completed"]
    assert completed.value == old.total() == 40
    # The old formula read one call per bucket width; the window spans
    # the run.
    assert old.rate_per_sec() == 100.0
    assert completed.rate_per_sec() < 20.0


def test_thirteen_segment_calls_under_loss_and_duplication():
    world, troupe, client = _bulk_lossy_world()
    payload = bytes(range(256)) * 24            # 6 KiB: 13 segments

    def body():
        for _ in range(25):
            yield from client.call_troupe(troupe, 0, 0, payload)

    registry, _ = _run_beside(world, body)
    assert registry.total("net.packets_dropped") > 0
    assert len(registry.labeled("pm.retransmits")) > 1


def _explorer_seed(monkeypatch, scenario, seed):
    from repro import explore
    attached = []
    real_watch = monitor.watch

    @contextlib.contextmanager
    def watch_beside_the_reference(sim, **kwargs):
        reference = _ReferenceTimeSeries(sim.bus)
        collector = MetricsCollector(sim.bus)
        with real_watch(sim, **kwargs) as probe:
            attached.append(collector)
            yield probe
        _assert_same_windows(collector.registry, reference)
        collector.close()
        reference.close()

    monkeypatch.setattr(monitor, "watch", watch_beside_the_reference)
    explore._attempt(explore.get_scenario(scenario), seed, None,
                     monitors=None, budget=None, capacity=4096,
                     explain=True)
    [collector] = attached
    return collector.registry


def test_bank_transfer_violation_under_partitions(monkeypatch):
    registry = _explorer_seed(monkeypatch, "bank-transfer", 396)
    assert registry.total("mon.violations") == 1
    assert registry.total("pm.crashes_declared") > 0
    assert registry.total("txn.commit_decisions") > 0


def test_elastic_adversarial_crashes(monkeypatch):
    # Machines crash and restart; two collation violations follow.
    registry = _explorer_seed(monkeypatch, "elastic-adversarial", 302)
    assert registry.total("mon.violations") == 2
    assert registry.total("net.packets_dropped") > 0
