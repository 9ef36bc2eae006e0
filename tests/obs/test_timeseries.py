"""Tests for the windowed virtual-time instruments of repro.obs.metrics."""

import pytest

from repro.bench import scenarios
from repro.harness import World
from repro.obs import (MetricsCollector, MetricsRegistry, WindowedCounter,
                       WindowedGauge, WindowedHistogram)


# -- series mechanics ------------------------------------------------------

def test_counter_buckets_by_virtual_time():
    c = WindowedCounter(10.0, 16)
    c.inc(0.0)
    c.inc(9.9)
    c.inc(10.0)
    c.inc(25.0, n=3)
    assert c.points() == [(0.0, 2), (10.0, 1), (20.0, 3)]
    assert c.total() == 6


def test_counter_rate_per_sec():
    c = WindowedCounter(10.0, 16)
    for t in (0.0, 5.0, 12.0, 18.0):
        c.inc(t)
    # 4 events over 2 buckets of 10 virtual ms = 200/s.
    assert c.rate_per_sec() == pytest.approx(200.0)
    # Restricting to the last bucket sees only 2 events in 10 ms.
    assert c.rate_per_sec(last=1) == pytest.approx(200.0)
    assert WindowedCounter(10.0, 16).rate_per_sec() == 0.0


def test_ring_evicts_old_buckets():
    c = WindowedCounter(10.0, capacity=3)
    for bucket in range(5):
        c.inc(bucket * 10.0)
    assert c.evicted == 2
    assert [t for t, _ in c.points()] == [20.0, 30.0, 40.0]
    # total() covers only the retained window.
    assert c.total() == 3


def test_updates_counter_counts_every_cell_touch():
    c = WindowedCounter(10.0, 16)
    c.inc(0.0)
    c.inc(0.0)
    c.inc(15.0)
    g = WindowedGauge(10.0, 16)
    g.set(0.0, 7)
    assert c.updates == 3
    assert g.updates == 1


def test_gauge_keeps_last_value_per_bucket():
    g = WindowedGauge(10.0, 16)
    assert g.last() == 0
    g.set(1.0, 5)
    g.set(2.0, 3)
    g.set(11.0, 9)
    assert g.points() == [(0.0, 3), (10.0, 9)]
    assert g.last() == 9


def test_histogram_sketch_quantiles_and_merge():
    h = WindowedHistogram(10.0, 16)
    for value in (0.5, 2.0, 3.0, 7.0):
        h.observe(0.0, value)
    h.observe(12.0, 100.0)
    merged = h.merged()
    assert merged.count == 5
    assert merged.min == 0.5
    assert merged.max == 100.0
    # Power-of-two bins: the p50 upper bound is one octave wide.
    assert merged.quantile(0.5) in (2.0, 4.0)
    assert merged.quantile(1.0) >= 100.0


def test_empty_sketch_is_well_defined():
    h = WindowedHistogram(10.0, 16)
    merged = h.merged()
    assert merged.count == 0
    assert merged.quantile(0.5) == 0.0
    assert merged.to_dict() == {"count": 0}


# -- registry --------------------------------------------------------------

def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    a = reg._get(WindowedCounter, "net.packets_sent")
    assert reg._get(WindowedCounter, "net.packets_sent") is a
    assert reg.counter("net.packets_sent") is a      # a counter too
    assert (reg._get(WindowedCounter, "x", host="a")
            is not reg._get(WindowedCounter, "x", host="b"))
    with pytest.raises(TypeError):
        reg.gauge("net.packets_sent")


def test_registry_snapshot_is_points_per_series():
    reg = MetricsRegistry()
    reg._get(WindowedCounter, "calls").inc(5.0)
    assert reg.windows()["calls"]["points"] == [[0.0, 1]]
    assert reg.snapshot() == {"calls": 1}


# -- the collector over a real run -----------------------------------------

def _run_collected(calls=4, seed=21):
    world = World(machines=4, seed=seed)
    troupe, _ = world.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with MetricsCollector(world.sim.bus) as collector:
        world.run(body())
    return world, collector.registry


def test_collector_builds_per_troupe_series():
    calls = 4
    world, reg = _run_collected(calls=calls)
    started = reg.series("rpc.calls_started", troupe="echo")
    completed = reg.series("rpc.calls_completed", troupe="echo",
                           outcome="ok")
    assert started.total() == calls
    assert completed.total() == calls
    hist = reg.series("rpc.call_ms", troupe="echo")
    assert hist.merged().count == calls
    assert hist.merged().min > 1.0     # at least the 1 ms of compute
    # Calls are sequential, so every bucket saw at most one in flight
    # and the gauge is back to zero at the end.
    assert reg.series("rpc.open_calls").last() == 0
    assert reg.series("net.packets_sent").total() == world.net.packets_sent


def test_collector_detaches_and_run_stays_virtual_time_identical():
    world, _ = _run_collected()
    assert not world.sim.bus.active
    observed_end = world.sim.now

    # The same seeded run, unobserved: byte-identical virtual time.
    world2 = World(machines=4, seed=21)
    troupe, _ = world2.make_troupe("echo", scenarios.echo_module, degree=3)
    client = world2.make_client()

    def body():
        for i in range(4):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    world2.run(body())
    assert world2.sim.now == observed_end


def test_collector_series_are_deterministic_across_runs():
    _, reg1 = _run_collected(seed=33)
    _, reg2 = _run_collected(seed=33)
    assert reg1.windows() == reg2.windows()
    assert reg1.updates() == reg2.updates()


# -- rates: events over the virtual time the window spans ------------------

def test_rate_counts_the_empty_buckets_of_its_window():
    # One event in every other bucket is half of one per bucket width.
    c = WindowedCounter(10.0, 16)
    for bucket in range(1, 20, 2):
        c.inc(bucket * 10.0)
    assert c.rate_per_sec(last=10) == pytest.approx(50.0)
    assert c.total(last=10) == 5
    # In a registry the window ends at the newest bucket of any series and
    # starts at the oldest: here bucket 0, opened by another series.
    reg = MetricsRegistry()
    reg._get(WindowedCounter, "tick").inc(0.0)
    sparse = reg._get(WindowedCounter, "sparse")
    for bucket in range(1, 20, 2):
        sparse.inc(bucket * 10.0)
    assert sparse.rate_per_sec() == pytest.approx(50.0)
    reg._get(WindowedCounter, "tick").inc(395.0)
    assert sparse.rate_per_sec() == pytest.approx(25.0)
    assert sparse.rate_per_sec(last=20) == 0.0


def test_per_label_rates_sum_to_the_rate_of_their_sum():
    reg = MetricsRegistry()
    total = reg._get(WindowedCounter, "drops")
    for t, reason in ((0.0, "loss"), (12.0, "loss"), (13.0, "partition"),
                      (64.0, "loss"), (97.0, "partition")):
        reg._get(WindowedCounter, "drops", reason=reason).inc(t)
        total.inc(t)
    labeled = [s for labels, s in reg.labeled("drops") if labels]
    for last in (None, 1, 3, 7, 50):
        assert sum(s.rate_per_sec(last) for s in labeled) \
            == pytest.approx(total.rate_per_sec(last))


def test_circus_call_rate_is_calls_over_the_run_span():
    world, body = scenarios.circus(30)
    with MetricsCollector(world.sim.bus) as collector:
        world.run(body())
    reg = collector.registry
    starts = [t for window in reg.windows().values()
              for t, _ in window["points"]]
    span_s = (max(starts) + 10.0 - min(starts)) / 1000.0
    [(_, completed)] = reg.labeled("rpc.calls_completed")
    assert completed.value == completed.total() == 30
    assert completed.rate_per_sec() == pytest.approx(30 / span_s)
