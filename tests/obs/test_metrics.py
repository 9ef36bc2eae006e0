"""Tests for the metrics registry and the standard collector."""

import pytest

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.obs import Counter, Gauge, Histogram, MetricsCollector, MetricsRegistry


# -- instruments -----------------------------------------------------------

def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = Gauge()
    g.set(3.5)
    assert g.value == 3.5


def test_histogram_is_exact():
    h = Histogram()
    for v in (5.0, 1.0, 3.0, 2.0, 4.0):
        h.observe(v)
    assert h.count == 5
    assert h.total == 15.0
    assert h.mean == 3.0
    # Nearest-rank over the exact observations, no bucketing error.
    assert h.percentile(50) == 3.0
    assert h.percentile(90) == 5.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 5.0
    assert h.summary() == {"count": 5, "mean": 3.0, "min": 1.0,
                           "p50": 3.0, "p90": 5.0, "max": 5.0}


def test_empty_histogram():
    h = Histogram()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0
    assert h.summary() == {"count": 0}


def test_single_sample_histogram_percentiles():
    h = Histogram()
    h.observe(7.5)
    # Nearest-rank with one observation: every percentile is that sample.
    for p in (0, 1, 50, 99, 100):
        assert h.percentile(p) == 7.5
    assert h.summary() == {"count": 1, "mean": 7.5, "min": 7.5,
                           "p50": 7.5, "p90": 7.5, "max": 7.5}


def test_registry_get_or_create_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("net.packets_sent")
    assert reg.counter("net.packets_sent") is a
    b = reg.counter("net.packets_dropped", reason="loss")
    assert reg.counter("net.packets_dropped", reason="loss") is b
    assert reg.counter("net.packets_dropped", reason="partition") is not b


def test_registry_rejects_type_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_registry_value_total_snapshot():
    reg = MetricsRegistry()
    reg.counter("drops", reason="loss").inc(2)
    reg.counter("drops", reason="partition").inc(3)
    reg.histogram("latency", host="a").observe(7.0)
    assert reg.value("drops", reason="loss") == 2
    assert reg.value("drops", reason="nothing") == 0
    assert reg.total("drops") == 5
    snap = reg.snapshot()
    assert snap["drops{reason=loss}"] == 2
    assert snap["drops{reason=partition}"] == 3
    assert snap["latency{host=a}"]["count"] == 1
    assert "drops{reason=loss}" in reg.render()


def test_label_values_with_metacharacters_do_not_collide():
    reg = MetricsRegistry()
    # One label whose value *contains* "b,c=d" vs two separate labels:
    # distinct metrics, and their rendered keys must differ too.
    reg.counter("drops", a="b,c=d").inc(1)
    reg.counter("drops", a="b", c="d").inc(2)
    snap = reg.snapshot()
    assert len(snap) == 2
    assert snap['drops{a="b,c=d"}'] == 1
    assert snap["drops{a=b,c=d}"] == 2
    # Plain values keep the unquoted rendering.
    reg.counter("drops", reason="loss").inc()
    assert "drops{reason=loss}" in reg.snapshot()


def test_label_values_with_quotes_and_braces_are_escaped():
    reg = MetricsRegistry()
    reg.counter("x", v='say "hi"').inc()
    reg.counter("x", v="curly{}").inc(2)
    snap = reg.snapshot()
    assert snap['x{v="say \\"hi\\""}'] == 1
    assert snap['x{v="curly{}"}'] == 2


# -- the standard collector over a real run --------------------------------

def _collect(calls=3, degree=3):
    world = World(machines=degree + 1, seed=21)
    troupe, _ = world.make_troupe("echo", echo_module, degree=degree)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with MetricsCollector(world.sim.bus) as collector:
        world.run(body())
    return collector.registry


def test_collector_counts_replicated_calls():
    calls, degree = 3, 3
    reg = _collect(calls=calls, degree=degree)
    assert reg.total("rpc.calls_started") == calls
    assert reg.value("rpc.calls_completed", troupe="echo",
                     outcome="ok") == calls
    assert reg.value("rpc.replica_results", status="ok") == calls * degree
    assert reg.value("rpc.collations", verdict="agreed") == calls
    assert reg.total("rpc.executions") == calls * degree
    assert reg.total("rpc.gathers") == calls * degree
    assert reg.total("rpc.returns_sent") == calls * degree


def test_collector_call_latency_histogram():
    reg = _collect(calls=4, degree=2)
    hist = reg.histogram("rpc.call_ms", troupe="echo")
    assert hist.count == 4
    # Every call charges at least the 1 ms of handler compute.
    assert min(hist.values) > 1.0
    exec_hist_count = sum(
        m.count for (name, _), m in reg._metrics.items()
        if name == "rpc.exec_ms")
    assert exec_hist_count == 8


def test_collector_detaches_on_close():
    world = World(machines=3, seed=21)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()

    def one_call():
        yield from client.call_troupe(troupe, 0, 0, b"x")

    with MetricsCollector(world.sim.bus) as collector:
        world.run(one_call())
    assert not world.sim.bus.active
    before = collector.registry.total("rpc.calls_started")
    world.run(one_call())       # no longer collected
    assert collector.registry.total("rpc.calls_started") == before
