"""Tests for the OpenMetrics exporter and the progress channel."""

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.obs import (CritPathAnalyzer, MetricsCollector, MetricsRegistry,
                       SCHEMA_VERSION, openmetrics)
from repro.obs.export import ProgressChannel, metric_name


# -- naming and escaping ---------------------------------------------------

def test_metric_name_sanitization():
    assert metric_name("rpc.call_ms") == "rpc_call_ms"
    assert metric_name("net.packets-sent") == "net_packets_sent"
    assert metric_name("9lives") == "_9lives"
    assert metric_name("a:b_c") == "a:b_c"


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.counter("drops", reason='say "hi"\\now').inc()
    text = openmetrics(reg)
    assert r'reason="say \"hi\"\\now"' in text


# -- the exposition format -------------------------------------------------

def test_openmetrics_shape_and_terminator():
    reg = MetricsRegistry()
    reg.counter("net.packets_sent").inc(3)
    reg.gauge("rpc.open_calls").set(2)
    reg.histogram("rpc.call_ms", troupe="echo").observe(5.0)
    text = openmetrics(reg)
    lines = text.splitlines()
    assert lines[0] == "# TYPE repro_schema info"
    assert lines[1] == ('repro_schema_info{version="%s"} 1'
                       % SCHEMA_VERSION)
    assert "# TYPE repro_net_packets_sent counter" in lines
    assert "repro_net_packets_sent_total 3" in lines
    assert "repro_rpc_open_calls 2" in lines
    assert "# TYPE repro_rpc_call_ms summary" in lines
    assert ('repro_rpc_call_ms{troupe="echo",quantile="0.5"} 5.0'
            in lines)
    assert 'repro_rpc_call_ms_count{troupe="echo"} 1' in lines
    assert lines[-1] == "# EOF"
    assert text.endswith("# EOF\n")


def _full_export(seed=21):
    world = World(machines=4, seed=seed)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(3):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with MetricsCollector(world.sim.bus) as metrics, \
            CritPathAnalyzer(world.sim) as critpath:
        world.run(body())
        return openmetrics(metrics.registry, critpath=critpath)


def test_full_export_includes_timeseries_and_critpath_sections():
    text = _full_export()
    assert "# TYPE repro_ts_window_total gauge" in text
    assert "# TYPE repro_ts_rate_per_sec gauge" in text
    assert "repro_critpath_attributed_pct 100.0" in text
    assert 'repro_critpath_stage_ms{stage="execute"}' in text
    assert 'repro_critpath_dominant_calls{stage=' in text


def test_export_is_byte_identical_across_same_seed_runs():
    assert _full_export(seed=5) == _full_export(seed=5)


# -- the progress channel --------------------------------------------------

def test_progress_publish_snapshot_finish():
    channel = ProgressChannel()
    channel.publish("fuzz.echo", done=1, total=10)
    channel.publish("fuzz.echo", done=2, failures=1)
    snap = channel.snapshot()
    assert snap["fuzz.echo"]["done"] == 2
    assert snap["fuzz.echo"]["total"] == 10
    assert snap["fuzz.echo"]["failures"] == 1
    channel.finish("fuzz.echo")
    assert channel.snapshot() == {}


def test_progress_seq_is_monotone_and_listeners_are_poked():
    channel = ProgressChannel()
    seen = []
    channel.listen(lambda task, row: seen.append((task, row["seq"])))
    channel.publish("a", done=1)
    channel.publish("b", done=1)
    channel.publish("a", done=2)
    assert seen == [("a", 1), ("b", 2), ("a", 3)]
    channel.unlisten(seen.append)      # unknown listener: no-op
    fn = seen.append
    channel.listen(fn)
    channel.unlisten(fn)
    channel.publish("a", done=3)
    assert len(seen) == 4              # only the lambda still attached


def test_snapshot_is_task_sorted_and_detached():
    channel = ProgressChannel()
    channel.publish("zeta", done=1)
    channel.publish("alpha", done=1)
    snap = channel.snapshot()
    assert list(snap) == ["alpha", "zeta"]
    snap["alpha"]["done"] = 99         # copies, not live rows
    assert channel.snapshot()["alpha"]["done"] == 1
