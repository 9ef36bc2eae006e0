"""Tests for critical-path latency attribution (repro.obs.critpath)."""

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.obs import STAGES, CritPathAnalyzer
from repro.obs.trace import CallTracer


def _analyzed_run(calls=5, seed=11, loss=0.0):
    net = NetworkConfig(loss_probability=loss) if loss else None
    world = World(machines=4, seed=seed, net_config=net)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with CritPathAnalyzer(world.sim) as analyzer:
        world.run(body())
    return world, analyzer


def test_every_completed_call_gets_a_path():
    calls = 5
    _, analyzer = _analyzed_run(calls=calls)
    paths = analyzer.paths()
    assert len(paths) == calls
    for path in paths:
        assert not path.degraded
        assert path.dominant in STAGES


def test_stage_durations_telescope_to_the_exact_call_latency():
    _, analyzer = _analyzed_run()
    for path in analyzer.paths():
        total = sum(duration for _, duration in path.stages)
        assert abs(total - path.duration) < 1e-9
        assert all(duration >= 0.0 for _, duration in path.stages)
        # Stage names come from the fixed vocabulary, in path order.
        order = [STAGES.index(name) for name, _ in path.stages]
        assert order == sorted(order)


def test_report_attributes_everything_on_a_clean_run():
    _, analyzer = _analyzed_run()
    report = analyzer.report()
    assert report["attributed_pct"] == 100.0
    assert report["residual_ms"] == 0.0
    assert report["residual_pct"] == 0.0
    assert report["degraded_calls"] == 0
    assert report["causal_violations"] == 0
    assert sum(report["dominant"].values()) == report["calls"]
    shares = sum(row["share_pct"] for row in report["stages"].values())
    assert abs(shares - 100.0) < 0.1


def test_attribution_is_deterministic_across_same_seed_runs():
    _, first = _analyzed_run(seed=42)
    _, second = _analyzed_run(seed=42)
    assert first.report() == second.report()
    assert [p.to_dict() for p in first.paths()] == \
           [p.to_dict() for p in second.paths()]


def test_loss_shows_up_as_retransmit_stall():
    _, analyzer = _analyzed_run(calls=10, seed=7, loss=0.2)
    report = analyzer.report()
    assert "retransmit_stall" in report["stages"]
    assert any(path.retransmits for path in analyzer.paths())
    # Stalls never break the exact telescoping partition.
    assert report["attributed_pct"] == 100.0


def test_render_mentions_stages_and_attribution():
    _, analyzer = _analyzed_run()
    text = analyzer.render()
    assert "100.00% attributed" in text
    assert "encode_send" in text
    assert "dominant stages:" in text


def test_to_dict_is_json_shaped():
    _, analyzer = _analyzed_run(calls=2)
    d = analyzer.paths()[0].to_dict()
    assert d["call_number"] >= 0
    assert d["duration_ms"] > 0
    assert d["dominant"] in STAGES
    assert all(isinstance(name, str) and isinstance(dur, float)
               for name, dur in d["stages"])


def test_close_detaches_from_the_bus():
    world, analyzer = _analyzed_run()
    assert not world.sim.bus.active
    before = analyzer.milestones
    troupe = next(iter(world.registry))
    assert troupe is not None
    assert analyzer.milestones == before


def test_external_tracer_is_not_closed():
    world = World(machines=4, seed=11)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()
    tracer = CallTracer(world.sim)
    with CritPathAnalyzer(world.sim, tracer=tracer) as analyzer:
        world.run(client.call_troupe(troupe, 0, 0, b"x"))
        assert analyzer.tracer is tracer
    # The analyzer detached itself but left the borrowed tracer attached.
    assert world.sim.bus.active
    tracer.close()
    assert not world.sim.bus.active


def test_milestones_work_counter_advances():
    _, analyzer = _analyzed_run(calls=3)
    # Every call puts CALL and RETURN sends on the timeline.
    assert analyzer.milestones >= 3 * 2
