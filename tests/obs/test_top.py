"""Tests for the live top view (repro.obs.top) — model, renderer, loop."""

import pytest

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.obs import CritPathAnalyzer, MetricsCollector, TopModel
from repro.obs.export import ProgressChannel
from repro.obs.top import live_top, render_frame


def _world(seed=21, calls=4):
    world = World(machines=4, seed=seed)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    return world, body


def test_model_samples_the_run():
    world, body = _world()
    progress = ProgressChannel()
    progress.publish("fuzz.echo", done=3, total=10)
    with MetricsCollector(world.sim.bus) as metrics, \
            CritPathAnalyzer(world.sim) as critpath:
        world.run(body())
        model = TopModel(world.sim, metrics.registry, critpath,
                         progress=progress)
        sample = model.sample()
    assert sample["now"] == world.sim.now
    assert sample["violations"] == 0
    assert sample["troupes"]["echo"]["done"] == 4
    assert sample["troupes"]["echo"]["errors"] == 0
    assert sample["rates"]["net.packets_sent"] > 0
    assert sample["critpath"]["calls"] == 4
    assert sample["critpath"]["attributed_pct"] == 100.0
    assert sample["progress"]["fuzz.echo"]["done"] == 3


def test_render_frame_shows_the_essentials():
    world, body = _world()
    with MetricsCollector(world.sim.bus) as metrics, \
            CritPathAnalyzer(world.sim) as critpath:
        world.run(body())
        frame = render_frame(TopModel(world.sim, metrics.registry,
                                      critpath).sample())
    assert "repro top" in frame
    assert "OK (0 violations)" in frame
    assert "echo" in frame
    assert "critical path" in frame
    # Frames respect the width budget for narrow terminals.
    narrow = render_frame(TopModel(world.sim, metrics.registry).sample(),
                          width=40)
    assert all(len(line) <= 40 for line in narrow.splitlines())


def test_render_frame_with_no_calls_and_progress_rows():
    frame = render_frame({
        "now": 0.0, "pending": 0, "open_calls": 0, "troupes": {},
        "violations": 2, "rates": {},
        "progress": {"fuzz.echo": {"done": 5, "total": 20, "seq": 1},
                     "bench": {"phase": "warmup", "seq": 2}},
    })
    assert "2 VIOLATION(S)" in frame
    assert "(no completed calls yet)" in frame
    assert "5/20 (25%)" in frame
    assert "phase=warmup" in frame


def test_live_top_drives_the_workload_in_slices():
    world, body = _world(calls=6)
    frames = []
    final = live_top(world, body(), slice_ms=100.0, render=frames.append)
    assert frames                      # at least one frame rendered
    assert final["troupes"]["echo"]["done"] == 6
    assert final["violations"] == 0
    assert not world.sim.bus.active    # collectors detached afterwards


def test_live_top_does_not_perturb_the_event_stream():
    # The slice-driven loop runs to the next slice boundary, so daemon
    # timers may fire after the body finishes — but every event up to
    # the plain run's end must land at the same virtual time as in an
    # undriven run of the same seed: the undriven stream is an exact
    # prefix of the driven one.
    world, body = _world(seed=33)
    observed = []
    world.sim.bus.subscribe(lambda e: observed.append((e.kind, e.t)))
    live_top(world, body(), slice_ms=50.0, render=lambda frame: None)

    plain_world, plain_body = _world(seed=33)
    plain = []
    plain_world.sim.bus.subscribe(lambda e: plain.append((e.kind, e.t)))
    plain_world.run(plain_body())
    assert observed[:len(plain)] == plain


def test_live_top_max_frames_stops_early():
    world, body = _world(calls=50)
    frames = []
    live_top(world, body(), slice_ms=10.0, max_frames=2,
             render=frames.append)
    assert len(frames) == 2


def test_live_top_reraises_workload_exceptions():
    world, _ = _world()

    def exploding():
        raise RuntimeError("boom")
        yield                          # pragma: no cover

    with pytest.raises(RuntimeError, match="boom"):
        live_top(world, exploding(), render=lambda frame: None)
