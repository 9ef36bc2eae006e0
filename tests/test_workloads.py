"""Tests for the workload generators."""

import pytest

from repro.bench.workloads import (
    ARRIVAL_KINDS,
    OpenLoopGenerator,
    WorkloadResult,
    ZipfSampler,
    echo_troupe,
    interarrival_ms,
    run_load_sweep,
)
from repro.core.runtime import RuntimeConfig
from repro.harness import World
from repro.sim.rng import RandomStream


def test_open_loop_completes_all_calls():
    world = World(machines=5,
                  runtime_config=RuntimeConfig(execution="parallel"))
    troupe = echo_troupe(world, degree=2)
    result = OpenLoopGenerator(world, troupe, rate=20.0,
                               total_calls=10, seed=3).run()
    assert result.completed == 10
    assert result.offered_rate == 20.0


def test_open_loop_latency_grows_with_load():
    """Queueing 101: latency at heavy offered load exceeds light load."""
    light, heavy = run_load_sweep([5.0, 200.0], degree=2, total_calls=25)
    assert heavy.mean_latency > light.mean_latency


def test_workload_result_percentiles():
    result = WorkloadResult(0.0, 4, 100.0, [1.0, 2.0, 3.0, 4.0])
    assert result.percentile_latency(0.0) == 1.0
    assert result.percentile_latency(0.99) == 4.0
    assert result.mean_latency == pytest.approx(2.5)
    assert result.throughput == pytest.approx(40.0)


def test_open_loop_validates_rate():
    world = World(machines=3)
    troupe = echo_troupe(world, degree=1)
    with pytest.raises(ValueError):
        OpenLoopGenerator(world, troupe, rate=0.0)
    with pytest.raises(ValueError):
        OpenLoopGenerator(world, troupe, rate=5.0, arrival="bimodal")


def test_interarrival_kinds_are_seed_deterministic():
    for kind in ARRIVAL_KINDS:
        gaps = [interarrival_ms(kind, RandomStream(7, "gaps"), 20.0)
                for _ in range(2)]
        # A fresh stream from the same seed replays the same gap.
        assert gaps[0] == gaps[1]
        assert gaps[0] > 0


def test_interarrival_fixed_is_the_mean_gap():
    rng = RandomStream(0, "unused")
    assert interarrival_ms("fixed", rng, 20.0) == 50.0
    assert interarrival_ms("fixed", rng, 1000.0) == 1.0


def test_interarrival_means_track_the_offered_rate():
    """Poisson and Pareto gaps are scaled so the mean matches the rate:
    the sample mean over many draws lands near 1000/rate ms."""
    for kind in ("poisson", "pareto"):
        rng = RandomStream(3, "mean-%s" % kind)
        gaps = [interarrival_ms(kind, rng, 50.0, pareto_alpha=2.5)
                for _ in range(4000)]
        mean = sum(gaps) / len(gaps)
        assert 0.7 * 20.0 < mean < 1.3 * 20.0, (kind, mean)


def test_interarrival_validates():
    rng = RandomStream(0, "v")
    with pytest.raises(ValueError):
        interarrival_ms("poisson", rng, 0.0)
    with pytest.raises(ValueError):
        interarrival_ms("weibull", rng, 10.0)
    with pytest.raises(ValueError):
        interarrival_ms("pareto", rng, 10.0, pareto_alpha=1.0)


def test_zipf_sampler_is_deterministic_and_skewed():
    zipf = ZipfSampler(10, s=1.2)
    counts = [0] * 10
    rng = RandomStream(5, "zipf")
    for _ in range(2000):
        counts[zipf.sample(rng)] += 1
    # Rank 0 is the most popular and every draw is in range.
    assert counts[0] == max(counts)
    assert counts[0] > counts[9]
    assert sum(counts) == 2000
    # Same seed, same sequence.
    first = [zipf.sample(RandomStream(5, "replay")) for _ in range(1)]
    second = [zipf.sample(RandomStream(5, "replay")) for _ in range(1)]
    assert first == second
    with pytest.raises(ValueError):
        ZipfSampler(0)


def test_open_loop_arrival_kinds_complete_and_differ():
    results = {}
    for kind in ARRIVAL_KINDS:
        world = World(machines=4,
                      runtime_config=RuntimeConfig(execution="parallel"))
        troupe = echo_troupe(world, degree=2)
        result = OpenLoopGenerator(world, troupe, rate=20.0, total_calls=8,
                                   seed=3, arrival=kind).run()
        assert result.completed == 8
        results[kind] = result.duration_ms
    # Different interarrival processes shape different schedules.
    assert len(set(results.values())) > 1


def test_run_load_sweep_accepts_arrival_kind():
    (result,) = run_load_sweep([10.0], degree=1, total_calls=5,
                               arrival="pareto", pareto_alpha=2.0)
    assert result.completed == 5
    repeat, = run_load_sweep([10.0], degree=1, total_calls=5,
                             arrival="pareto", pareto_alpha=2.0)
    assert repeat.latencies == result.latencies
