"""Tests for the sharded parallel simulation.

The contract under test: a sharded run is *byte-identical in behaviour*
to the single-process run of the same seed — equal canonical packet
digests, equal endpoint counters, equal workload counters — for any
shard count and either coordinator mode.
"""

import gc
import math
import multiprocessing
import os

import pytest

from repro.bench.workloads import capacity_builder
from repro.net.network import LinkFault, NetworkConfig
from repro.sim.kernel import Simulator
from repro.sim.sharded import (
    Shard,
    merge_digests,
    partition_hosts,
    run_sharded,
    shard_of_host,
)

WORKLOAD = dict(machines=8, cells=4, sessions=12, calls_per_session=2,
                rate=30.0, degree=2, seed=11)


def _small_builder(**overrides):
    spec = dict(WORKLOAD)
    spec.update(overrides)
    spec.pop("machines")
    return capacity_builder(**spec)


def _run(shards, mode="inproc", builder=None, **overrides):
    spec = dict(machines=WORKLOAD["machines"], horizon=2000.0,
                seed=WORKLOAD["seed"])
    spec.update(overrides)
    return run_sharded(builder or _small_builder(), shards=shards,
                       mode=mode, **spec)


# -- partitioning -----------------------------------------------------------

def test_partition_hosts_contiguous_and_balanced():
    names = ["host%d" % i for i in range(10)]
    blocks = partition_hosts(names, 3)
    assert [b for block in blocks for b in block] == names  # contiguous
    sizes = [len(block) for block in blocks]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    assert partition_hosts(names, 1) == [names]
    assert partition_hosts(names, 10) == [[n] for n in names]


def test_partition_hosts_validates():
    names = ["a", "b"]
    with pytest.raises(ValueError):
        partition_hosts(names, 0)
    with pytest.raises(ValueError):
        partition_hosts(names, 3)


def test_shard_of_host_covers_every_host_once():
    names = ["host%d" % i for i in range(7)]
    owner = shard_of_host(names, 3)
    assert sorted(owner) == sorted(names)
    assert set(owner.values()) == {0, 1, 2}


# -- digests ----------------------------------------------------------------

def test_merge_digests_is_order_insensitive():
    parts = [3, 5, (1 << 256) - 2]
    assert merge_digests(parts) == merge_digests(list(reversed(parts)))


# -- kernel peek ------------------------------------------------------------

def test_next_event_time_sees_heap_and_ready_lane():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.schedule(5.0, lambda: None)
    assert sim.next_event_time() == 5.0
    sim.schedule(2.0, lambda: None)
    assert sim.next_event_time() == 2.0
    # An immediate callback lands in the ready lane at the current time.
    sim.schedule(0.0, lambda: None)
    assert sim.next_event_time() == 0.0
    sim.run(until=10.0)
    assert sim.next_event_time() is None


def test_schedule_at_pins_exact_timestamps():
    """``schedule(t - now)`` recomputes ``now + (t - now)``, which can
    drift by an ulp; ``schedule_at`` must preserve the caller's float
    bit-for-bit (cross-shard injection depends on it)."""
    sim = Simulator()
    # now + (t - now) is exact for now >= t/2 (Sterbenz), but loses an
    # ulp below it: 257.32... + (852.19...49 - 257.32...) == 852.19...48.
    sim.run(until=257.32760669352643)
    target = 852.1909863818449
    assert sim.now + (target - sim.now) != target
    fired = []
    sim.schedule_at(target, lambda: fired.append(sim.now))
    sim.run(until=1000.0)
    assert fired == [target]
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_next_event_time_skips_cancelled_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    handle.cancel()
    assert sim.next_event_time() == 4.0


# -- the determinism contract -----------------------------------------------

def test_sharded_digest_matches_single_process():
    reference = _run(1)
    assert reference.counters["calls_completed"] > 0
    for shards in (2, 4):
        result = _run(shards)
        assert result.digest == reference.digest
        assert result.events == reference.events
        assert result.counters == reference.counters
        assert result.endpoint_stats == reference.endpoint_stats
        assert result.network == reference.network
        assert result.samples == reference.samples
    # More shards cut more links: strictly more cross-shard traffic.
    assert _run(2).cross_shard_messages > 0
    assert reference.cross_shard_messages == 0


def test_sharded_run_is_repeatable():
    first = _run(2)
    second = _run(2)
    assert first.to_json_dict() == second.to_json_dict()


def test_link_fault_across_shard_boundary():
    """A loss window on a link that crosses the 2-shard boundary (host0
    is on shard 0, host4 on shard 1 of 8 machines) must produce the same
    drops — and the same digest — at every shard count, because the loss
    draw happens on the source shard from the per-link stream."""
    fault = LinkFault(loss=1.0, src="host0", dst="host4")

    def faulty_builder(world):
        _small_builder()(world)
        world.sim.schedule(100.0, world.net.add_fault, fault)
        world.sim.schedule(900.0, world.net.remove_fault, fault)

    results = {shards: _run(shards, builder=faulty_builder)
               for shards in (1, 2, 4)}
    reference = results[1]
    assert reference.network["packets_dropped"] > 0
    for result in results.values():
        assert result.digest == reference.digest
        assert result.network == reference.network


def test_shard_step_window_boundaries():
    """``step(bound, inbox)`` runs events strictly before ``bound`` and
    up to and including the horizon — the ``nextafter`` contract."""
    horizon = 50.0
    fired = []

    def builder(world):
        for t in (10.0, 20.0, horizon, math.nextafter(horizon, math.inf)):
            world.sim.schedule_at(t, fired.append, t)

    shard = Shard(0, 1, builder, 2, 0, None, None, horizon)
    assert shard.finish() == (10.0, {})
    # An event at exactly the bound waits for the next window...
    assert shard.step(20.0, []) == (20.0, {})
    assert fired == [10.0]
    # ...where it runs; one at exactly the horizon runs too...
    next_time, batches = shard.step(1000.0, [])
    assert fired == [10.0, 20.0, horizon]
    # ...and one an ulp past the horizon never does.
    assert next_time == math.nextafter(horizon, math.inf) and not batches
    assert shard.step(2000.0, [])[0] == next_time
    assert fired == [10.0, 20.0, horizon]


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


@needs_fork
@pytest.mark.parametrize("shards", (2, 3, 4))   # 3: uneven blocks of 3/3/2
def test_process_mode_matches_inproc(shards):
    inproc = _run(shards)
    forked = _run(shards, mode="process")
    assert forked.mode == "process"
    assert forked.to_json_dict() == inproc.to_json_dict()


@needs_fork
def test_dead_shard_child_is_a_named_error():
    """A child that dies mid-window (here: hard exit, no Python
    exception to report) must surface as an error naming the shard and
    its exit code, and the surviving children must be reaped."""
    def dying_builder(world):
        _small_builder()(world)
        if world.shard_index == 1:
            # Well past the first window (lookahead is the link latency).
            world.sim.schedule(200.0, os._exit, 3)

    with pytest.raises(RuntimeError,
                       match=r"shard 1 child died \(exit code 3\)"):
        _run(2, mode="process", builder=dying_builder)
    assert multiprocessing.active_children() == []
    assert gc.isenabled()


# -- the collector hold -----------------------------------------------------

def test_collector_is_held_while_the_world_lives_and_restored_after():
    held = []

    def watching_builder(world):
        held.append(not gc.isenabled())
        _small_builder()(world)

    assert gc.isenabled()
    _run(2, builder=watching_builder)
    assert held == [True, True]
    assert gc.isenabled()


def test_collector_is_restored_when_the_builder_raises():
    def failing_builder(world):
        raise RuntimeError("no world today")

    with pytest.raises(RuntimeError, match="no world today"):
        _run(1, builder=failing_builder)
    assert gc.isenabled()


def test_collector_hold_nests_and_leaves_a_disabled_collector_alone():
    after_inner = []

    def nesting_builder(world):
        _run(1)     # a whole sharded run inside another one's hold
        after_inner.append(gc.isenabled())
        _small_builder()(world)

    _run(1, builder=nesting_builder)
    assert after_inner == [False]
    assert gc.isenabled()
    gc.disable()
    try:
        _run(1)
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- guard rails ------------------------------------------------------------

def test_run_sharded_validates_arguments():
    builder = _small_builder()
    with pytest.raises(ValueError):
        run_sharded(builder, machines=8, horizon=0.0, shards=2)
    with pytest.raises(ValueError):
        run_sharded(builder, machines=8, horizon=100.0, shards=2,
                    mode="threads")


def test_sharding_requires_positive_latency():
    builder = _small_builder()
    with pytest.raises(ValueError):
        run_sharded(builder, machines=8, horizon=100.0, shards=2,
                    net_config=NetworkConfig(latency=0.0))
