"""Tests for the sharded parallel simulation.

The contract under test: a sharded run is *byte-identical in behaviour*
to the single-process run of the same seed — equal canonical packet
digests, equal endpoint counters, equal workload counters — for any
shard count and either coordinator mode.
"""

import gc
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.bench.workloads import ZipfSampler, capacity_builder
from repro.net.addresses import ProcessAddress
from repro.net.network import Datagram, LinkFault, NetworkConfig
from repro.sim import sharded
from repro.sim.events import Queue
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStream
from repro.sim.sharded import (
    SPIN_POLLS,
    Shard,
    ShardNetwork,
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

def test_partition_hosts_striped_and_balanced():
    names = ["host%d" % i for i in range(10)]
    blocks = partition_hosts(names, 3)
    # Every host exactly once, each block in position order.
    assert sorted(b for block in blocks for b in block) == sorted(names)
    assert all(block == sorted(block, key=names.index) for block in blocks)
    sizes = [len(block) for block in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert partition_hosts(names, 3) == blocks          # deterministic
    assert partition_hosts(names, 1) == [names]
    assert sorted(partition_hosts(names, 10)) == sorted([n] for n in names)


@pytest.mark.parametrize("shards", (2, 3, 4))
def test_partition_never_puts_three_neighbours_on_one_shard(shards):
    """A troupe laid out over three consecutive machines always splits."""
    names = ["host%d" % i for i in range(1000)]
    owner = shard_of_host(names, shards)
    sizes = [list(owner.values()).count(shard) for shard in range(shards)]
    assert max(sizes) - min(sizes) <= 1
    for a, b, c in zip(names, names[1:], names[2:]):
        assert not owner[a] == owner[b] == owner[c], (a, b, c)


def test_partition_balances_a_zipf_hot_layout():
    """The capacity layout: 250 four-host cells, a 3-member troupe on the
    first machines of each, cells called by Zipf(1.1) popularity.  A
    contiguous cut gives one shard 90 % of the server work; the stripe
    keeps it within 60 / 40."""
    cells, cell_size, degree = 250, 4, 3
    names = ["host%d" % i for i in range(cells * cell_size)]
    owner = shard_of_host(names, 2)
    zipf = ZipfSampler(cells, 1.1)
    rng = RandomStream(7, "zipf-balance")
    load = [0, 0]
    for _ in range(3000):
        first = zipf.sample(rng) * cell_size
        for member in names[first:first + degree]:
            load[owner[member]] += 1
    assert max(load) <= 0.6 * sum(load), load


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


def _crossing_link():
    """``(src, dst)``: host0 and the first host on another shard at both
    2 and 4 shards of the 8-machine world."""
    names = ["host%d" % i for i in range(WORKLOAD["machines"])]
    owners = [shard_of_host(names, shards) for shards in (2, 4)]
    return names[0], next(
        name for name in names
        if all(owner[name] != owner[names[0]] for owner in owners))


def _assert_same_at_every_shard_count(builder, **overrides):
    results = {shards: _run(shards, builder=builder, **overrides)
               for shards in (1, 2, 4)}
    reference = results[1]
    for result in results.values():
        assert result.digest == reference.digest
        assert result.network == reference.network
    return reference


def test_link_fault_across_shard_boundary():
    """A loss window on a link that crosses a shard boundary must produce
    the same drops — and the same digest — at every shard count, because
    the loss draw happens on the source shard from the per-link stream."""
    src, dst = _crossing_link()
    fault = LinkFault(loss=1.0, src=src, dst=dst)

    def faulty_builder(world):
        _small_builder()(world)
        world.sim.schedule(100.0, world.net.add_fault, fault)
        world.sim.schedule(900.0, world.net.remove_fault, fault)

    reference = _assert_same_at_every_shard_count(faulty_builder)
    assert reference.network["packets_dropped"] > 0


def test_link_delay_reorder_duplicate_across_shard_boundary():
    """Every fault that moves a delivery time — fixed extra delay, a
    reorder hold, a duplicate — only ever adds to the transit floor, so a
    crossing link under all three never violates the lookahead
    (``ShardNetwork.inject`` would raise).  A zero-length datagram on the
    unfaulted reverse link is the case where the floor is tight."""
    src, dst = _crossing_link()
    fault = LinkFault(extra_delay=0.3, reorder=0.5, duplicate=0.5,
                      src=src, dst=dst)

    def faulty_builder(world):
        _small_builder()(world)
        world.sim.schedule(100.0, world.net.add_fault, fault)
        world.sim.schedule(900.0, world.net.remove_fault, fault)
        if world.owns(dst):
            world.sim.schedule(150.0, world.net.send, Datagram(
                ProcessAddress(dst, 9), ProcessAddress(src, 9), b""))

    reference = _assert_same_at_every_shard_count(faulty_builder)
    assert reference.network["packets_duplicated"] > 0


def test_zero_length_datagram_lands_exactly_on_the_window_bound():
    """Without jitter an empty datagram spends exactly the transit floor
    on the wire: sent by the first event of a window, it is delivered at
    that window's bound — not inside it, and not an ulp later."""
    config = NetworkConfig(jitter=0.0)
    arrivals = []

    def builder(world):
        src, dst = ProcessAddress("host0", 9), ProcessAddress("host1", 9)
        if world.owns(dst.host):
            world.net.bind(dst, lambda _: arrivals.append(world.sim.now))
        if world.owns(src.host):
            world.sim.schedule_at(10.0, world.net.send,
                                  Datagram(src, dst, b""))

    for shards in (1, 2):
        result = run_sharded(builder, machines=2, horizon=50.0,
                             shards=shards, net_config=config)
        assert result.network["packets_delivered"] == 1
    assert arrivals == [10.0 + config.min_transit()] * 2
    assert result.cross_shard_messages == 1


def test_transit_time_never_undercuts_the_floor():
    """``min_transit`` is a lower bound of ``transit_time`` for every
    datagram size (the sum is associated differently, so this is a
    property to check, not an identity), and exact for an empty one."""
    rng = RandomStream(3, "transit")
    for config in (NetworkConfig(), NetworkConfig(jitter=0.0),
                   NetworkConfig(latency=0.05, bandwidth=125.0,
                                 header_bytes=28)):
        floor = config.min_transit()
        assert floor == config.latency \
            + config.header_bytes / config.bandwidth
        for size in range(config.mtu + 1):
            assert config.transit_time(size, rng.random()) >= floor
    assert NetworkConfig(jitter=0.0).transit_time(0, rng.random()) \
        == NetworkConfig().min_transit()


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
@pytest.mark.parametrize("shards", (2, 3, 4))   # 3: uneven stripes, 3/3/2
def test_process_mode_matches_inproc(shards):
    def pid_builder(world):
        _small_builder()(world)
        world.samples["pid-of-shard-%d" % world.shard_index] = [os.getpid()]

    inproc = _run(shards, builder=pid_builder)
    forked = _run(shards, mode="process", builder=pid_builder)
    assert forked.mode == "process"
    assert forked.to_json_dict() == inproc.to_json_dict()
    # n shards are n processes: the caller steps shard 0 itself.
    pids = [forked.samples["pid-of-shard-%d" % index][0]
            for index in range(shards)]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == shards
    assert {inproc.samples["pid-of-shard-%d" % index][0]
            for index in range(shards)} == {os.getpid()}


_ONE_CPU_RUN = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.bench.workloads import capacity_builder
from repro.sim.sharded import available_cpus, run_sharded
spec = json.loads(sys.argv[1])
machines = spec.pop("machines")
result = run_sharded(capacity_builder(**spec), machines=machines,
                     horizon=2000.0, seed=spec["seed"], shards=2,
                     mode="process")
assert result.mode == "process"
print(json.dumps([available_cpus(), result.to_json_dict()]))
"""


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_process_mode_on_one_cpu_parks_and_gives_the_same_bytes():
    """With fewer CPUs than shards no pipe end polls (a spinning reader
    would hold the CPU its peer needs); the run serializes to the same
    bytes as the polling one above and as the in-process one."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(sharded.__file__))))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_RUN, json.dumps(WORKLOAD)],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
        stdout=subprocess.PIPE).stdout
    cpus, forked = json.loads(out)
    assert cpus == 1
    assert forked == json.loads(json.dumps(_run(2).to_json_dict()))


class _FakeConn:
    """A pipe end whose message shows up at the ``ready_at``-th look."""

    def __init__(self, ready_at=None):
        self.ready_at = ready_at
        self.polls = 0
        self.sent = []

    def poll(self, timeout):
        assert timeout == 0             # a look never sleeps
        self.polls += 1
        return self.polls == self.ready_at

    def recv(self):
        return "polled %d" % self.polls

    def send(self, message):
        self.sent.append(message)


def test_a_waiting_pipe_end_polls_a_bounded_count_then_parks():
    # Stops looking at the first ready poll...
    recv = sharded._poll_recv
    assert recv(_FakeConn(ready_at=1), SPIN_POLLS) == "polled 1"
    assert recv(_FakeConn(ready_at=37), SPIN_POLLS) == "polled 37"
    # ...never looks more often than the constant before the blocking
    # read (a child still building, a dead peer)...
    assert recv(_FakeConn(), SPIN_POLLS) == "polled %d" % SPIN_POLLS
    # ...and not at all where it was told there is no CPU to spin on.
    assert recv(_FakeConn(ready_at=1), 0) == "polled 0"


@pytest.mark.parametrize("cpus, polls", ((1, False), (2, True), (8, True)))
def test_pipes_poll_only_with_a_cpu_per_shard(monkeypatch, cpus, polls):
    spins = []

    class Port(sharded._LocalShard):    # a port that needs no fork
        def __init__(self, spin, *shard_args):
            spins.append(spin)
            super().__init__(*shard_args)

    monkeypatch.setattr(sharded, "_ForkedShard", Port)
    monkeypatch.setattr(sharded, "available_cpus", lambda: cpus)
    assert _run(2, mode="process").to_json_dict() == _run(2).to_json_dict()
    assert spins == [SPIN_POLLS if polls else 0]


def test_shard_child_leaves_ctrl_c_to_the_coordinator(monkeypatch):
    """A terminal's Ctrl-C reaches the whole process group; the child
    ignores it and is terminated by the coordinator's ``close``."""
    installed = []
    monkeypatch.setattr(signal, "signal",
                        lambda *pair: installed.append(pair))
    conn = _FakeConn()
    conn.recv = lambda: None            # straight to the summary request
    sharded._shard_child(conn, 0, 0, 1, _small_builder(),
                         WORKLOAD["machines"], WORKLOAD["seed"], None, None,
                         2000.0)
    assert installed == [(signal.SIGINT, signal.SIG_IGN)]
    assert [error for error, _ in conn.sent] == [None, None]


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

    started = time.monotonic()
    with pytest.raises(RuntimeError,
                       match=r"shard 1 child died \(exit code 3\)"):
        _run(2, mode="process", builder=dying_builder)
    # A closed pipe polls ready and its read raises: no hang while polling.
    assert time.monotonic() - started < 5.0
    assert multiprocessing.active_children() == []
    assert gc.isenabled()


@needs_fork
def test_child_dying_while_the_coordinator_steps_is_the_same_error():
    """Shard 1 exits in the window the coordinator is still busy in (same
    virtual instant, and the coordinator's own event dawdles): the death
    is found at that window's ``finish`` and named the same way."""
    def builder(world):
        _small_builder()(world)
        if world.shard_index == 1:
            world.sim.schedule(200.0, os._exit, 3)
        elif world.shard_index == 0:
            world.sim.schedule(200.0, time.sleep, 0.2)

    with pytest.raises(RuntimeError,
                       match=r"shard 1 child died \(exit code 3\)"):
        _run(3, mode="process", builder=builder)
    assert multiprocessing.active_children() == []
    assert gc.isenabled()


class _LocalShardBroke(Exception):
    pass


def _raise(exc):
    raise exc


@needs_fork
@pytest.mark.parametrize("exc_type", (_LocalShardBroke, KeyboardInterrupt))
def test_failure_in_the_coordinators_own_shard_reaps_the_children(exc_type):
    """An exception out of shard 0 — stepped by the caller — surfaces as
    itself, not wrapped, with every child terminated and reaped and the
    collector back on; an interrupt takes the same way out."""
    def builder(world):
        _small_builder()(world)
        if world.shard_index == 0:
            world.sim.schedule(200.0, _raise, exc_type("mid-window"))

    with pytest.raises(exc_type, match="mid-window"):
        _run(3, mode="process", builder=builder)
    assert multiprocessing.active_children() == []
    assert gc.isenabled()


@needs_fork
def test_failed_build_of_the_local_shard_reaps_children_already_forked():
    def builder(world):
        if world.shard_index == 0:
            raise _LocalShardBroke("no shard 0 today")
        _small_builder()(world)

    with pytest.raises(_LocalShardBroke, match="no shard 0 today"):
        _run(3, mode="process", builder=builder)
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


# -- what a big, mostly idle world holds ------------------------------------

def _traced_bytes_each(count, build):
    """Bytes still allocated per item after ``build(i)`` ran for ``count``
    items whose results are kept (tracemalloc: exact and repeatable)."""
    kept = [None] * count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            kept[i] = build(i)
        return (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()


def test_a_link_that_drew_once_holds_draws_not_a_generator():
    """The 1,000-host world sends on ~15,000 links, nearly all of them a
    handful of times; a Mersenne Twister each was 3 KiB a link.  Counting
    the two host names, the key and the table entry, a link that drew
    once measured 440 B while it held its draws as a list of floats and a
    seeding string, 347 B as an object holding an ``array('d')`` and the
    table's own key, and 273 B as a row of one table for every link."""
    net = ShardNetwork(Simulator(), seed=5, config=NetworkConfig())

    def draw_once(i):
        return net._random(net._link("m%d" % (i // 50), "n%d" % (i % 50)))

    assert _traced_bytes_each(2000, draw_once) < 285
    assert len(net.links.numbers) == 2000


def test_a_queue_nothing_waited_in_holds_no_deque():
    """Two empty deques were 1.5 KiB of every queue built."""
    sim = Simulator()
    assert _traced_bytes_each(1000, lambda i: Queue(sim, "q")) < 300


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
