"""What a capacity-shaped world holds in flight, counted with ``gc``.

A 40-host world of ``capacity_builder``'s shape, run past its first
calls, is searched object by object: a transfer holds an acknowledged
prefix and no ``Condition``, a one-segment send its own bytes, a queue's
getters a list, every machine the one cost model, and a link stream its
draws and no string."""

import gc
from collections import deque

import pytest

from repro.bench.workloads import capacity_builder
from repro.host.syscalls import SyscallCostModel
from repro.pairedmsg.endpoint import _OutgoingTransfer
from repro.sim.events import Condition, Queue
from repro.sim.rng import LinkStream
from repro.sim.sharded import ShardedWorld


def _world_in_flight():
    world = ShardedWorld(machines=40, seed=3)
    capacity_builder(cells=10, sessions=120, calls_per_session=3,
                     rate=40.0, degree=3, seed=3)(world)
    world.sim.run(until=90.0)
    return world


def _held(world, cls):
    gc.collect()
    return [o for o in gc.get_objects()
            if type(o) is cls and getattr(o, "sim", None) is world.sim]


def test_a_world_holds_only_what_is_in_flight():
    world = _world_in_flight()
    assert world.counters["calls_completed"] > 0
    transfers = [o for o in gc.get_objects()
                 if type(o) is _OutgoingTransfer
                 and o.endpoint.sim is world.sim]
    assert len(transfers) > 20
    # no Condition per transfer: only the stop-and-wait sender builds one
    assert all(t._progress is None for t in transfers)
    assert len(_held(world, Condition)) < len(transfers)
    # a one-segment send is its own bytes: no view, no slice
    single = [t for t in transfers if len(t.segments) == 1]
    assert single
    assert all(type(t.segments[0].data) is bytes for t in single)
    # a queue's getters are a list, and one at most waits at a time
    queues = _held(world, Queue)
    assert len(queues) > 100
    assert not any(isinstance(q._getters, deque) for q in queues)
    assert max(len(q._getters) - q._dead for q in queues) == 1
    # one cost model for every machine
    models = {id(m.cost_model) for m in world.machines}
    assert len(models) == 1
    assert isinstance(world.machines[0].cost_model, SyscallCostModel)
    with pytest.raises(TypeError):   # shared, so replaced, never mutated
        world.machines[0].cost_model.costs["sendmsg"] = 0.0
    # a link stream holds draws and the network's own key, no string
    links = list(world.net._link_rngs.items())
    assert len(links) > 20
    for key, link in links:
        assert type(link) is LinkStream and link._link is key
        assert not any(isinstance(o, str) for o in gc.get_referents(link))
