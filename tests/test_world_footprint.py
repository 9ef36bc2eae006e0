"""What a capacity-shaped world holds in flight, counted with ``gc``.

A 40-host world of ``capacity_builder``'s shape, run past its first
calls, is searched object by object (``tests/census.py``'s ``tracked``):
a transfer holds an acknowledged prefix and no ``Condition``, a
one-segment send its own bytes, a queue's getters a list, every machine
the one cost model, and a link stream its draws and no string.  An idle
host holds only what it uses: no instance dict, one shared control
module, and no waiter list, deque, timer service or table before its
first entry or after it drains."""

import gc
from collections import deque

import pytest

from repro.bench.workloads import capacity_builder
from repro.core import runtime as runtime_mod
from repro.core.runtime import (
    CONTROL_MODULE,
    SET_TROUPE_ID_PROC,
    TroupeRuntime,
)
from repro.host.process import OsProcess
from repro.host.syscalls import SyscallCostModel
from repro.net.network import Datagram
from repro.net.udp import UdpSocket
from repro.pairedmsg import endpoint as endpoint_mod
from repro.pairedmsg.endpoint import PairedEndpoint, _OutgoingTransfer
from repro.rpc.threads import ThreadContext
from repro.sim import events as events_mod
from repro.sim.events import Condition, Event, Queue
from repro.sim.kernel import AnyOf, Simulator, Sleep
from repro.sim.rng import LinkDraws
from repro.sim.sharded import ShardedWorld
from tests.census import tracked


def _world_in_flight(payload=b"w", until=90.0):
    world = ShardedWorld(machines=40, seed=3)
    capacity_builder(cells=10, sessions=120, calls_per_session=3,
                     rate=40.0, degree=3, payload=payload, seed=3)(world)
    world.sim.run(until=until)
    return world


def _held(world, cls):
    return [o for o in tracked()
            if type(o) is cls and getattr(o, "sim", None) is world.sim]


def test_a_world_holds_only_what_is_in_flight():
    world = _world_in_flight()
    assert world.counters["calls_completed"] > 0
    transfers = [o for o in tracked()
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
    # a datagram in flight is three slots, no instance dict
    datagrams = [o for o in tracked() if type(o) is Datagram]
    assert len(datagrams) > 10
    assert not any(hasattr(d, "__dict__") for d in datagrams)
    # the links' draws are rows of one table that keeps the network's
    # own keys and no string of its own
    table = world.net.links
    assert type(table) is LinkDraws and len(table.numbers) > 20
    assert [table._keys[n] for n in table.numbers.values()] \
        == list(table.numbers)
    assert all(table._keys[n] is key for key, n in table.numbers.items())
    assert len(table._held) == 4 * len(table._keys) == 4 * len(table._taken)
    assert not any(isinstance(o, str) for o in gc.get_referents(table))


def _shared_empties_are_empty():
    assert events_mod._NO_WAITERS == []
    assert len(events_mod._NO_DEQUE) == 0
    assert endpoint_mod._NO_ENTRIES == {}
    assert endpoint_mod._NO_MARKS == set()
    assert runtime_mod._NO_CALLS == {}
    assert runtime_mod._CONTROL_ONLY == {CONTROL_MODULE: runtime_mod._CONTROL}
    assert list(runtime_mod._CONTROL.procedures) == [SET_TROUPE_ID_PROC]


def test_an_idle_host_holds_only_what_it_uses():
    world = _world_in_flight()
    runtimes = world.runtimes
    endpoints = [r.endpoint for r in runtimes]
    processes = [r.process for r in runtimes]
    sockets = [e.sock for e in endpoints]
    contexts = [r.threads for r in runtimes]
    # no instance dict on a per-host class
    for objects in (runtimes, endpoints, processes, sockets, contexts):
        assert objects and not any(hasattr(o, "__dict__") for o in objects)
    assert {type(o) for o in runtimes + endpoints + processes} == {
        TroupeRuntime, PairedEndpoint, OsProcess}
    assert {type(o) for o in sockets + contexts} == {UdpSocket,
                                                      ThreadContext}
    # one control module for every runtime; one table for every runtime
    # that exported nothing (the clients)
    assert len({id(r.exports[CONTROL_MODULE]) for r in runtimes}) == 1
    clients = [r for r in runtimes if len(r.exports) == 1]
    assert clients and all(r.exports is runtime_mod._CONTROL_ONLY
                           for r in clients)
    # a waiter list, a deque: shared while nothing waits
    no_waiters = events_mod._NO_WAITERS
    waitables = _held(world, Event) + _held(world, Condition)
    idle = [o for o in waitables if len(o._waiters) == o._dead]
    assert len(idle) > 100
    assert all(o._waiters is no_waiters for o in idle)
    queues = _held(world, Queue)
    assert all(q._getters is no_waiters for q in queues
               if len(q._getters) == q._dead)
    assert all(q._items is events_mod._NO_DEQUE for q in queues
               if not q._items)
    # an endpoint's tables: shared before their first entry and again
    # once drained; most have drained by now
    empty, marks = endpoint_mod._NO_ENTRIES, endpoint_mod._NO_MARKS
    drained = 0
    for e in endpoints:
        for table in (e._sends, e._assemblies, e._completed_returns,
                      e._return_waiters):
            assert table or table is empty
        assert e._discarded_returns or e._discarded_returns is marks
        drained += e._sends is empty and e.counters["packets_sent"] > 0
    assert drained > 20
    assert all(r._groups or r._groups is runtime_mod._NO_CALLS
               for r in runtimes)
    assert any(r._finished for r in runtimes)
    assert all(r._finished or r._finished is runtime_mod._NO_CALLS
               for r in runtimes)
    _shared_empties_are_empty()
    # delivered-call memory keeps call numbers, not times: a tuple of
    # them, or a dict's keys once a peer has more than eight
    memory = [per_peer for e in endpoints
              for table in (e._delivered_calls, e._delivered_returns)
              for per_peer in table.values()]
    assert len(memory) > 50
    assert all(type(m) is tuple and 0 < len(m) <= 8 or type(m) is dict
               and len(m) > 8 and set(m.values()) == {None} for m in memory)
    assert all(type(n) is int for m in memory for n in m)


#: the methods through which the code could write into a shared empty
_WRITES = {list: ("append", "extend", "insert", "__setitem__"),
           dict: ("__setitem__", "setdefault", "update"),
           set: ("add", "update"),
           deque: ("append", "appendleft", "extend")}


def _sealed(kind, writes, *items):
    """A ``kind`` holding ``items`` that records every write into it."""
    def recorder(name):
        method = getattr(kind, name)

        def write(self, *args, **kwargs):
            writes.append((kind.__name__, name))
            return method(self, *args, **kwargs)
        return write
    cls = type("Sealed" + kind.__name__, (kind,),
               {name: recorder(name) for name in _WRITES[kind]})
    return cls(*items)


def test_no_write_reaches_a_shared_empty(monkeypatch):
    """Every shared empty, sealed, through a run of the same world whose
    calls take three segments each (so receivers table assemblies): a
    write the run undoes before it ends is caught too."""
    writes = []
    for module, name, kind in (
            (events_mod, "_NO_WAITERS", list),
            (events_mod, "_NO_DEQUE", deque),
            (endpoint_mod, "_NO_ENTRIES", dict),
            (endpoint_mod, "_NO_MARKS", set),
            (runtime_mod, "_NO_CALLS", dict)):
        monkeypatch.setattr(module, name, _sealed(kind, writes))
    monkeypatch.setattr(runtime_mod, "_CONTROL_ONLY", _sealed(
        dict, writes, {CONTROL_MODULE: runtime_mod._CONTROL}))
    world = _world_in_flight(payload=b"w" * 2500, until=200.0)
    assert world.counters["calls_completed"] > 0
    assert any(e._assemblies for e in (r.endpoint for r in world.runtimes))
    assert writes == []
    _shared_empties_are_empty()


def test_a_primitive_goes_back_to_its_shared_empties():
    sim = Simulator()
    queue, cond, event = Queue(sim), Condition(sim), Event(sim)
    got = []

    def getter():
        for _ in range(3):
            got.append((yield queue.get()))

    def waiter():
        yield AnyOf(cond, Sleep(1.0))       # times out: cancelled
        yield AnyOf(event, Sleep(5.0))      # fired

    queue.put("a")
    queue.put("b")
    queue.put("c")
    assert queue.get_nowait() == "a"
    sim.spawn(getter())
    sim.spawn(waiter())
    sim.run(until=0.5)
    assert got == ["b", "c"] and not queue._items
    assert queue._items is events_mod._NO_DEQUE
    assert queue._getters is not events_mod._NO_WAITERS   # one waits
    assert cond._waiters is not events_mod._NO_WAITERS
    queue.put("d")
    sim.run(until=2.0)
    assert got[-1] == "d"
    assert queue._getters is events_mod._NO_WAITERS
    assert cond._waiters is events_mod._NO_WAITERS
    assert event._waiters is not events_mod._NO_WAITERS
    event.fire()
    sim.run()
    assert event._waiters is events_mod._NO_WAITERS
    _shared_empties_are_empty()
