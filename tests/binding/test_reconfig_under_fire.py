"""Membership changes under fire: the §6.2/§6.4.1 protocols exercised
at their edges — concurrent registration, joins racing undeclared
crashes, state transfer across a partition, and the last-member
guard.

These are the reconfiguration windows the ``elastic`` fuzz scenarios
bombard with event-aligned faults; here each edge is pinned down as a
deterministic unit test.
"""

import pytest

from repro.binding import BindingError, join_troupe
from repro.sim import Queue
from tests.binding.test_ringmaster import (counter_module, echo_module,
                                           make_client, make_server,
                                           make_world)


def test_concurrent_adds_serialize_and_ids_stay_unique():
    """Two members registering *concurrently* race for the next troupe
    ID.  The (serial-execution) Ringmaster serializes them: both adds
    succeed, the IDs they mint are distinct, and every member converges
    on the final incarnation."""
    world, ringmaster, rm_members = make_world()
    rt_a, binding_a, member_a = make_server(
        world, world.machines[3], ringmaster, echo_module())
    rt_b, binding_b, member_b = make_server(
        world, world.machines[4], ringmaster, echo_module())
    ids = {}
    done = Queue(world.sim, "adds-done")

    def add(label, binding, member):
        ids[label] = yield from binding.export_module("svc", member)
        done.put(label)

    def body():
        world.sim.spawn(add("a", binding_a, member_a), name="add-a")
        world.sim.spawn(add("b", binding_b, member_b), name="add-b")
        yield done.get()
        yield done.get()

    world.run(body())
    assert set(ids) == {"a", "b"}
    assert ids["a"] != ids["b"], "each add must mint a fresh troupe ID"
    final = max(ids.values())
    # set_troupe_id from the second add reached both members.
    assert rt_a.troupe_id == final
    assert rt_b.troupe_id == final
    # Every Ringmaster replica agrees on the serialized outcome.
    for rm in rm_members:
        stored_id, members = rm.by_name["svc"]
        assert stored_id == final
        assert sorted(m.process.host for m in members) == \
            sorted([member_a.process.host, member_b.process.host])


def test_join_while_member_crashed_but_undeclared():
    """§6.4.1 join while one member is crashed but nobody has told the
    Ringmaster yet: the replicated get_state presumes the dead member
    crashed and transfers the survivor's state, so the join completes —
    with the corpse still registered (the Janitor's job, not the
    joiner's)."""
    world, ringmaster, rm_members = make_world()
    state1, state2 = {}, {}
    rt1, binding1, member1 = make_server(
        world, world.machines[3], ringmaster, counter_module(state1))
    rt2, binding2, member2 = make_server(
        world, world.machines[4], ringmaster, counter_module(state2))
    world.run(binding1.export_module("counter", member1))
    world.run(binding2.export_module("counter", member2))

    client_rt, client_binding = make_client(world, ringmaster)

    def warm_up():
        for _ in range(3):
            yield from client_binding.call("counter", 0, b"")

    world.run(warm_up())
    assert state1["count"] == state2["count"] == 3

    # Fail-stop, undeclared: no Janitor sweep before the join.
    world.machine(member2.process.host).crash()

    state3 = {}
    module3 = counter_module(state3)
    rt3, binding3, member3 = make_server(
        world, world.machines[5], ringmaster, module3)

    def join():
        return (yield from join_troupe(rt3, module3, member3, "counter",
                                       binding3))

    new_id = world.run(join())
    assert state3["count"] == 3          # survivor's state transferred
    assert rt3.troupe_id == new_id
    assert rt1.troupe_id == new_id
    # The corpse is still on the books: three registered members.
    for rm in rm_members:
        _tid, members = rm.by_name["counter"]
        assert len(members) == 3

    # Calls still work: the dead member is presumed crashed per call.
    def call():
        return (yield from client_binding.call("counter", 0, b""))

    assert world.run(call()) == b"4"
    assert state3["count"] == 4          # the joiner participates


def test_get_state_across_partition_uses_reachable_state():
    """A §6.4.1 join launched while the network is partitioned: the
    joiner can reach only a minority of the troupe.  The unreachable
    members are presumed crashed (§4.3.5 probes), so the transfer
    completes from the reachable member's state alone — the documented
    quiescence hazard, pinned down."""
    world, ringmaster, _ = make_world()
    states = [{}, {}]
    servers = []
    for i, state in enumerate(states):
        rt, binding, member = make_server(
            world, world.machines[3 + i], ringmaster, counter_module(state))
        servers.append((rt, binding, member))
        world.run(binding.export_module("counter", member))

    client_rt, client_binding = make_client(world, ringmaster)

    def warm_up():
        for _ in range(2):
            yield from client_binding.call("counter", 0, b"")

    world.run(warm_up())
    assert states[0]["count"] == states[1]["count"] == 2

    # Cut machine 4 (the second member) off from everyone else.
    lost_host = servers[1][2].process.host
    world.net.partition([[lost_host]])

    state_new = {}
    module_new = counter_module(state_new)
    rt_new, binding_new, member_new = make_server(
        world, world.machines[5], ringmaster, module_new)

    def join():
        return (yield from join_troupe(rt_new, module_new, member_new,
                                       "counter", binding_new))

    new_id = world.run(join())
    assert state_new["count"] == 2       # the reachable member's state
    assert rt_new.troupe_id == new_id
    # The partitioned member never heard about the new incarnation: its
    # view is the stale troupe ID — §6.2's ID check is what keeps any
    # call it later receives from silently succeeding.
    assert servers[1][0].troupe_id != new_id
    assert servers[0][0].troupe_id == new_id
    world.net.heal()


def test_remove_of_last_member_is_rejected():
    """Deleting the only member would leave a named, empty troupe —
    the Ringmaster refuses, and the registry is untouched."""
    world, ringmaster, rm_members = make_world()
    rt, binding, member = make_server(
        world, world.machines[3], ringmaster, echo_module())
    world.run(binding.export_module("solo", member))

    def remove():
        yield from binding.remove_member("solo", member)

    with pytest.raises(BindingError, match="last member"):
        world.run(remove())
    # The registry still lists the member, under the original ID.
    for rm in rm_members:
        _tid, members = rm.by_name["solo"]
        assert [m.process.host for m in members] == [member.process.host]

    # The troupe remains callable after the rejected removal.
    client_rt, client_binding = make_client(world, ringmaster)

    def call():
        return (yield from client_binding.call("solo", 0, b"hi"))

    assert world.run(call()) == b"echo:hi"
