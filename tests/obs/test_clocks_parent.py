"""A stamp is a shared tuple now; its value is the dict it used to be.

``ClockDomain`` keeps a dense vector per node and gives every event the
one tuple its tick produced, building ``event.vc`` only when it is read.
The domain as it was while every causal event got a dict of its own is
``test_clocks``' ``_DictClockDomain`` ticking on the causal kinds (the
differential domain's ``parent``): run beside the real domain on every
event of a run, the two must agree on each event's ``(node, lamport,
vc)``, on every node's clock at the end and on every causal cut
(``check_stamps``); run alone in its place, on the explorer's history
digest and post-mortem (``test_clocks``' fault tests).  Here: the edges
evicted at a cap of 2 (lossy calls) and of 16 (the circus shape's dead
RETURN edges), a thread per call at a cap of 2, a many-to-many call's
joined edges, foreign evidence, and the tuple join, the edge table and
the thread-numbered edge keys against their dict, ``OrderedDict`` and
tuple-keyed originals.
"""

import random
import types

import pytest

from repro.core import ExportedModule
from repro.harness import World
from repro.obs import EventBus, clocks, events
from repro.obs.clocks import vc_merge, vt_join
from tests.obs.test_clocks import (_Bounded, _bulk_lossy,
                                   _DifferentialDomain, differential)


@pytest.mark.parametrize("shape,cap", [("bulk-lossy", 2), ("circus", 16)],
                         ids=["bulk-lossy-2", "circus-16"])
def test_every_stamp_is_the_parents_on_the_echo_shapes(differential,
                                                       monkeypatch, shape,
                                                       cap):
    """Both domains' edge tables capped at ``cap``.  The 13-segment lossy
    calls at 2: edges are evicted all the time.  The circus shape at 16:
    each call's RETURN retransmissions reach a client that has already
    delivered, so their edges are never taken and the table fills with
    dead ones, evicted as ``observed`` evicts them in its steady state."""
    from repro.bench import scenarios
    monkeypatch.setattr(_DifferentialDomain, "cap", cap)
    world, body = {"bulk-lossy": _bulk_lossy,
                   "circus": lambda: scenarios.circus(40)}[shape]()
    with world.watch() as probe:
        world.run(body())
    assert probe.violations == []
    (domain,) = differential
    assert len(domain.stream) > 1000
    domain.check_stamps()
    if shape == "bulk-lossy":
        assert {"pm.retransmit", "pm.dup", "net.drop", "net.dup"} \
            <= domain.kinds
    else:
        assert {"pm.retransmit", "pm.dup"} <= domain.kinds
        assert len(domain._pm_edges) == len(domain.parent._pm_edges)
        assert sum(e.kind == "pm.send" for e in domain.stream) > 10 * cap


def test_a_many_to_many_call_joins_its_callers_edges(differential):
    """Two client members call one server troupe: each member's
    execution merges the joined frontier of both callers."""
    from repro.bench.scenarios import echo_module
    world = World(machines=5, seed=9)
    servers, _ = world.make_troupe("echo", echo_module, degree=3)

    def client_module():
        def relay(ctx, args):
            return (yield from ctx.call(servers, 0, 0, args))
        return ExportedModule("relay", {0: relay})

    relays, _ = world.make_troupe("relay", client_module, degree=2)
    client = world.make_client()

    def body():
        for i in range(3):
            yield from client.call_troupe(relays, 0, 0, b"m2m %d" % i)

    with world.watch() as probe:
        world.run(body())
    assert probe.violations == []
    (domain,) = differential
    execs = [e for e in domain.stream
             if e.kind == "rpc.exec_start" and "echo" in e.node]
    assert execs and all(len([n for n in e.vc if "relay" in n]) == 2
                         for e in execs)
    domain.check()


def test_a_thread_per_call_leaves_no_thread_behind_its_edges(differential,
                                                             monkeypatch):
    """Open-loop arrivals, each call on a fresh thread id and overlapping
    its neighbours, with every table capped at 2: a thread's number
    outlives each edge of its own (every stamp is still the parent's),
    and a thread whose edges have all been evicted is gone."""
    from repro.bench.workloads import OpenLoopGenerator, echo_troupe
    monkeypatch.setattr(_DifferentialDomain, "cap", 2)
    world = World(machines=4, seed=5)
    troupe = echo_troupe(world, degree=3)
    with world.watch() as probe:
        result = OpenLoopGenerator(world, troupe, rate=200.0,
                                   total_calls=40, seed=5).run()
    assert probe.violations == [] and len(result.latencies) == 40
    (domain,) = differential
    domain.check_stamps()
    for edges, threads in ((domain._call_edges, domain._callers),
                           (domain._return_edges, domain._returners)):
        assert len(edges) == 2
        assert {key & 0xFFFFFFFF for key in edges} \
            == {number for (number,) in threads.values()}


def test_the_tuple_join_is_the_dict_merge():
    names = ["n%d" % i for i in range(6)]
    rng = random.Random(6)
    for _ in range(3000):
        a, b = (tuple(rng.choice((0, 0, 1, 2, 3))
                      for _ in range(rng.randint(0, 6))) for _ in "ab")
        da, db = ({names[i]: c for i, c in enumerate(v) if c}
                  for v in (a, b))
        joined = vt_join(a, b)
        assert {names[i]: c for i, c in enumerate(joined) if c} \
            == vc_merge(dict(da), db), (a, b)


@pytest.mark.parametrize("cap", [0, 1, 5, 300])
def test_an_edge_table_evicts_what_the_ordered_dict_evicted(cap):
    """Puts of new keys, refreshes, and pops (a delivery takes its edge)
    in any mix leave both tables with the same entries in the same order."""
    rng = random.Random(cap)
    table, parent = clocks._Bounded(cap), _Bounded(cap)
    for i in range(20000):
        key = rng.randrange(2 * cap + 40)
        if rng.random() < 0.3:
            assert table.pop(key, None) is parent.pop(key, None)
        else:
            value = (key, i)
            table.put(key, value)
            parent.put(key, value)
        assert list(table.items()) == list(parent.items())


@pytest.mark.parametrize("cap", [1, 2, 5, 40])
def test_a_thread_numbered_edge_is_the_tuple_keyed_one(cap):
    """Returns (joined) and results in any mix, from long-lived threads
    and fresh ones: every lookup reads what a table keyed by ``(thread,
    call number)`` holds at the same cap, and every live edge's thread
    still has its number."""
    rng = random.Random(cap)
    domain, parent = clocks.ClockDomain(cap), _Bounded(cap)
    threads = ["t0", "t1"]
    for _ in range(20000):
        if rng.random() < 0.02:
            threads.append("t%d" % len(threads))
        event = types.SimpleNamespace(
            thread_id=rng.choice(threads[:2] + threads[-3:]),
            call_number=rng.randrange(5))
        key = (event.thread_id, event.call_number)
        if rng.random() < 0.5:
            vt = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
            domain._out_return(event, vt)
            prior = parent.get(key)
            parent.put(key, vt if prior is None else vt_join(prior, vt))
        else:
            edge = domain._in_result(event)
            assert (edge if edge is None else tuple(edge)) \
                == parent.get(key), key
    assert {key & 0xFFFFFFFF for key in domain._return_edges} \
        <= {number for (number,) in domain._returners.values()}


def test_a_violation_citing_a_foreign_stamp_merges_it_by_name(differential):
    """Evidence stamped by hand (or by another domain) joins the
    frontier by node name; its nodes get an entry but no clock."""
    bus = EventBus()
    domain = _DifferentialDomain().install(bus)
    send = events.MessageSent(t=1.0, endpoint="a:1", peer="b:1",
                              call_number=1, proc="p")
    bus.emit(send)
    foreign = events.ExecutionStarted(t=1.5, host="h", proc="q")
    foreign.vc = {"elsewhere": 2, "a/p": 5}
    foreign.lamport = 7
    violation = events.InvariantViolation(t=2.0, monitor="M",
                                          evidence=(send, foreign))
    bus.emit(violation)
    after = events.MessageSent(t=3.0, endpoint="a:1", peer="b:1",
                               call_number=2, proc="p")
    bus.emit(after)
    assert violation.vc == {"a/p": 5, "elsewhere": 2, "monitor:M": 1}
    assert violation.lamport == 8
    assert domain.nodes() == ("a/p", "monitor:M")
    assert after.vc == {"a/p": 2}
    assert domain.check_stamps() == 1
