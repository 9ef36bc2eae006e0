"""Tests for the causal clocks (repro.obs.clocks)."""

import collections
import copy
import random
import types

import pytest

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.obs import EventBus, events
from repro.obs.clocks import (ClockDomain, causal_sort_key, concurrent,
                              happens_before, vc_leq, vc_merge)
from repro.obs.monitor import DEFAULT_MONITORS, MonitorSuite
from repro.obs.recorder import FlightRecorder


# ---------------------------------------------------------------------------
# Vector clock algebra
# ---------------------------------------------------------------------------

def test_vc_leq_pointwise():
    assert vc_leq({}, {})
    assert vc_leq({}, {"a": 1})
    assert vc_leq({"a": 1}, {"a": 1})
    assert vc_leq({"a": 1}, {"a": 2, "b": 1})
    assert not vc_leq({"a": 2}, {"a": 1})
    assert not vc_leq({"b": 1}, {"a": 1})


def test_vc_merge_is_pointwise_max():
    a = {"a": 2, "b": 1}
    assert vc_merge(a, {"a": 1, "b": 3, "c": 1}) is a
    assert a == {"a": 2, "b": 3, "c": 1}


def test_happens_before_and_concurrent():
    a = {"p": 1}
    b = {"p": 1, "q": 1}
    assert happens_before(a, b)
    assert not happens_before(b, a)
    assert not happens_before(a, a)
    c = {"q": 1}
    assert concurrent(a, c)
    assert not concurrent(a, b)


# ---------------------------------------------------------------------------
# Stamping on a bare bus
# ---------------------------------------------------------------------------

def _stamped_bus():
    bus = EventBus()
    bus.subscribe(lambda e: None)          # make the bus active
    domain = ClockDomain().install(bus)
    return bus, domain


def _send(endpoint="a:1", peer="b:1", call_number=1, proc="p", t=1.0):
    return events.MessageSent(t=t, endpoint=endpoint, peer=peer, msg_type=0,
                              call_number=call_number, segments=1, size=4,
                              proc=proc)


def _deliver(endpoint="b:1", peer="a:1", call_number=1, proc="q", t=2.0):
    return events.MessageDelivered(t=t, endpoint=endpoint, peer=peer,
                                   msg_type=0, call_number=call_number,
                                   size=4, proc=proc)


def test_causal_events_tick_their_node():
    bus, domain = _stamped_bus()
    e1, e2 = _send(call_number=1), _send(call_number=2, t=2.0)
    bus.emit(e1)
    bus.emit(e2)
    assert e1.node == e2.node == "a/p"
    assert (e1.lamport, e2.lamport) == (1, 2)
    assert e1.vc == {"a/p": 1}
    assert e2.vc == {"a/p": 2}
    assert happens_before(e1.vc, e2.vc)


def test_passive_events_are_stamped_without_moving_a_clock():
    """A passive event gets its node, the node's current Lamport value
    and one shared snapshot of the node's clock, own entry one ahead —
    "just before the next causal event here"."""
    bus, domain = _stamped_bus()
    before = events.ImplicitAck(t=0.5, endpoint="a:1", peer="b:1", proc="p")
    bus.emit(before)
    assert (before.node, before.lamport, before.vc) == ("a/p", 0, {"a/p": 1})
    send = _send()
    bus.emit(send)
    assert (send.lamport, send.vc) == (1, {"a/p": 1})    # the first tick
    acks = [events.ImplicitAck(t=1.5 + i, endpoint="a:1", peer="b:1",
                               proc="p") for i in range(3)]
    for ack in acks:
        bus.emit(ack)
    assert [a.lamport for a in acks] == [1, 1, 1]
    assert all(a.vc == {"a/p": 2} for a in acks)
    # ... built once between two ticks and shared, not copied per event
    assert acks[0]._vt is acks[1]._vt is acks[2]._vt
    assert domain.clock_of("a/p") == {"a/p": 1}          # nothing moved
    again = _send(call_number=2, t=5.0)
    bus.emit(again)
    assert (again.lamport, again.vc) == (2, {"a/p": 2})
    late = events.ImplicitAck(t=6.0, endpoint="a:1", peer="b:1", proc="p")
    bus.emit(late)
    assert late.vc == {"a/p": 3} and late.vc is not acks[0].vc
    assert acks[0].vc == {"a/p": 2}                      # never rewritten
    assert domain.stamped == 7


def test_a_cut_takes_a_passive_event_with_the_next_causal_event_on_its_node():
    bus, domain = _stamped_bus()
    send = _send()
    ack = events.ImplicitAck(t=1.5, endpoint="a:1", peer="b:1", proc="p")
    resend = events.SegmentRetransmitted(t=2.0, endpoint="a:1", peer="b:1",
                                         msg_type=0, call_number=1,
                                         segment=1, proc="p")
    for event in (send, ack, resend):
        bus.emit(event)
    assert vc_leq(send.vc, send.vc) and not vc_leq(ack.vc, send.vc)
    assert vc_leq(ack.vc, resend.vc)
    deliver = _deliver(t=3.0)
    bus.emit(deliver)                   # merges the refreshed edge
    assert vc_leq(ack.vc, deliver.vc)


def test_kernel_events_never_tick():
    bus, domain = _stamped_bus()
    e1 = events.ProcessExited(t=1.0, name="p")
    e2 = events.ProcessExited(t=2.0, name="p")
    bus.emit(e1)
    bus.emit(e2)
    assert e1.node == e2.node == "kernel"
    assert (e1.lamport, e2.lamport) == (0, 0)
    assert e1.vc == e2.vc == {"kernel": 1}
    assert domain.clock_of("kernel") == {}


def test_pm_send_deliver_edge_carries_causality():
    bus, domain = _stamped_bus()
    send = _send(call_number=7, proc="alice")
    unrelated = _send(endpoint="c:1", call_number=9, proc="carol")
    deliver = _deliver(call_number=7, proc="bob")
    bus.emit(send)
    bus.emit(unrelated)
    bus.emit(deliver)
    # The delivery inherits the sender's clock: strict happens-before.
    assert happens_before(send.vc, deliver.vc)
    assert deliver.lamport > send.lamport
    # ... but not the unrelated sender's.
    assert concurrent(unrelated.vc, deliver.vc)


def test_clock_entries_appear_dynamically():
    bus, domain = _stamped_bus()
    assert domain.nodes() == ()
    bus.emit(events.ProcessExited(t=0.0, name="p"))
    assert domain.nodes() == ("kernel",)
    bus.emit(_send())
    assert domain.nodes() == ("a/p", "kernel")
    # The new node's clock has no kernel entry: no edge connects them.
    assert domain.clock_of("a/p") == {"a/p": 1}


def test_retransmission_refreshes_the_message_edge():
    bus, domain = _stamped_bus()
    send = _send()
    rexmit = events.SegmentRetransmitted(t=2.0, endpoint="a:1", peer="b:1",
                                         msg_type=0, call_number=1,
                                         segment=1, proc="p")
    deliver = _deliver(t=3.0)
    bus.emit(send)
    bus.emit(rexmit)
    bus.emit(deliver)
    # The delivery saw the *latest* segment, so both sends precede it.
    assert happens_before(send.vc, deliver.vc)
    assert happens_before(rexmit.vc, deliver.vc)


def test_causal_sort_key_orders_by_lamport():
    bus, domain = _stamped_bus()
    first = _send(call_number=1, t=5.0)
    second = _send(call_number=2, t=1.0)    # later emission, earlier t
    bus.emit(first)
    bus.emit(second)
    assert sorted([second, first], key=causal_sort_key) == [first, second]
    # Passive events between two ticks tie; a stable sort keeps the order
    # it was given, and they land after the tick they follow.
    passive = [events.ImplicitAck(t=6.0, endpoint="a:1", peer="b:1",
                                  proc="p") for _ in range(3)]
    for event in passive:
        bus.emit(event)
    third = _send(call_number=3, t=7.0)
    bus.emit(third)
    emitted = [first, second] + passive + [third]
    assert sorted(emitted, key=causal_sort_key) == emitted


def test_uninstall_restores_the_bus():
    bus, domain = _stamped_bus()
    assert bus.stamper is domain
    domain.uninstall()
    assert bus.stamper is None
    event = events.ProcessExited(t=0.0, name="p")
    bus.emit(event)
    assert not hasattr(event, "vc")


# ---------------------------------------------------------------------------
# The causal vocabulary
# ---------------------------------------------------------------------------

def test_the_causal_vocabulary_is_the_fifteen_declared_kinds():
    assert events.CAUSAL_KINDS == {
        "pm.send", "pm.retransmit", "pm.deliver", "rpc.call_start",
        "rpc.exec_start", "rpc.return", "rpc.result", "mon.violation",
        "rpc.collate", "txn.vote", "txn.commit", "pm.crash", "pm.probe",
        "bind.member", "rpc.call_end"}


def test_every_edge_end_is_causal():
    domain = ClockDomain()
    assert set(domain._incoming) | set(domain._outgoing) \
        <= events.CAUSAL_KINDS


def test_everything_a_builtin_oracle_or_the_history_reads_is_causal():
    """Evidence must own a tick (a violation's frontier is the merge of
    its evidence stamps), and the history records the stamps of what it
    subscribes to; neither may name a passive kind."""
    from repro.obs.history import OperationHistoryRecorder
    for cls in DEFAULT_MONITORS:
        bus = EventBus()                  # no stamper: wanted = subscribed
        cls().attach(bus)
        assert bus.wanted and bus.wanted <= events.CAUSAL_KINDS, cls
    bus = EventBus()
    OperationHistoryRecorder(types.SimpleNamespace(bus=bus))
    assert bus.wanted == {"rpc.call_start", "rpc.call_end"}
    assert bus.wanted <= events.CAUSAL_KINDS


# ---------------------------------------------------------------------------
# Full-stack causality
# ---------------------------------------------------------------------------

def test_full_stack_run_is_causally_consistent():
    world = World(machines=5, seed=3)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()
    seen = []
    world.sim.bus.subscribe(seen.append)
    domain = ClockDomain().install(world.sim.bus)

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"hi")

    world.run(body())
    stamped = [e for e in seen if hasattr(e, "vc")]
    assert stamped == seen                      # everything got a stamp
    calls = [e for e in seen if e.kind == "rpc.call_start"]
    execs = [e for e in seen if e.kind == "rpc.exec_start"]
    results = [e for e in seen if e.kind == "rpc.result"]
    returns = [e for e in seen if e.kind == "rpc.return"]
    assert calls and len(execs) == 3 and len(results) == 3
    # The client's call precedes every replica execution, which precedes
    # its return, which precedes the result's arrival back at the client.
    for exec_event in execs:
        assert happens_before(calls[0].vc, exec_event.vc)
    for result in results:
        assert happens_before(calls[0].vc, result.vc)
        assert any(happens_before(r.vc, result.vc) for r in returns)
    # Executions on distinct replicas are causally concurrent.
    assert concurrent(execs[0].vc, execs[1].vc)
    # Lamport clocks respect the happens-before order everywhere.
    for e in seen:
        assert e.lamport >= 1 if e.causal else e.lamport >= 0
    for exec_event in execs:
        assert exec_event.lamport > calls[0].lamport
    # Only the causal vocabulary moved a clock.
    ticks = sum(domain.clock_of(node)[node] for node in domain.nodes()
                if domain.clock_of(node))
    assert ticks == sum(1 for e in seen if e.causal) < len(seen)


def test_clocks_grow_as_members_are_added():
    """Dynamic vector clocks: each simulated process contributes a clock
    entry only once it emits — later troupe members extend the vector
    without any re-dimensioning of existing clocks."""
    world = World(machines=6, seed=4)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()
    domain = ClockDomain().install(world.sim.bus)
    world.sim.bus.subscribe(lambda e: None)

    def call_once():
        yield from client.call_troupe(troupe, 0, 0, b"x")

    world.run(call_once())
    nodes_before = set(domain.nodes())
    # Grow the troupe: a third member on a fresh machine joins under the
    # same troupe ID (the add_troupe_member shape, without a Ringmaster).
    from repro.core.runtime import TroupeRuntime
    from repro.core.troupe import TroupeDescriptor
    machine = world.machines[-1]
    process = machine.spawn_process("echo")
    runtime = TroupeRuntime(process, config=world.runtime_config,
                            resolver=world.resolver,
                            troupe_id=troupe.troupe_id)
    member_addr = runtime.export(echo_module())
    runtime.start_server()
    merged = TroupeDescriptor(troupe.name, troupe.troupe_id,
                              tuple(troupe.members) + (member_addr,))
    world.register(merged)

    def call_again():
        yield from client.call_troupe(merged, 0, 0, b"y")

    world.run(call_again())
    nodes_after = set(domain.nodes())
    assert nodes_before < nodes_after           # strictly grew
    new_nodes = nodes_after - nodes_before
    assert any("echo" in n for n in new_nodes)


# ---------------------------------------------------------------------------
# Differential: the real stamps against two dict-per-stamp references
# ---------------------------------------------------------------------------

class _Bounded(collections.OrderedDict):
    """An edge table as it was: an ``OrderedDict`` that evicts its oldest
    entry past ``cap`` (``None``: never)."""

    def __init__(self, cap=None):
        super().__init__()
        self.cap = cap

    def put(self, key, value) -> None:
        self.pop(key, None)
        self[key] = value
        while self.cap is not None and len(self) > self.cap:
            self.popitem(last=False)


class _DictClockDomain(ClockDomain):
    """The clock domain with a dict per stamp: the specification of the
    real one.  Node attribution is the real domain's; the clocks, the
    edge tables (tuple keys, ``(vc, lamport)`` values), their lookups
    and the joins are its own.  ``ticks``
    names the kinds that tick (``None``: every kind, as while the bus
    built every kind under a stamper; a passive event gets its node's
    clock one ahead, shared until the next tick), ``cap`` the edge
    tables' cap (``None``: unbounded).  Every stamp is kept by event
    identity, ``stamps[id(event)] = (node, lamport, vc)``, and a
    violation merges its evidence from these (reading ``vc`` only of
    evidence it never stamped).  Installed on a bus it stamps the
    events too; beside the real domain it only records."""

    def __init__(self, ticks=None, cap=None):
        super().__init__()
        self.ticks = ticks
        self._pm_edges = _Bounded(cap)
        self._call_edges = _Bounded(cap)
        self._return_edges = _Bounded(cap)
        self.stamps = {}
        self.vcs = {}                   # node -> its vector clock
        self.lamports = {}              # node -> its Lamport clock
        self.aheads = {}                # node -> its passive stamp

    def clock_of(self, node: str):
        return dict(self.vcs.get(node, {}))

    def stamp(self, event) -> None:
        kind = event.kind
        plan = self._plans.get(kind)
        if plan is None:
            plan = self._plans[kind] = (
                self._clock_plan(kind),
                self.ticks is None or kind in self.ticks,
                self._incoming.get(kind), self._outgoing.get(kind))
        clock_of, ticks, incoming, outgoing = plan
        node = clock_of(event).node
        vc = self.vcs.setdefault(node, {})
        lamport = self.lamports.get(node, 0)
        self.stamped += 1
        if ticks:
            edge = incoming(event) if incoming is not None else None
            if edge is not None:
                vc_merge(vc, edge[0])
                lamport = max(lamport, edge[1])
            vc[node] = vc.get(node, 0) + 1
            self.lamports[node] = lamport = lamport + 1
            self.aheads.pop(node, None)
            stamp = (node, lamport, vc.copy())
            if outgoing is not None:
                outgoing(event, stamp[2], lamport)
        else:
            if node not in self.aheads:
                self.aheads[node] = dict(vc)
                self.aheads[node][node] = vc.get(node, 0) + 1
            stamp = (node, lamport, self.aheads[node])
        self.stamps[id(event)] = stamp
        if self._bus is not None:
            event.node, event.lamport, event.vc = stamp

    def _in_violation(self, event):
        frontier = {}
        lamport = 0
        for cause in getattr(event, "evidence", ()):
            _node, cause_lamport, cause_vc = self.stamps.get(id(cause), (
                None, getattr(cause, "lamport", 0),
                getattr(cause, "vc", None)))
            vc_merge(frontier, cause_vc or {})
            lamport = max(lamport, cause_lamport)
        return (frontier, lamport) if frontier else None

    def _in_pm_deliver(self, event):
        return self._pm_edges.pop((event.peer, event.msg_type,
                                   event.call_number, event.endpoint), None)

    def _in_exec_start(self, event):
        return self._call_edges.get(
            (event.thread_id, event.call_number, event.troupe_id))

    def _in_result(self, event):
        return self._return_edges.get((event.thread_id, event.call_number))

    def _out_pm_send(self, event, snapshot, lamport: int) -> None:
        self._pm_edges.put(
            (event.endpoint, event.msg_type, event.call_number, event.peer),
            (snapshot, lamport))

    def _out_call_start(self, event, snapshot, lamport: int) -> None:
        # Many-to-many: every member records; the edge is their join.
        self._join(self._call_edges,
                   (event.thread_id, event.call_number, event.troupe_id),
                   snapshot, lamport)

    def _out_return(self, event, snapshot, lamport: int) -> None:
        self._join(self._return_edges, (event.thread_id, event.call_number),
                   snapshot, lamport)

    @staticmethod
    def _join(table, key, snapshot, lamport: int) -> None:
        prior = table.get(key)
        if prior is not None:
            snapshot = vc_merge(dict(prior[0]), snapshot)
            lamport = max(prior[1], lamport)
        table.put(key, (snapshot, lamport))


class _DifferentialDomain(ClockDomain):
    """The real domain, with both references stamping every event first
    (the real stamp is the one the event keeps), and the stream kept for
    the checks — made afterwards, not asserted in here: the bus contains
    a raising stamper, so an assert in ``stamp`` would pass silently.

    ``reference`` ticks on every kind with unbounded edges: the real
    stamps must keep its happens-before relation among causal events,
    every causal cut and a consistent linearization (:meth:`check`), not
    its values, which moved on purpose.  ``parent`` ticks on the causal
    kinds at the real domain's cap: its ``(node, lamport, vc)`` is every
    event's exactly (:meth:`check_stamps`).  Installed, the domain also
    holds a catch-all subscription, so the bus builds — and the stream
    covers — every kind, passive ones included."""

    instances = []
    fail_every = 0          # raise instead of stamping every Nth event
    cap = 8192              # the real domain's edge cap, and the parent's

    def __init__(self):
        super().__init__(self.cap)
        self.reference = _DictClockDomain()
        self.parent = _DictClockDomain(events.CAUSAL_KINDS, self.cap)
        self.stream = []        # every stamped event, in emission order
        self.seen = 0
        self._catch_all = None
        self.instances.append(self)

    def install(self, bus):
        self._catch_all = bus.subscribe(lambda event: None)
        return super().install(bus)

    def uninstall(self):
        if self._bus is not None:
            self._bus.unsubscribe(self._catch_all)
        super().uninstall()

    def stamp(self, event) -> None:
        self.seen += 1
        if self.fail_every and self.seen % self.fail_every == 0:
            raise RuntimeError("stamper gave up on event %d" % self.seen)
        self.reference.stamp(event)
        self.parent.stamp(event)
        super().stamp(event)
        self.stream.append(event)

    @property
    def kinds(self):
        return {e.kind for e in self.stream}

    # -- what must not have moved -----------------------------------------

    def check_stamps(self) -> int:
        """The parent's values everywhere: every event's stamp, every
        node's clock, every violation's cut.  Returns the number of
        violations whose cuts were compared."""
        parent = self.parent
        stream = self.stream
        assert self.stamped == parent.stamped == len(stream)
        for e in stream:
            assert (e.node, e.lamport, e.vc) == parent.stamps[id(e)], e
        assert self.nodes() == parent.nodes()
        for node in self.nodes():
            assert self.clock_of(node) == parent.clock_of(node), node
        violations = [i for i, e in enumerate(stream)
                      if e.kind == "mon.violation"]
        shadow = self._shadow(parent)
        for index in violations:
            assert _cut_indices(stream, index) == \
                _cut_indices(shadow, index)
        return len(violations)

    def check(self, sample: int = 60) -> int:
        """:meth:`check_stamps`, and the reference's relation, cuts and
        linearization."""
        violated = self.check_stamps()
        stream = self.stream
        ref = [self.reference.stamps[id(e)] for e in stream]
        vcs = [e.vc for e in stream]            # one read each
        causal = [i for i, e in enumerate(stream) if e.causal]
        assert causal and len(causal) < len(stream)
        for e, (node, _lamport, _vc) in zip(stream, ref):
            assert e.node == node               # same attribution
        rng = random.Random(len(stream))
        violations = [i for i, e in enumerate(stream)
                      if e.kind == "mon.violation"]
        # 1. Every event against every violation frontier — and against
        #    a sample of other causal stamps taken as frontiers: the same
        #    answer, passive events included.
        for f in violations + rng.sample(causal, min(sample, len(causal))):
            for i in range(len(stream)):
                assert vc_leq(vcs[i], vcs[f]) == \
                    vc_leq(ref[i][2], ref[f][2]), (stream[i], stream[f])
        # 2. Pairs: causal against causal is the same relation both ways;
        #    a pair involving a passive event may gain an ordering (it is
        #    <= its same-node neighbours up to the next tick) but never
        #    loses one.
        for _ in range(40 * sample):
            a, b = rng.randrange(len(stream)), rng.randrange(len(stream))
            was = vc_leq(ref[a][2], ref[b][2])
            now = vc_leq(vcs[a], vcs[b])
            if stream[a].causal and stream[b].causal:
                assert now == was, (stream[a], stream[b])
            else:
                assert now or not was, (stream[a], stream[b])
        # 3. The flight recorder's cut: the same ring indices.
        shadow = self._shadow(self.reference)
        for index in violations:
            assert _cut_indices(stream, index) == \
                _cut_indices(shadow, index), stream[index]
        # 4. causal_sort_key linearizes consistently with the reference
        #    happens-before relation and with each node's emission order.
        #    (The permutation may differ where events are concurrent:
        #    Lamport values count fewer events now.)  Happens-before is
        #    generated by same-node succession plus "b's clock names the
        #    j-th event of node m", so checking those two is checking all.
        position = {id(e): i for i, e in enumerate(
            sorted(stream, key=causal_sort_key))}
        latest = {}                     # node -> position of its last event
        by_count = {}                   # (node, reference count) -> event
        for e, (node, _lamport, ref_vc) in zip(stream, ref):
            assert latest.get(node, -1) < position[id(e)], e
            latest[node] = position[id(e)]
            by_count[node, ref_vc[node]] = e
            for other, count in ref_vc.items():
                if other != node:
                    assert position[id(by_count[other, count])] \
                        < position[id(e)], (by_count[other, count], e)
        return violated

    def _shadow(self, domain):
        """The stream with ``domain``'s stamps in place of the real ones."""
        shadow = []
        for e in self.stream:
            twin = copy.copy(e)
            twin.node, twin.lamport, twin.vc = domain.stamps[id(e)]
            shadow.append(twin)
        return shadow


def _cut_indices(ring, violation_index):
    """``FlightRecorder.causal_cut`` over ``ring``, as ring indices."""
    recorder = FlightRecorder(EventBus(), capacity=len(ring))
    recorder.ring.extend(ring)
    index_of = {id(e): i for i, e in enumerate(ring)}
    return {index_of[id(e)]
            for e in recorder.causal_cut(ring[violation_index])}


@pytest.fixture
def differential(monkeypatch):
    """Every MonitorSuite built inside the test installs the differential
    stamper; yields the list of domains created."""
    monkeypatch.setattr(_DifferentialDomain, "instances", [])
    monkeypatch.setattr("repro.obs.monitor.ClockDomain", _DifferentialDomain)
    return _DifferentialDomain.instances


def _run_watched(factory):
    """Run a ``(world, body)`` scenario under the full watch (the
    differential domain's own catch-all makes the bus build every kind,
    so the reference sees the stream it always saw)."""
    world, body = factory()
    with world.watch() as probe:
        world.run(body())
    return probe


def _bulk_lossy_world():
    """``(world, troupe, client)`` for 13-segment calls at 10 % loss and
    2 % duplication: wallbench's lossy-bulk shape."""
    from repro.core.runtime import RuntimeConfig
    from repro.net.network import NetworkConfig
    from repro.pairedmsg import PairedMessageConfig
    world = World(
        machines=4, seed=11,
        net_config=NetworkConfig(loss_probability=0.10,
                                 duplicate_probability=0.02),
        runtime_config=RuntimeConfig(paired=PairedMessageConfig(
            max_segment_data=512, retransmit_interval=30.0,
            max_retries=64)))
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    return world, troupe, world.make_client()


def _bulk_lossy():
    world, troupe, client = _bulk_lossy_world()

    def body():
        for i in range(6):
            yield from client.call_troupe(troupe, 0, 0,
                                          bytes([i + 1]) * 6144)
    return world, body


def test_new_stamps_match_the_reference_on_circus_and_lossy(differential):
    from repro.bench import scenarios
    for factory in (lambda: scenarios.circus(40), scenarios.lossy,
                    _bulk_lossy):
        probe = _run_watched(factory)
        assert probe.violations == []
    circus, lossy, bulk = differential
    for domain in (circus, lossy, bulk):
        assert domain.seen > 500
        domain.check()
    assert circus.seen > 1000 and bulk.seen > 1000
    assert {"pm.retransmit", "pm.dup", "pm.crash", "net.drop",
            "net.dup"} <= lossy.kinds
    assert {"pm.retransmit", "pm.ack_explicit", "pm.dup", "net.drop",
            "net.dup"} <= bulk.kinds


def _explained(scenario, seed):
    """One explorer seed under the full watch (the explaining attempt,
    run directly: a passing seed never gets one from ``explore.run``)."""
    from repro import explore
    return explore._attempt(explore.get_scenario(scenario), seed, None,
                            monitors=None, budget=None, capacity=1 << 16,
                            explain=True)


def _the_parent_alone_agrees(monkeypatch, result, scenario, seed):
    """Run the seed again with the parent domain alone in the real one's
    place: the explorer's digests, history and post-mortem are the
    real run's."""
    created = []

    def parent_domain():
        created.append(_DictClockDomain(events.CAUSAL_KINDS,
                                        _DifferentialDomain.cap))
        return created[-1]
    monkeypatch.setattr("repro.obs.monitor.ClockDomain", parent_domain)
    parent = _explained(scenario, seed)
    assert len(created) == 1
    assert result.digest() == parent.digest()
    assert result.stats.get("history_digest") == \
        parent.stats.get("history_digest")
    assert result.history == parent.history
    assert result.postmortem == parent.postmortem


@pytest.mark.parametrize("scenario,seed", [
    ("bank-transfer", 1),           # transactions: txn.* incl. lock events
    ("bank-transfer", 396),         # ... and a HistoryOracle violation
    ("pairs", 2),                   # many-to-many: merged call edges
    ("elastic", 3),                 # join/leave + a monitor violation
    ("elastic-adversarial", 3),     # crash mid state transfer
])
def test_new_stamps_match_the_reference_under_faults(differential,
                                                     monkeypatch,
                                                     scenario, seed):
    result = _explained(scenario, seed)
    assert result.crash is None
    (domain,) = differential
    assert domain.seen > 200
    assert domain.check() == len(result.violations)
    if scenario == "bank-transfer":
        assert any(k.startswith("txn.lock_") for k in domain.kinds)
        assert len(result.violations) == (seed == 396)
        assert result.stats["history_digest"]
        _the_parent_alone_agrees(monkeypatch, result, scenario, seed)
    if scenario.startswith("elastic"):
        assert {"bind.member", "bind.get_state"} <= domain.kinds
    if result.violations:
        assert "mon.violation" in domain.kinds


def test_elastic_adversarial_302_cuts_are_the_ones_every_tick_selected(
        differential, monkeypatch):
    """The post-mortem an investigator reads: both collation violations
    of this seed cut the stream exactly where the tick-everything clocks
    cut it (985 and 1,461 events at the commit before the vocabulary),
    and the recorder's ring holds every event of those cuts it rings.
    Every stamp is the parent's, and so is the post-mortem with the
    parent alone."""
    from repro.obs.recorder import RINGED_KINDS
    result = _explained("elastic-adversarial", 302)
    assert result.invariants() == ["collation-completeness"]
    (domain,) = differential
    assert domain.check_stamps() == 2
    stream = domain.stream
    shadow = domain._shadow(domain.reference)
    sizes = []
    ringed = []
    for violation in result.violations:
        index = stream.index(violation)
        cut = _cut_indices(stream, index)
        assert cut == _cut_indices(shadow, index)
        sizes.append(len(cut))
        ringed.append(sum(stream[i].kind in RINGED_KINDS for i in cut))
    assert sizes == [985, 1461]
    assert [len(v["causal_cut"]) for v in result.postmortem["violations"]] \
        == ringed
    _the_parent_alone_agrees(monkeypatch, result, "elastic-adversarial", 302)


def test_a_raising_stamper_is_contained_and_both_stampers_still_agree(
        differential, monkeypatch):
    """Every 97th event the stamper raises before touching either clock:
    the bus turns each failure into a mon.error, the event goes
    unstamped, the run completes, and reference and vocabulary clocks
    still agree on every event that was stamped."""
    from repro.bench import scenarios
    monkeypatch.setattr(_DifferentialDomain, "fail_every", 97)
    probe = _run_watched(lambda: scenarios.circus(30))
    (domain,) = differential
    errors = probe.recorder.monitor_errors
    # mon.error events are themselves stamped (and counted), so the
    # failures are the multiples of 97 among everything seen.
    assert len(errors) == domain.seen // 97 > 10
    assert all("stamper gave up" in e.error for e in errors)
    assert all("_DifferentialDomain" in e.handler for e in errors)
    unstamped = [e for e in probe.recorder.ring
                 if getattr(e, "vc", None) is None]
    assert unstamped and len(unstamped) <= len(errors)
    assert probe.violations == []
    assert len(domain.stream) == domain.seen - len(errors)
    domain.check()


# ---------------------------------------------------------------------------
# A causal stamp does not depend on the audience
# ---------------------------------------------------------------------------

def _causal_stamps(factory, catch_all):
    world, body = factory()
    suite = MonitorSuite(world.sim)
    seen = []
    world.sim.bus.subscribe(seen.append, tuple(events.CAUSAL_KINDS))
    everything = []
    if catch_all:
        world.sim.bus.subscribe(everything.append)
    else:
        assert world.sim.bus.wanted == events.CAUSAL_KINDS
    world.run(body())
    suite.detach()
    assert len(everything) > len(seen) if catch_all else not everything
    return [(e.kind, e.t, e.node, e.lamport, e.vc) for e in seen]


@pytest.mark.parametrize("name", ["circus", "lossy", "bulk-lossy"])
def test_causal_stamps_are_identical_with_and_without_a_catch_all(name):
    from repro.bench import scenarios
    factory = {"circus": lambda: scenarios.circus(10),
               "lossy": scenarios.lossy, "bulk-lossy": _bulk_lossy}[name]
    lean = _causal_stamps(factory, catch_all=False)
    full = _causal_stamps(factory, catch_all=True)
    assert len(lean) > 100
    assert lean == full
