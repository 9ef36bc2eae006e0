"""A stamp is a shared tuple now; its value is the dict it used to be.

``ClockDomain`` keeps a dense vector per node and gives every event the
one tuple its tick produced, building ``event.vc`` only when it is read.
:class:`_ParentClockDomain` below is the domain as it was while every
causal event got a dict of its own (``stamp``, the ``_Bounded`` edge
tables and ``_join_edge``, kept verbatim): run beside the real domain on
every event of a run, the two must agree on each event's ``(node,
lamport, vc)``, on every node's clock at the end, on every causal cut,
and — run alone in its place — on the explorer's history digest and
post-mortem.
"""

import collections
import copy
import random

import pytest

from repro.core import ExportedModule
from repro.harness import World
from repro.obs import EventBus, clocks, events
from repro.obs.clocks import ClockDomain, vc_merge, vt_join
from tests.obs.test_clocks import _bulk_lossy, _cut_indices, _explained


class _Bounded(collections.OrderedDict):
    """An insertion-ordered dict that evicts its oldest entry past a cap
    (in-flight edge tables must not grow with run length)."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def put(self, key, value) -> None:
        if key in self:
            del self[key]
        self[key] = value
        while len(self) > self.cap:
            self.popitem(last=False)


def _join_edge(table: _Bounded, key, snapshot, lamport: int) -> None:
    """Record ``snapshot`` under ``key``, merged with what is already
    there (into a fresh dict: recorded snapshots are shared with the
    events they were taken for)."""
    prior = table.get(key)
    if prior is not None:
        snapshot = vc_merge(dict(prior[0]), snapshot)
        lamport = max(prior[1], lamport)
    table.put(key, (snapshot, lamport))


class _ParentClock:
    __slots__ = ("node", "vc", "lamport", "ahead")

    def __init__(self, node: str):
        self.node = node
        self.vc = {}
        self.lamport = 0
        self.ahead = None


class _ParentClockDomain(ClockDomain):
    """The dict-per-stamp domain.  Node attribution and the edge lookups
    are the real domain's (they did not change).  Every stamp is also
    kept by event identity: a violation merges its evidence from these
    (and reads ``vc`` only of evidence it never stamped), so the
    parent's frontier never reads a stamp the real domain wrote over its
    own."""

    def __init__(self, inflight_cap: int = 8192):
        super().__init__(inflight_cap)
        self._pm_edges = _Bounded(inflight_cap)
        self._call_edges = _Bounded(inflight_cap)
        self._return_edges = _Bounded(inflight_cap)
        self.stamps = {}                # id(event) -> (node, lamport, vc)

    def clock_of(self, node: str):
        clock = self._clocks.get(node)
        return dict(clock.vc) if clock is not None else {}

    def _clock(self, node: str) -> _ParentClock:
        clock = self._clocks.get(node)
        if clock is None:
            clock = self._clocks[node] = _ParentClock(node)
        return clock

    def stamp(self, event) -> None:
        kind = event.kind
        plan = self._plans.get(kind)
        if plan is None:
            plan = self._plans[kind] = (
                self._clock_plan(kind), getattr(event, "causal", False),
                self._incoming.get(kind), self._outgoing.get(kind))
        clock_of, causal, incoming, outgoing = plan
        clock = clock_of(event)
        event.node = node = clock.node
        self.stamped += 1
        if not causal:
            ahead = clock.ahead
            if ahead is None:
                ahead = clock.ahead = clock.vc.copy()
                ahead[node] = ahead.get(node, 0) + 1
            event.lamport = clock.lamport
            event.vc = ahead
            self.stamps[id(event)] = (node, clock.lamport, ahead)
            return
        vc = clock.vc
        lamport = clock.lamport
        if incoming is not None:
            edge = incoming(event)
            if edge is not None:
                src_vc, src_lamport = edge
                vc_merge(vc, src_vc)
                if src_lamport > lamport:
                    lamport = src_lamport
        vc[node] = vc.get(node, 0) + 1
        clock.lamport = lamport = lamport + 1
        clock.ahead = None
        event.lamport = lamport
        event.vc = snapshot = vc.copy()
        self.stamps[id(event)] = (node, lamport, snapshot)
        if outgoing is not None:
            outgoing(event, snapshot, lamport)

    def _in_violation(self, event):
        frontier = {}
        lamport = 0
        for cause in getattr(event, "evidence", ()):
            _node, cause_lamport, cause_vc = self.stamps.get(id(cause), (
                None, getattr(cause, "lamport", 0),
                getattr(cause, "vc", None)))
            if cause_vc:
                vc_merge(frontier, cause_vc)
            lamport = max(lamport, cause_lamport)
        return (frontier, lamport) if frontier else None

    def _out_pm_send(self, event, snapshot, lamport: int) -> None:
        self._pm_edges.put(
            (event.endpoint, event.msg_type, event.call_number, event.peer),
            (snapshot, lamport))

    def _out_call_start(self, event, snapshot, lamport: int) -> None:
        _join_edge(self._call_edges,
                   (event.thread_id, event.call_number, event.troupe_id),
                   snapshot, lamport)

    def _out_return(self, event, snapshot, lamport: int) -> None:
        _join_edge(self._return_edges,
                   (event.thread_id, event.call_number), snapshot, lamport)


class _LockstepDomain(ClockDomain):
    """The real domain, with the parent stamping every event first (the
    real stamp is the one the event keeps).  Installed, it also holds a
    catch-all, so the passive kinds are built and compared too."""

    cap = 8192                          # both domains' in-flight cap

    def __init__(self):
        super().__init__(self.cap)
        self.parent = _ParentClockDomain(self.cap)
        self.stream = []
        self._catch_all = None

    def install(self, bus):
        self._catch_all = bus.subscribe(lambda event: None)
        return super().install(bus)

    def uninstall(self):
        if self._bus is not None:
            self._bus.unsubscribe(self._catch_all)
        super().uninstall()

    def stamp(self, event) -> None:
        self.parent.stamp(event)
        super().stamp(event)
        self.stream.append(event)

    def check(self) -> int:
        """Assert the parent's values everywhere; returns the number of
        violations whose cuts were compared."""
        parent = self.parent
        stream = self.stream
        assert self.stamped == parent.stamped == len(stream)
        for e in stream:
            assert (e.node, e.lamport, e.vc) == parent.stamps[id(e)], e
        assert self.nodes() == parent.nodes()
        for node in self.nodes():
            assert self.clock_of(node) == parent.clock_of(node), node
        shadow = []
        for e in stream:
            twin = copy.copy(e)
            twin.node, twin.lamport, twin.vc = parent.stamps[id(e)]
            shadow.append(twin)
        violations = [i for i, e in enumerate(stream)
                      if e.kind == "mon.violation"]
        for index in violations:
            assert _cut_indices(stream, index) == \
                _cut_indices(shadow, index)
        return len(violations)


@pytest.fixture
def stamper(monkeypatch):
    """``stamper(cls)``: every MonitorSuite built afterwards installs a
    ``cls`` domain; returns the list of domains created."""
    def install(cls):
        created = []
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            created.append(self)
        monkeypatch.setattr(
            "repro.obs.monitor.ClockDomain",
            type(cls.__name__, (cls,), {"__init__": init}))
        return created
    return install


@pytest.mark.parametrize("name,cap", [
    ("circus-40", 8192),
    ("bulk-lossy", 8192),
    ("bulk-lossy", 2),                  # edges evicted all the time
])
def test_every_stamp_is_the_parents_on_the_echo_shapes(stamper, name, cap):
    from repro.bench import scenarios
    factory = {"circus-40": lambda: scenarios.circus(40),
               "bulk-lossy": _bulk_lossy}[name]
    created = stamper(type("_Capped", (_LockstepDomain,), {"cap": cap}))
    world, body = factory()
    with world.watch() as probe:
        world.run(body())
    assert probe.violations == []
    (domain,) = created
    assert len(domain.stream) > 1000
    domain.check()
    if name == "bulk-lossy":
        assert {"pm.retransmit", "pm.dup", "net.drop", "net.dup"} \
            <= {e.kind for e in domain.stream}


@pytest.mark.parametrize("scenario,seed,violations", [
    ("bank-transfer", 1, 0),            # transactions and a history
    ("bank-transfer", 396, 1),          # ... and a HistoryOracle violation
    ("elastic-adversarial", 302, 2),    # crashes, restarts, two cuts
])
def test_every_stamp_is_the_parents_under_faults(stamper, scenario, seed,
                                                 violations):
    created = stamper(_LockstepDomain)
    result = _explained(scenario, seed)
    (domain,) = created
    assert domain.check() == violations
    created = stamper(_ParentClockDomain)
    parent = _explained(scenario, seed)
    assert len(created) == 1
    assert result.digest() == parent.digest()
    assert result.stats.get("history_digest") == \
        parent.stats.get("history_digest")
    assert result.history == parent.history
    assert result.postmortem == parent.postmortem
    if scenario == "bank-transfer":
        assert result.stats["history_digest"]


def test_a_many_to_many_call_joins_its_callers_edges(stamper):
    """Two client members call one server troupe: each member's
    execution merges the joined frontier of both callers."""
    from repro.bench.scenarios import echo_module
    created = stamper(_LockstepDomain)
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
    (domain,) = created
    execs = [e for e in domain.stream
             if e.kind == "rpc.exec_start" and "echo" in e.node]
    assert execs and all(len([n for n in e.vc if "relay" in n]) == 2
                         for e in execs)
    domain.check()


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


def test_a_violation_citing_a_foreign_stamp_merges_it_by_name():
    """Evidence stamped by hand (or by another domain) joins the
    frontier by node name; its nodes get an entry but no clock."""
    bus = EventBus()
    domain = _LockstepDomain().install(bus)
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
    assert domain.check() == 1
