"""Tests for the causal clocks (repro.obs.clocks)."""

import pytest

from repro.core import ExportedModule
from repro.harness import World
from repro.obs import EventBus, events
from repro.obs.clocks import (ClockDomain, _Bounded, causal_sort_key,
                              concurrent, happens_before, host_of, vc_leq,
                              vc_merge)


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


def test_kernel_events_tick_one_node():
    bus, domain = _stamped_bus()
    e1 = events.TimerFired(t=1.0, due=1)
    e2 = events.TimerFired(t=2.0, due=1)
    bus.emit(e1)
    bus.emit(e2)
    assert e1.node == e2.node == "kernel"
    assert (e1.lamport, e2.lamport) == (1, 2)
    assert e1.vc == {"kernel": 1}
    assert e2.vc == {"kernel": 2}
    assert happens_before(e1.vc, e2.vc)


def test_pm_send_deliver_edge_carries_causality():
    bus, domain = _stamped_bus()
    send = events.MessageSent(t=1.0, endpoint="a:1", peer="b:1",
                              msg_type=0, call_number=7, segments=1,
                              size=10, proc="alice")
    unrelated = events.MessageSent(t=1.0, endpoint="c:1", peer="b:1",
                                   msg_type=0, call_number=9, segments=1,
                                   size=10, proc="carol")
    deliver = events.MessageDelivered(t=2.0, endpoint="b:1", peer="a:1",
                                      msg_type=0, call_number=7, size=10,
                                      proc="bob")
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
    bus.emit(events.TimerFired(t=0.0, due=1))
    assert domain.nodes() == ("kernel",)
    bus.emit(events.MessageSent(t=1.0, endpoint="a:1", peer="b:1",
                                msg_type=0, call_number=1, segments=1,
                                size=4, proc="p"))
    assert domain.nodes() == ("a/p", "kernel")
    # The new node's clock has no kernel entry: no edge connects them.
    assert domain.clock_of("a/p") == {"a/p": 1}


def test_retransmission_refreshes_the_message_edge():
    bus, domain = _stamped_bus()
    send = events.MessageSent(t=1.0, endpoint="a:1", peer="b:1",
                              msg_type=0, call_number=1, segments=1,
                              size=4, proc="p")
    rexmit = events.SegmentRetransmitted(t=2.0, endpoint="a:1", peer="b:1",
                                         msg_type=0, call_number=1,
                                         segment=1, proc="p")
    deliver = events.MessageDelivered(t=3.0, endpoint="b:1", peer="a:1",
                                      msg_type=0, call_number=1, size=4,
                                      proc="q")
    bus.emit(send)
    bus.emit(rexmit)
    bus.emit(deliver)
    # The delivery saw the *latest* segment, so both sends precede it.
    assert happens_before(send.vc, deliver.vc)
    assert happens_before(rexmit.vc, deliver.vc)


def test_causal_sort_key_orders_by_lamport():
    bus, domain = _stamped_bus()
    first = events.TimerFired(t=5.0, due=1)
    second = events.TimerFired(t=1.0, due=1)   # later emission, earlier t
    bus.emit(first)
    bus.emit(second)
    ordered = sorted([second, first], key=causal_sort_key)
    assert ordered == [first, second]


def test_uninstall_restores_the_bus():
    bus, domain = _stamped_bus()
    assert bus.stamper is domain
    domain.uninstall()
    assert bus.stamper is None
    event = events.TimerFired(t=0.0, due=1)
    bus.emit(event)
    assert not hasattr(event, "vc")


# ---------------------------------------------------------------------------
# Full-stack causality
# ---------------------------------------------------------------------------

def _echo_module():
    def echo(ctx, args):
        yield from ctx.compute(1.0)
        return b"echo:" + args
    return ExportedModule("echo", {0: echo})


def test_full_stack_run_is_causally_consistent():
    world = World(machines=5, seed=3)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
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
        assert e.lamport >= 1
    for exec_event in execs:
        assert exec_event.lamport > calls[0].lamport


def test_clocks_grow_as_members_are_added():
    """Dynamic vector clocks: each simulated process contributes a clock
    entry only once it emits — later troupe members extend the vector
    without any re-dimensioning of existing clocks."""
    world = World(machines=6, seed=4)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=2)
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
    member_addr = runtime.export(_echo_module())
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
# Differential: the per-kind-plan stamper against the original
# ---------------------------------------------------------------------------

class _ReferenceClocks:
    """``ClockDomain.stamp`` as it was before stamping was made O(1) in the
    taxonomy: node attribution by ``startswith`` chains and string
    formatting, edges keyed by ``str(address)``, a fresh snapshot per
    edge.  Kept verbatim as the specification the fast path must match."""

    def __init__(self, inflight_cap: int = 8192):
        self._vc = {}
        self._lamport = {}
        self._addr_node = {}
        self._pm_edges = _Bounded(inflight_cap)
        self._call_edges = _Bounded(inflight_cap)
        self._return_edges = _Bounded(inflight_cap)

    def stamp(self, event) -> None:
        kind = event.kind
        node = self._node_of(event, kind)
        vc = self._vc.get(node)
        if vc is None:
            vc = self._vc[node] = {}
        lamport = self._lamport.get(node, 0)
        incoming = self._incoming(event, kind)
        if incoming is not None:
            src_vc, src_lamport = incoming
            vc_merge(vc, src_vc)
            if src_lamport > lamport:
                lamport = src_lamport
        vc[node] = vc.get(node, 0) + 1
        lamport += 1
        self._lamport[node] = lamport
        event.node = node
        event.lamport = lamport
        event.vc = dict(vc)
        self._outgoing(event, kind, vc, lamport)

    def _node_of(self, event, kind: str) -> str:
        if kind.startswith("pm."):
            endpoint = event.endpoint
            proc = getattr(event, "proc", "")
            if proc:
                node = "%s/%s" % (host_of(endpoint), proc)
            else:
                node = str(endpoint)
            self._addr_node[str(endpoint)] = node
            return node
        if kind.startswith(("rpc.", "txn.")):
            host = getattr(event, "host", "")
            if host:
                return "%s/%s" % (host, event.proc)
            return "world"
        if kind.startswith("bind."):
            host = getattr(event, "host", "")
            if host:
                return "%s/%s" % (host, event.proc)
            return "ringmaster"
        if kind.startswith("net."):
            if kind in ("net.deliver", "net.dup"):
                addr = event.dst
            else:
                addr = event.src
            mapped = self._addr_node.get(str(addr))
            if mapped is not None:
                return mapped
            return "wire:%s" % (host_of(addr) if addr is not None else "?")
        if kind.startswith("sim."):
            return "kernel"
        if kind == "mon.violation":
            return "monitor:%s" % event.monitor
        if kind.startswith("mon."):
            return "monitor"
        return "world"

    def _incoming(self, event, kind: str):
        if kind == "pm.deliver":
            return self._pm_edges.pop(
                (str(event.peer), event.msg_type, event.call_number,
                 str(event.endpoint)), None)
        if kind == "rpc.exec_start":
            return self._call_edges.get(
                (event.thread_id, event.call_number, event.troupe_id))
        if kind == "rpc.result":
            return self._return_edges.get(
                (event.thread_id, event.call_number))
        if kind == "mon.violation":
            frontier = {}
            lamport = 0
            for cause in getattr(event, "evidence", ()):
                cause_vc = getattr(cause, "vc", None)
                if cause_vc:
                    vc_merge(frontier, cause_vc)
                lamport = max(lamport, getattr(cause, "lamport", 0))
            if frontier:
                return frontier, lamport
        return None

    def _outgoing(self, event, kind: str, vc, lamport: int) -> None:
        if kind in ("pm.send", "pm.retransmit"):
            self._pm_edges.put(
                (str(event.endpoint), event.msg_type, event.call_number,
                 str(event.peer)),
                (dict(vc), lamport))
        elif kind == "rpc.call_start":
            key = (event.thread_id, event.call_number, event.troupe_id)
            prior = self._call_edges.get(key)
            stamp = (dict(vc), lamport)
            if prior is not None:
                stamp = (vc_merge(prior[0], stamp[0]),
                         max(prior[1], lamport))
            self._call_edges.put(key, stamp)
        elif kind == "rpc.return":
            key = (event.thread_id, event.call_number)
            prior = self._return_edges.get(key)
            stamp = (dict(vc), lamport)
            if prior is not None:
                stamp = (vc_merge(prior[0], stamp[0]),
                         max(prior[1], lamport))
            self._return_edges.put(key, stamp)


class _DifferentialDomain(ClockDomain):
    """Stamps every event twice — reference first, then the real thing —
    and notes any difference.  (Notes, not asserts: the bus contains a
    raising stamper, so an assert in here would pass silently.)"""

    instances = []
    fail_every = 0          # raise instead of stamping every Nth event

    def __init__(self):
        super().__init__()
        self.reference = _ReferenceClocks()
        self.mismatches = []
        self.stamps = []        # (event, private copy of its expected vc)
        self.seen = 0
        self.kinds = set()
        self.instances.append(self)

    def stamp(self, event) -> None:
        self.seen += 1
        if self.fail_every and self.seen % self.fail_every == 0:
            raise RuntimeError("stamper gave up on event %d" % self.seen)
        self.reference.stamp(event)
        expected = (event.node, event.lamport, event.vc)
        self.stamps.append((event, dict(event.vc)))
        super().stamp(event)
        got = (event.node, event.lamport, event.vc)
        self.kinds.add(event.kind)
        if got != expected:
            self.mismatches.append((event, expected, got))

    def check(self) -> None:
        assert self.mismatches == []
        # The fast path shares one snapshot between an event and the edge
        # recorded from it: nothing may have written to it since.
        assert all(event.vc == vc for event, vc in self.stamps)
        assert self.stamped == self.seen - (
            self.seen // self.fail_every if self.fail_every else 0)

        def normalized(table):
            # Same entries in the same (eviction) order; the reference
            # keys addresses by their string form.
            return [(tuple(str(part) if isinstance(part, tuple) else part
                           for part in key), stamp)
                    for key, stamp in table.items()]
        for name in ("_pm_edges", "_call_edges", "_return_edges"):
            assert normalized(getattr(self, name)) == \
                normalized(getattr(self.reference, name)), name
        assert {n: self.clock_of(n) for n in self.nodes()} == \
            self.reference._vc


@pytest.fixture
def differential(monkeypatch):
    """Every MonitorSuite built inside the test installs the differential
    stamper; yields the list of domains created."""
    monkeypatch.setattr(_DifferentialDomain, "instances", [])
    monkeypatch.setattr("repro.obs.monitor.ClockDomain", _DifferentialDomain)
    return _DifferentialDomain.instances


def _run_cli_scenario(factory):
    world, body = factory()
    with world.watch() as probe:
        world.run(body())
    return probe


def test_new_stamps_match_the_reference_on_circus_and_lossy(differential):
    from repro import cli
    for factory in (lambda: cli._scenario_circus(30), cli._scenario_lossy):
        probe = _run_cli_scenario(factory)
        assert probe.violations == []
    circus, lossy = differential
    for domain in (circus, lossy):
        assert domain.seen > 500
        domain.check()
    assert {"pm.retransmit", "pm.dup", "pm.crash", "net.drop",
            "net.dup"} <= lossy.kinds


@pytest.mark.parametrize("scenario,seed", [
    ("bank-transfer", 1),           # transactions: txn.* incl. lock events
    ("bank-transfer", 396),         # ... and a HistoryOracle violation
    ("pairs", 2),                   # many-to-many: merged call edges
    ("elastic", 3),                 # join/leave + a monitor violation
    ("elastic-adversarial", 3),     # crash mid state transfer
])
def test_new_stamps_match_the_reference_under_faults(differential,
                                                     scenario, seed):
    from repro import explore
    result = explore.run(scenario, seed)
    assert result.crash is None
    (domain,) = differential
    assert domain.seen > 200
    domain.check()
    if scenario == "bank-transfer":
        assert any(k.startswith("txn.") for k in domain.kinds)
    if scenario.startswith("elastic"):
        assert {"bind.member", "bind.get_state"} <= domain.kinds
    if result.violations:
        assert "mon.violation" in domain.kinds


def test_a_raising_stamper_is_contained_and_both_stampers_still_agree(
        differential, monkeypatch):
    """Every 97th event the stamper raises before touching either clock:
    the bus turns each failure into a mon.error, the event goes
    unstamped, the run completes, and old and new still agree on every
    event that was stamped."""
    from repro import cli
    monkeypatch.setattr(_DifferentialDomain, "fail_every", 97)
    probe = _run_cli_scenario(lambda: cli._scenario_circus(30))
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
    domain.check()
