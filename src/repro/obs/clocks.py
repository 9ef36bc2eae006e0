"""Causal clocks: Lamport and dynamic vector stamps on every bus event.

Every event emitted while a :class:`ClockDomain` is installed on the bus
is stamped, *at emission time*, with three extra attributes:

``event.node``
    the logical node the event occurred on — ``"host/proc"`` for
    protocol events, ``"kernel"`` for simulator events, ``"wire:host"``
    for packets whose owning process is not yet known;
``event.lamport``
    the node's Lamport clock at the event;
``event.vc``
    the node's vector clock at the event, a ``{node: count}`` dict built
    *on read*: a fresh dict per read, so read it once.

Both are read from one stamp tuple, ``event._vt``, that every holder of
the stamp shares: entry 0 is the Lamport clock and entry ``i + 1``
counts the domain's node ``i``.  A node's clock is that tuple's list
form, so one pointwise max with an incoming edge merges the Lamport
clock and the vector alike.  An edge table holds numbers: the sender's
stamp packed into one ``bytes`` (``array('q')`` form) under one int, the
call number over the domain's number for the rest of the edge's identity.

The vector clocks are *dynamic*: there is no fixed process count, and a
node's entry appears in other clocks only once it has emitted an event
that causally reaches them — so the clocks grow as troupe members are
added via ``add_troupe_member``, exactly the situation a static
N-process vector cannot handle (the dynamic vector-clock scheme).

What ticks
----------

Only the *causal* kinds (:data:`repro.obs.events.CAUSAL_KINDS`, declared
class by class in :mod:`repro.obs.events`) tick their node's clocks:
the ends of a happens-before edge, the evidence a built-in monitor
cites, and ``rpc.call_end``.  The bus builds those kinds under a stamper
whoever is subscribed, so a causal event's stamp is a function of the
causal events before it and of nothing else — not of whether a flight
recorder, a tracer or a catch-all counter is attached.  Two runs of one
seed under different audiences therefore stamp every causal event alike.

Happens-before edges are threaded through the protocol layers' existing
emission sites:

- same node: every causal event ticks its node's clocks, so the causal
  events of one simulated process are totally ordered;
- paired messages: ``pm.send`` (and each ``pm.retransmit``) records the
  sender's stamp under the message identity ``(sender, msg_type,
  call_number, receiver)``; the matching ``pm.deliver`` merges it — the
  exact §4.2 message edge;
- replicated calls: ``rpc.call_start`` records under the propagated
  trace context ``(thread_id, call_number, troupe_id)`` and every
  member's ``rpc.exec_start`` merges it; ``rpc.return`` records under
  ``(thread_id, call_number)`` and the client's ``rpc.result`` merges
  the members' return frontier;
- violations: a ``mon.violation`` event merges the stamps of its
  evidence events, so its vector clock *is* the causal frontier of the
  violation — the flight recorder cuts the ring buffer with it.

Control traffic (explicit acks, probe replies) carries no recorded
edge: it only confirms reception of data segments whose edge already
exists.  Wire-level events create no edge of their own — the first layer
with a reliable message identity is the paired message protocol.

What is stamped passively
-------------------------

Every other event (``net.*``, ``sim.*``, ``pm.ack_*``, ``pm.dup``,
``rpc.gather``, ``rpc.exec_end``, ``txn.lock_*``, …) exists only because
somebody subscribed to its kind, and moves no clock.  Its stamp is its
node, the node's *current* Lamport value, and a snapshot of the node's
vector clock with the node's own entry one ahead — "just before this
node's next causal event".  The snapshot is built at most once between
two ticks and shared by every passive event in between.

Causal cuts are unchanged by this.  A frontier is a merge of causal
stamps, and other nodes learn a node's count only through edges, which
leave at causal events; so ``frontier[n]`` is always the count of some
causal event ``c`` on ``n``.  A passive event on ``n`` lies between two
consecutive causal events ``c_k`` and ``c_k+1`` and carries ``c_k``'s
clock with ``n: k + 1``: ``vc_leq(e.vc, frontier)`` holds exactly when
the frontier has reached ``c_k+1`` — which is when a clock that ticked on
every event would have selected ``e`` too, because that clock also hands
``n``'s count to other nodes only at causal events.  Comparing a passive
event with its same-node neighbours may report an order a
tick-everything clock would not (it is ``<=`` everything up to and
including ``c_k+1``); it never loses one.  :func:`causal_sort_key` still
linearizes consistently with happens-before and with each node's
emission order (ties — passive events between the same two ticks — keep
the order they are given in, which for the recorder's ring is emission
order).

A monitor that cites a *passive* event as evidence gets a frontier that
names a causal event which has not happened yet; cite causal kinds.

Zero overhead when unobserved: the stamper runs inside
:meth:`EventBus.emit`, *after* the no-subscriber fast path, so with
monitors detached no clock is ever touched.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A vector clock as readers see it: node name -> event count.  Use the
#: module helpers to compare.
VC = Dict[str, int]

#: A stamp as a domain stores it: entry 0 is the Lamport clock, entry
#: ``i + 1`` counts node ``ClockDomain._names[i]`` (none past its end);
#: every holder shares it.
VT = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Vector clock algebra
# ---------------------------------------------------------------------------

def vc_leq(a: VC, b: VC) -> bool:
    """True iff ``a`` <= ``b`` pointwise (``a`` is in ``b``'s causal past
    or equal to it); absent entries count as zero."""
    for node, count in a.items():
        if count > b.get(node, 0):
            return False
    return True


def vc_merge(into: VC, other: VC) -> VC:
    """Pointwise max, in place; returns ``into``."""
    for node, count in other.items():
        if into.get(node, 0) < count:
            into[node] = count
    return into


def happens_before(a: VC, b: VC) -> bool:
    """Strict happens-before: ``a`` <= ``b`` and ``a`` != ``b``."""
    return vc_leq(a, b) and a != b


def concurrent(a: VC, b: VC) -> bool:
    """Neither happens before the other."""
    return not vc_leq(a, b) and not vc_leq(b, a)


def vt_join(a: VT, b: VT) -> VT:
    """Pointwise max of two stamps of one domain (Lamport clocks
    included)."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(max, a, b)) + a[len(b):]


class _Bounded(dict):
    """An insertion-ordered dict that evicts its oldest entry past a cap
    (in-flight edge tables must not grow with run length).  A walk from
    the dict's head passes every deleted slot, so one walk lists the
    oldest pairs in ``head``; a pair is still the oldest while the table
    holds that very value (:meth:`put` is always given a new one)."""

    __slots__ = ("cap", "head")

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.head = iter(())

    def put(self, key, value) -> None:
        self.pop(key, None)
        self[key] = value
        if len(self) > self.cap:
            for old, held in self.head:
                if self.get(old) is held:
                    break
            else:
                self.head = iter(list(itertools.islice(self.items(), 128)))
                old = next(self.head)[0]
            del self[old]


def host_of(addr) -> str:
    """The host part of a ProcessAddress (or an ``"host:port"`` string —
    synthetic events in tests carry plain strings)."""
    host = getattr(addr, "host", None)
    if host is not None:
        return host
    return str(addr).split(":", 1)[0]


_host_of = host_of


class _Clock:
    """One node's clocks, as a stamp's list form: ``v[0]`` is its Lamport
    clock and ``v[i]`` its own count, both ticked in place; ``ahead`` is
    ``tuple(v)`` with the own count one ahead, shared by the passive
    events before the next tick."""

    __slots__ = ("node", "i", "v", "ahead")

    def __init__(self, node: str, i: int):
        self.node = node
        self.i = i
        self.v: List[int] = [0] * (i + 1)
        self.ahead: Optional[VT] = None


class ClockDomain:
    """Per-simulation clock state; install on a bus with :meth:`install`.

    One domain serves one simulation world.  Nodes (and their vector
    clock entries) are created lazily the first time they emit, and
    numbered in that order: a stamp is a tuple indexed by that number.

    Stamping is O(1) in the size of the taxonomy: the first event of a
    kind resolves a *plan* — how to find its node's clocks, whether the
    kind is causal, which incoming happens-before edge it merges (if
    any) and which outgoing edge it records (if any) — and every later
    event of that kind just runs it.  Nodes are memoised per ``(address,
    proc)`` / ``(host, proc)``, so naming one is a dict hit, not string
    formatting.
    """

    def __init__(self, inflight_cap: int = 8192):
        self._clocks: Dict[str, _Clock] = {}
        #: node names in creation order, and each one's entry in a stamp.
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        #: endpoint address -> node, learned from pm.* events so wire
        #: events can be attributed to the owning process.
        self._addr_clock: Dict[Any, _Clock] = {}
        self._pm_clocks: Dict[Tuple[Any, str], _Clock] = {}
        self._proc_clocks: Dict[Tuple[str, str], _Clock] = {}
        #: edge key -> the sender's stamp, packed; a key is
        #: ``call_number << 32 | number``, ``number`` naming the channel
        #: (``_channels``) or the thread (``_callers`` / ``_returners``).
        self._pm_edges = _Bounded(inflight_cap)
        self._call_edges = _Bounded(inflight_cap)
        self._return_edges = _Bounded(inflight_cap)
        #: (sender, msg_type, receiver) -> its number; one per channel.
        self._channels: Dict[Tuple[Any, int, Any], int] = {}
        #: thread -> (its number,), put with every put to the edge table
        #: beside it and at its cap: a thread is dropped only after its
        #: last edge, and with it when each call has a thread of its own.
        self._callers = _Bounded(inflight_cap)
        self._returners = _Bounded(inflight_cap)
        self._numbers = itertools.count()
        #: kind -> (clock_of, causal, incoming or None, outgoing or None)
        self._plans: Dict[str, Tuple[Callable, bool, Optional[Callable],
                                     Optional[Callable]]] = {}
        self._incoming = {
            "pm.deliver": self._in_pm_deliver,
            "rpc.exec_start": self._in_exec_start,
            "rpc.result": self._in_result,
            "mon.violation": self._in_violation,
        }
        self._outgoing = {
            "pm.send": self._out_pm_send,
            "pm.retransmit": self._out_pm_send,
            "rpc.call_start": self._out_call_start,
            "rpc.return": self._out_return,
        }
        self.stamped = 0
        self._bus = None

    # -- lifecycle ---------------------------------------------------------

    def install(self, bus) -> "ClockDomain":
        """Become the bus's stamper (one stamper per bus)."""
        bus.stamper = self
        self._bus = bus
        return self

    def uninstall(self) -> None:
        if self._bus is not None and self._bus.stamper is self:
            self._bus.stamper = None
        self._bus = None

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._clocks))

    def clock_of(self, node: str) -> VC:
        clock = self._clocks.get(node)
        if clock is None:
            return {}
        return {name: count for name, count in zip(self._names, clock.v[1:])
                if count}

    # -- stamping ----------------------------------------------------------

    def stamp(self, event) -> None:
        """Attach ``node`` / ``lamport`` / the stamp tuple to ``event``.
        A causal event ticks its node's clocks, merging any incoming
        happens-before edge and recording outgoing ones; any other event
        is stamped passively, from the node's clocks as they stand."""
        kind = event.kind
        plan = self._plans.get(kind)
        if plan is None:
            plan = self._plans[kind] = (
                self._clock_plan(kind), getattr(event, "causal", False),
                self._incoming.get(kind), self._outgoing.get(kind))
        clock_of, causal, incoming, outgoing = plan
        clock = clock_of(event)
        event.node = clock.node
        event._names = self._names
        self.stamped += 1
        if not causal:
            ahead = clock.ahead
            if ahead is None:
                v = clock.v.copy()
                v[clock.i] += 1
                ahead = clock.ahead = tuple(v)
            event._vt = ahead
            return
        v = clock.v
        if incoming is not None:
            edge = incoming(event)
            if edge is not None:
                n = len(edge)
                if len(v) < n:
                    v.extend([0] * (n - len(v)))
                v[:n] = map(max, v, edge)
        v[0] += 1
        v[clock.i] += 1
        clock.ahead = None
        # One tuple serves the event; an edge recorded from it packs it.
        event._vt = vt = tuple(v)
        if outgoing is not None:
            outgoing(event, vt)

    # -- node attribution --------------------------------------------------

    def _clock(self, node: str) -> _Clock:
        clock = self._clocks.get(node)
        if clock is None:
            clock = self._clocks[node] = _Clock(node, self._index_of(node))
        return clock

    def _index_of(self, node: str) -> int:
        """``node``'s entry in a stamp (past the Lamport clock's)."""
        i = self._index.get(node)
        if i is None:
            self._names.append(node)
            i = self._index[node] = len(self._names)
        return i

    def _clock_plan(self, kind: str) -> Callable[[Any], _Clock]:
        if kind.startswith("pm."):
            return self._pm_clock
        if kind.startswith(("rpc.", "txn.")):
            # lock-table events (txn.lock_wait/_grant, txn.deadlock)
            # carry no process identity; attribute them to the world
            # rather than refuse to stamp.
            return self._process_clock("world")
        if kind.startswith("bind."):
            return self._process_clock("ringmaster")
        if kind.startswith("net."):
            return self._wire_clock(
                "dst" if kind in ("net.deliver", "net.dup") else "src")
        if kind == "mon.violation":
            return lambda event: self._clock("monitor:%s" % event.monitor)
        fixed = self._clock("kernel" if kind.startswith("sim.") else
                            "monitor" if kind.startswith("mon.") else "world")
        return lambda event: fixed

    def _pm_clock(self, event) -> _Clock:
        endpoint = event.endpoint
        proc = getattr(event, "proc", "")
        clock = self._pm_clocks.get((endpoint, proc))
        if clock is None:
            clock = self._pm_clocks[(endpoint, proc)] = self._clock(
                "%s/%s" % (_host_of(endpoint), proc) if proc
                else str(endpoint))
        self._addr_clock[endpoint] = clock
        return clock

    def _process_clock(self, anonymous: str) -> Callable[[Any], _Clock]:
        clocks = self._proc_clocks

        def clock_of(event) -> _Clock:
            host = getattr(event, "host", "")
            if not host:
                return self._clock(anonymous)
            key = (host, event.proc)
            clock = clocks.get(key)
            if clock is None:
                clock = clocks[key] = self._clock("%s/%s" % key)
            return clock
        return clock_of

    def _wire_clock(self, end: str) -> Callable[[Any], _Clock]:
        addr_clock = self._addr_clock
        addr_of = operator.attrgetter(end)

        def clock_of(event) -> _Clock:
            addr = addr_of(event)
            clock = addr_clock.get(addr)
            if clock is None:
                clock = self._clock(
                    "wire:%s" % (_host_of(addr) if addr is not None else "?"))
            return clock
        return clock_of

    # -- happens-before edges ---------------------------------------------

    def _in_pm_deliver(self, event) -> Optional[array]:
        # The sender recorded under its own (endpoint, peer) roles;
        # swap them to look the edge up from the receiving side.
        channel = self._channels.get(
            (event.peer, event.msg_type, event.endpoint))
        return None if channel is None else _unpack(self._pm_edges.pop(
            event.call_number << 32 | channel, None))

    def _in_exec_start(self, event) -> Optional[array]:
        return self._edge(self._call_edges, self._callers,
                          (event.thread_id, event.troupe_id),
                          event.call_number)

    def _in_result(self, event) -> Optional[array]:
        return self._edge(self._return_edges, self._returners,
                          event.thread_id, event.call_number)

    def _in_violation(self, event) -> Optional[VT]:
        frontier: VC = {}
        lamport = 0
        for cause in getattr(event, "evidence", ()):
            cause_vc = getattr(cause, "vc", None)
            if cause_vc:
                vc_merge(frontier, cause_vc)
            lamport = max(lamport, getattr(cause, "lamport", 0))
        if not frontier:
            return None
        # Evidence may be stamped by hand or by another domain: a node
        # new here gets an entry but no clock (nodes() is unchanged).
        for node in frontier:
            self._index_of(node)
        return (lamport,) + tuple(frontier.get(n, 0) for n in self._names)

    def _out_pm_send(self, event, vt: VT) -> None:
        # A retransmission refreshes the edge: the delivery that
        # finally completes the message has seen the latest segment.
        # (A channel number is a dict entry: it never reaches 2 ** 32.)
        channels = self._channels
        channel = channels.setdefault(
            (event.endpoint, event.msg_type, event.peer), len(channels))
        self._pm_edges.put(event.call_number << 32 | channel,
                           array("q", vt).tobytes())

    def _out_call_start(self, event, vt: VT) -> None:
        # Many-to-many: every client troupe member records; the
        # execution depends on the whole calling frontier.
        self._join(self._call_edges, self._callers,
                   (event.thread_id, event.troupe_id), event.call_number, vt)

    def _out_return(self, event, vt: VT) -> None:
        self._join(self._return_edges, self._returners, event.thread_id,
                   event.call_number, vt)

    @staticmethod
    def _edge(table: _Bounded, threads: _Bounded, thread,
              call_number: int) -> Optional[array]:
        held = threads.get(thread)
        return None if held is None else _unpack(
            table.get(call_number << 32 | held[0]))

    def _join(self, table: _Bounded, threads: _Bounded, thread,
              call_number: int, vt: VT) -> None:
        """Record ``vt`` under ``thread``'s call ``call_number``, joined
        with what is already there.  The thread's entry moves up with
        its edge, a new tuple each time (``_Bounded`` tells a moved
        entry by identity), so it outlives every edge of its own."""
        held = threads.get(thread)
        number = next(self._numbers) if held is None else held[0]
        threads.put(thread, (number,))
        key = call_number << 32 | number
        prior = table.get(key)
        if prior is not None:
            vt = vt_join(vt, tuple(array("q", prior)))
        table.put(key, array("q", vt).tobytes())


def _unpack(edge: Optional[bytes]) -> Optional[array]:
    """A packed stamp as the ``array('q')`` a tick merges."""
    return None if edge is None else array("q", edge)


def causal_sort_key(event) -> Tuple[int, float, int]:
    """Sort key yielding a causally consistent linear order for stamped
    events: Lamport clocks respect happens-before, virtual time and the
    vector-clock magnitude break ties deterministically.  A passive event
    carries its node's last Lamport value and a clock one larger, so it
    sorts after the causal event it follows and before the next one; the
    passive events in between tie, and a stable sort keeps them in the
    order given."""
    vt = getattr(event, "_vt", ())
    return (vt[0] if vt else 0, getattr(event, "t", 0.0),
            sum(vt[1:]))
