"""The process-wide event bus: structured observation of every layer.

Every protocol layer — the simulation kernel, the wire, the paired
message endpoints, the replicated call runtime, the transaction machinery
and the Ringmaster — emits typed events (:mod:`repro.obs.events`) to the
bus hanging off its :class:`~repro.sim.kernel.Simulator`.  Observers
(metrics collectors, call tracers, the MSC packet trace) subscribe with
an optional kind filter, or with one handler per kind.

Zero overhead when unobserved, and none for kinds nobody asked for
-----------------------------------------------------------------

Emission sites test their own *kind* against :attr:`EventBus.wanted`::

    bus = self.sim.bus
    if "net.send" in bus.wanted:
        bus.emit(events.PacketSent(t=self.sim.now, ...))

``wanted`` is a frozenset of event kinds, rebuilt on every (un)subscribe
by resolving each subscription against the event vocabulary
(:data:`repro.obs.events.ALL_EVENTS`).  With nothing attached it is
empty, so observing costs one attribute load and one membership test per
site and no event object is ever constructed; with only a ``"net."``
subscriber attached the ``sim``/``pm``/``rpc`` sites still cost exactly
that.  While a causal-clock stamper is installed ``wanted`` is what was
subscribed to *plus the causal kinds*
(:data:`repro.obs.events.CAUSAL_KINDS`): happens-before edges run
through events (``pm.send`` → ``pm.deliver``) that no monitor subscribes
to, and the clocks tick on those kinds and no others — so what a
causal event is stamped with never depends on who else is listening.
Every other kind stays unbuilt until somebody asks for it: a
``MonitorSuite`` alone leaves ``net.*``, ``sim.*``, ``pm.ack_*``,
``txn.lock_*`` at the cost of the guard.

Counted where it happens
------------------------

The sites of :data:`COUNTED_KINDS` — frequent kinds whose only standard
reader is a counter — also count every occurrence into
:attr:`EventBus.counts`, wanted or not, keyed the way
:class:`~repro.obs.metrics.Handles` keys that metric's label values::

    bus.counts["net.deliver"][()] += 1     # or a row held since set-up
    if "net.deliver" in bus.wanted:
        bus.emit(...)

so :class:`~repro.obs.metrics.MetricsCollector` reads the table instead
of making the bus build an event it only adds one for.  The event is
still built for whoever subscribes to its kind.

To add an emission site, guard it with the literal kind of the event it
constructs.  To add an event kind, define the dataclass in
:mod:`repro.obs.events` *and* list it in ``ALL_EVENTS`` — a kind outside
the vocabulary is never in ``wanted`` (``emit`` itself still delivers
it, which is what tests' synthetic events rely on).

Subscribers never perturb virtual time — they run synchronously inside
the emitting callback and must not touch the simulation.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Tuple, Union)

from repro.obs.events import CAUSAL_KINDS, KINDS, MonitorError

#: An event handler: called synchronously with each matching event.
Handler = Callable[[object], None]

#: The counted kinds that carry no label: their one key, ``()``, is in
#: :attr:`EventBus.counts` from the start, so their sites add to it
#: without a lookup default.
_UNLABELLED = ("sim.spawn", "sim.exit", "net.deliver", "net.dup")
#: The kinds whose emission sites count every occurrence into
#: :attr:`EventBus.counts`, whether or not the kind is wanted.
COUNTED_KINDS = _UNLABELLED + ("pm.ack_implicit", "pm.dup", "rpc.gather")


class Subscription:
    """A live subscription; pass back to :meth:`EventBus.unsubscribe`.

    Either one ``handler`` behind a prefix filter (``prefixes``; None:
    every event) or, with ``handler`` None, one handler per exact kind.
    ``handlers`` is kind -> handler either way: given, or the prefixes
    resolved against the vocabulary once, here, so that re-indexing the
    bus is a walk over dictionaries rather than prefix tests.
    """

    __slots__ = ("handler", "prefixes", "handlers")

    def __init__(self, handler: Optional[Handler],
                 prefixes: Optional[Tuple[str, ...]],
                 handlers: Optional[Dict[str, Handler]] = None):
        self.handler = handler
        self.prefixes = prefixes
        if handlers is None:
            handlers = {kind: handler for kind in KINDS
                        if prefixes is None or kind.startswith(prefixes)}
        self.handlers = handlers

    def handler_for(self, kind: str) -> Optional[Handler]:
        """The handler this subscription runs for ``kind`` (which need
        not be in the vocabulary), or None."""
        if self.handler is None:
            return self.handlers.get(kind)
        if self.prefixes is None or kind.startswith(self.prefixes):
            return self.handler
        return None

    def __repr__(self) -> str:
        return "<Subscription %s>" % (
            "*" if self.prefixes is None and self.handler is not None
            else ",".join(self.prefixes or self.handlers))


class EventBus:
    """Synchronous publish/subscribe hub for observability events.

    ``kinds`` filters are *prefixes* of the dotted event kind: subscribing
    with ``("pm.",)`` receives every paired-message event, ``("pm.send",)``
    exactly one kind, and ``None`` everything.
    """

    __slots__ = ("wanted", "counts", "_subs", "_stamper", "_by_kind")

    def __init__(self):
        #: The kinds of the vocabulary somebody is listening for (and the
        #: causal kinds while a stamper is installed).  Emission sites
        #: test their kind against this set before constructing an event
        #: — the nobody-wants-it fast path.
        self.wanted: FrozenSet[str] = frozenset()
        #: kind -> label values -> occurrences since the bus was made,
        #: for the :data:`COUNTED_KINDS`; only ever incremented.
        self.counts: Dict[str, Dict[Any, int]] = {
            kind: {(): 0} if kind in _UNLABELLED else {}
            for kind in COUNTED_KINDS}
        self._subs: List[Subscription] = []
        self._stamper = None
        #: kind -> (handlers to run, in subscription order): the one
        #: dispatch table.  Rebuilt on (un)subscribe for every kind a
        #: subscription resolved to; filled lazily for any other kind on
        #: its first emit.
        self._by_kind: Dict[str, Tuple[Handler, ...]] = {}

    @property
    def active(self) -> bool:
        """True iff anything is attached (read-only; emission sites test
        their own kind against :attr:`wanted` instead)."""
        return bool(self._subs)

    @property
    def stamper(self):
        """Optional causal-clock stamper (repro.obs.clocks.ClockDomain):
        ``stamper.stamp(event)`` runs once per emitted event, before
        dispatch.  Installing one makes the causal kinds wanted."""
        return self._stamper

    @stamper.setter
    def stamper(self, stamper) -> None:
        self._stamper = stamper
        self._reindex()

    def subscribe(self, handler: Handler,
                  kinds: Union[None, str, Iterable[str]] = None
                  ) -> Subscription:
        """Attach ``handler``; returns the subscription token."""
        if isinstance(kinds, str):
            prefixes: Optional[Tuple[str, ...]] = (kinds,)
        elif kinds is None:
            prefixes = None
        else:
            prefixes = tuple(kinds)
        return self._attach(Subscription(handler, prefixes))

    def subscribe_kinds(self, handlers: Mapping[str, Handler]
                        ) -> Subscription:
        """Attach one handler per *exact* kind under a single token, so a
        subscriber that dispatches by kind lets the bus do it."""
        return self._attach(Subscription(None, None, dict(handlers)))

    def _attach(self, sub: Subscription) -> Subscription:
        self._subs.append(sub)
        self._reindex()
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach; unknown tokens are ignored (idempotent)."""
        try:
            self._subs.remove(subscription)
        except ValueError:
            return
        self._reindex()

    def _reindex(self) -> None:
        # A fresh table of fresh tuples, not an update: an emit in
        # progress keeps delivering against the tuple it already fetched.
        table: Dict[str, List[Handler]] = {}
        for sub in self._subs:
            for kind, handler in sub.handlers.items():
                table.setdefault(kind, []).append(handler)
        # (Only the vocabulary: a synthetic kind named by subscribe_kinds
        # may also match prefix subscriptions, which emit resolves lazily.)
        self._by_kind = {kind: tuple(found) for kind, found in table.items()
                         if kind in KINDS}
        self.wanted = frozenset(self._by_kind)
        if self._stamper is not None and self._subs:
            self.wanted |= CAUSAL_KINDS

    def emit(self, event) -> None:
        """Deliver ``event`` (anything with a ``kind`` attribute) to every
        matching subscriber, synchronously, in subscription order.

        A raising handler must not unwind into the emitting protocol
        code — that would abort the simulation over an observer bug.
        The exception is contained and republished as a
        :class:`~repro.obs.events.MonitorError` event (except when the
        failing delivery *was* a ``mon.error``, which is dropped rather
        than allowed to recurse).
        """
        if not self._subs:
            return
        kind = event.kind
        stamper = self._stamper
        if stamper is not None:
            # The stamper is an observer too: a raising stamp() must be
            # contained exactly like a raising handler, not allowed to
            # unwind into protocol code (the event just goes unstamped).
            try:
                stamper.stamp(event)
            except Exception as exc:   # noqa: BLE001 — isolation
                self._contain(event, stamper, exc)
        handlers = self._by_kind.get(kind)
        if handlers is None:
            # A kind outside the vocabulary, or one only the stamper
            # wanted: resolved on first emit, kept until the next reindex.
            found = (sub.handler_for(kind) for sub in self._subs)
            handlers = self._by_kind[kind] = tuple(
                handler for handler in found if handler is not None)
        failures = None
        # ``handlers`` is a stable snapshot: a handler that (un)subscribes
        # mid-emit replaces the table, and this delivery finishes against
        # the membership that existed when the event was emitted.
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:   # noqa: BLE001 — isolation
                if failures is None:
                    failures = []
                failures.append((handler, exc))
        if failures:
            for handler, exc in failures:
                self._contain(event, handler, exc)

    def _contain(self, event, observer, exc: Exception) -> None:
        if event.kind != "mon.error":
            self.emit(MonitorError(
                t=getattr(event, "t", 0.0), handler=repr(observer),
                event_kind=event.kind,
                error="%s: %s" % (type(exc).__name__, exc)))

    def subscriber_count(self) -> int:
        return len(self._subs)

    def __repr__(self) -> str:
        return "<EventBus (%d subscribers)>" % len(self._subs)
