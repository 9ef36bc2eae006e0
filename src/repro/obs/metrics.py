"""Virtual-time metrics: counters, gauges, histograms, and the standard
collector that aggregates bus events per endpoint/troupe/call.

The registry is deliberately simulation-flavoured: histograms record
*virtual* milliseconds and keep every observation (runs are deterministic
and bounded), so percentiles are exact rather than bucketed estimates.

    registry = MetricsRegistry()
    with MetricsCollector(world.sim.bus, registry):
        world.run(body())
    print(registry.render())
    snap = registry.snapshot()   # {"pm.retransmits{endpoint=...}": 3, ...}
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.bus import EventBus


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value


class Histogram:
    """Exact distribution of virtual-time observations (ms)."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank); ``p`` in [0, 100]."""
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(1, int(math.ceil(p / 100.0 * len(ordered))))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "mean": self.mean,
            "min": min(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "max": max(self.values),
        }


LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _quote_label(value: str) -> str:
    """Quote a label value iff it contains rendering metacharacters, so
    distinct label sets can never collapse to one rendered key (e.g.
    ``{a: 'b,c=d'}`` vs ``{a: 'b', c: 'd'}``)."""
    if any(c in value for c in ',={}"'):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    return value


def _render_key(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join(
        "%s=%s" % (k, _quote_label(v)) for k, v in labels))


class MetricsRegistry:
    """Get-or-create metric instruments keyed by (name, labels).

    The reading methods (``value``, ``total``, ``items``, ``snapshot``,
    ``render``) first run the registry's *folds*: each attached
    :class:`MetricsCollector` brings the counts kept at emission sites
    (``EventBus.counts``) into its counters there."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelSet], Any] = {}
        self._folds: List[Callable[[], None]] = []

    def _fold(self) -> None:
        for fold in self._folds:
            fold()

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r is a %s, not a %s" % (
                name, type(metric).__name__, cls.__name__))
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- reading -----------------------------------------------------------

    def value(self, name: str, **labels) -> Any:
        """The current value of a counter/gauge (0 if never touched)."""
        self._fold()
        metric = self._metrics.get((name, _labelset(labels)))
        return metric.value if metric is not None else 0

    def total(self, name: str) -> int:
        """Sum of a counter across every label set."""
        self._fold()
        return sum(m.value for (n, _), m in self._metrics.items()
                   if n == name and isinstance(m, Counter))

    def items(self) -> List[Tuple[Tuple[str, LabelSet], Any]]:
        """Every ``((name, labels), instrument)``, sorted."""
        self._fold()
        return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly flat mapping of every instrument."""
        out: Dict[str, Any] = {}
        for (name, labels), metric in self.items():
            key = _render_key(name, labels)
            if isinstance(metric, Histogram):
                out[key] = metric.summary()
            else:
                out[key] = metric.value
        return out

    def render(self) -> str:
        """Human-readable snapshot, one instrument per line."""
        lines = []
        for key, value in self.snapshot().items():
            if isinstance(value, dict):
                detail = " ".join(
                    "%s=%.3f" % (k, v) if isinstance(v, float) else
                    "%s=%s" % (k, v)
                    for k, v in value.items())
                lines.append("%-56s %s" % (key, detail))
            else:
                lines.append("%-56s %s" % (key, value))
        return "\n".join(lines)


class Handles(dict):
    """Label values -> instrument, resolved through a registry's
    ``counter``/``gauge``/``histogram`` on first use and kept, so the
    per-event path is a dict hit instead of rendering and sorting a label
    set.  Keyed by the bare value for one label field, a tuple for
    several, ``()`` for none.  Lazy: an instrument exists only once an
    event has touched it."""

    __slots__ = ("make", "name", "fields")

    def __init__(self, make, name: str, *fields: str):
        self.make = make
        self.name = name
        self.fields = fields

    def __missing__(self, key):
        values = key if len(self.fields) != 1 else (key,)
        handle = self[key] = self.make(
            self.name, **dict(zip(self.fields, values)))
        return handle


#: kind -> (counter name, label fields) for the kinds counted at their
#: emission sites (``repro.obs.bus.COUNTED_KINDS``): the site keys
#: ``EventBus.counts`` by the values of these fields, as ``Handles`` does.
_SITE_COUNTED = {
    "sim.spawn": ("sim.processes_spawned", ()),
    "sim.exit": ("sim.processes_exited", ()),
    "net.deliver": ("net.packets_delivered", ()),
    "net.dup": ("net.packets_duplicated", ()),
    "pm.dup": ("pm.duplicates_suppressed", ("endpoint",)),
    "pm.ack_implicit": ("pm.implicit_acks", ("endpoint", "by")),
    "rpc.gather": ("rpc.gathers", ("host",)),
}

#: kind -> (counter name, label fields): the rarer events that are
#: simply counted, as they arrive, labelled by the event fields of the
#: same names.
_COUNTED = {
    "sim.timer": ("sim.timer_fires", ()),
    "net.drop": ("net.packets_dropped", ("reason",)),
    "pm.retransmit": ("pm.retransmits", ("endpoint",)),
    "pm.ack_explicit": ("pm.explicit_acks", ("endpoint",)),
    "pm.probe": ("pm.probes", ("endpoint",)),
    "pm.crash": ("pm.crashes_declared", ("endpoint",)),
    "pm.timeout": ("pm.send_timeouts", ("endpoint",)),
    "pm.deliver": ("pm.messages_delivered", ("endpoint",)),
    "rpc.result": ("rpc.replica_results", ("status",)),
    "rpc.collate": ("rpc.collations", ("verdict",)),
    "rpc.return": ("rpc.returns_sent", ("host",)),
    "rpc.stale": ("rpc.stale_calls_rejected", ("host",)),
    "txn.lock_wait": ("txn.lock_waits", ()),
    "txn.deadlock": ("txn.deadlocks", ()),
    "txn.commit": ("txn.commit_decisions", ("decision",)),
    "bind.lookup": ("bind.lookups", ("op",)),
    "bind.member": ("bind.membership_changes", ("op",)),
    "bind.stale": ("bind.stale_bindings", ()),
    "bind.get_state": ("bind.state_transfers", ()),
}


class MetricsCollector:
    """The standard event-to-metric aggregation.

    Maintains the metric names documented in ``docs/OBSERVABILITY.md``:
    packet counters per drop reason, paired-message counters per
    endpoint, replicated-call counters and latency histograms per troupe,
    transaction and binding counters.  One bus handler per event kind;
    each resolves its instrument once per distinct label values and keeps
    the handle, so the per-event path is a dict hit and an add.

    The seven kinds of ``_SITE_COUNTED`` are not subscribed to: their
    emission sites count into ``bus.counts``, and the collector adds what
    accrued there since it attached to its counters before every read of
    its registry and once more at :meth:`close`.

    Usable as a context manager; :meth:`close` detaches from the bus.
    """

    def __init__(self, bus: EventBus, registry: Optional[MetricsRegistry] = None):
        self.bus = bus
        self.registry = reg = registry or MetricsRegistry()
        #: open call start times keyed (host, proc, thread_id,
        #: call_number) — the issuing process disambiguates nested and
        #: many-to-many calls that reuse the (thread, call number) context.
        self._call_started: Dict[Tuple[str, str, str, int], float] = {}
        self._exec_started: Dict[Tuple[str, str, str, int], float] = {}
        counter, histogram = reg.counter, reg.histogram
        self._packets_sent = Handles(counter, "net.packets_sent")
        self._bytes_sent = Handles(counter, "net.bytes_sent")
        self._messages_sent = Handles(counter, "pm.messages_sent", "endpoint")
        self._segments_sent = Handles(counter, "pm.segments_sent", "endpoint")
        self._calls_started = Handles(counter, "rpc.calls_started", "troupe")
        self._calls_completed = Handles(counter, "rpc.calls_completed",
                                        "troupe", "outcome")
        self._call_ms = Handles(histogram, "rpc.call_ms", "troupe")
        self._incomplete_gathers = Handles(
            counter, "rpc.incomplete_gathers", "host")
        self._executions = Handles(counter, "rpc.executions",
                                   "host", "outcome")
        self._exec_ms = Handles(histogram, "rpc.exec_ms", "host")
        self._lock_wait_ms = Handles(histogram, "txn.lock_wait_ms")
        self._votes = Handles(counter, "txn.votes", "ready")
        handlers = {kind: self._counting(name, fields)
                    for kind, (name, fields) in _COUNTED.items()}
        handlers.update({
            "net.send": self._on_net_send,
            "pm.send": self._on_pm_send,
            "rpc.call_start": self._on_call_start,
            "rpc.call_end": self._on_call_end,
            "rpc.exec_start": self._on_exec_start,
            "rpc.exec_end": self._on_exec_end,
            "txn.lock_grant": self._on_lock_grant,
            "txn.vote": self._on_vote,
        })
        #: kind -> (counter handles, the site counts already added): the
        #: baseline is what the bus had counted before this collector.
        self._site = {
            kind: (Handles(counter, name, *fields), dict(bus.counts[kind]))
            for kind, (name, fields) in _SITE_COUNTED.items()}
        reg._folds.append(self._fold)
        self._sub = bus.subscribe_kinds(handlers)

    def close(self) -> None:
        self.bus.unsubscribe(self._sub)
        folds = self.registry._folds
        if self._fold in folds:
            self._fold()
            folds.remove(self._fold)

    def __enter__(self) -> "MetricsCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _counting(self, name: str, fields: Tuple[str, ...]):
        handles = Handles(self.registry.counter, name, *fields)
        if not fields:
            def handle(event) -> None:
                handles[()].value += 1
        else:
            values = operator.attrgetter(*fields)

            def handle(event) -> None:
                handles[values(event)].value += 1
        return handle

    def _fold(self) -> None:
        counts = self.bus.counts
        for kind, (handles, added) in self._site.items():
            for key, count in counts[kind].items():
                delta = count - added.get(key, 0)
                if delta:
                    handles[key].value += delta
                    added[key] = count

    # -- the kinds that do more than count one ------------------------------

    def _on_net_send(self, event):
        self._packets_sent[()].value += 1
        self._bytes_sent[()].value += len(event.payload)

    def _on_pm_send(self, event):
        endpoint = event.endpoint
        self._messages_sent[endpoint].value += 1
        self._segments_sent[endpoint].value += event.segments

    def _on_call_start(self, event):
        self._calls_started[event.troupe].value += 1
        self._call_started[(event.host, event.proc, event.thread_id,
                            event.call_number)] = event.t

    def _on_call_end(self, event):
        self._calls_completed[event.troupe, event.outcome].value += 1
        started = self._call_started.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if started is not None:
            self._call_ms[event.troupe].observe(event.t - started)

    def _on_exec_start(self, event):
        key = (event.host, event.proc, event.thread_id, event.call_number)
        self._exec_started[key] = event.t
        if not event.group_complete:
            self._incomplete_gathers[event.host].value += 1

    def _on_exec_end(self, event):
        self._executions[event.host, event.outcome].value += 1
        key = (event.host, event.proc, event.thread_id, event.call_number)
        started = self._exec_started.pop(key, None)
        if started is not None:
            self._exec_ms[event.host].observe(event.t - started)

    def _on_lock_grant(self, event):
        self._lock_wait_ms[()].observe(event.waited)

    def _on_vote(self, event):
        self._votes["true" if event.ready else "false"].value += 1
