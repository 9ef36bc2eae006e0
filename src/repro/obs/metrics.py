"""Virtual-time metrics: counters, gauges, histograms — some of them
windowed — and the standard collector that aggregates bus events per
endpoint/troupe/call into one registry.

Histograms record *virtual* milliseconds and keep every observation
(runs are deterministic and bounded), so percentiles are exact.  A
*windowed* instrument also keeps a ring of the newest ``CAPACITY``
buckets of ``BUCKET_MS`` virtual ms each, and one call updates both:
``WindowedCounter.inc(t)`` adds to ``.value`` and to ``t``'s bucket.

    registry = MetricsRegistry()
    with MetricsCollector(world.sim.bus, registry):
        world.run(body())
    print(registry.render())
    snap = registry.snapshot()   # {"pm.retransmits{endpoint=...}": 3, ...}
    registry.series("rpc.calls_started", troupe="echo").points()
    # -> [(0.0, 2), (10.0, 3), ...]
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.bus import EventBus

#: Width of a window bucket, in virtual ms.
BUCKET_MS = 10.0
#: Buckets a windowed instrument's ring keeps.
CAPACITY = 512


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
    """Exact distribution of virtual-time observations (ms), each kept
    as one unboxed double."""

    __slots__ = ("values",)

    def __init__(self):
        self.values = array("d")

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


# -- windows ----------------------------------------------------------------

class _Span:
    """The oldest and newest bucket any series of one registry has opened:
    every series reads its rate over a window ending at ``newest``."""

    __slots__ = ("first", "newest")

    def __init__(self):
        self.first: Optional[int] = None
        self.newest = -1


class _WindowedSeries:
    """Ring mechanics: bucket index -> cell, bounded, evicting.  Mixed in
    before the plain instrument whose total the series also keeps."""

    def __init__(self, width: float = BUCKET_MS, capacity: int = CAPACITY):
        super().__init__()
        self.width = width
        self.capacity = capacity
        #: bucket index -> cell, in the order the buckets were opened.
        self.cells = collections.OrderedDict()
        self.evicted = 0
        #: cell updates ever applied: the deterministic work counter.
        self.updates = 0
        self.span = _Span()     # the registry's, once it holds this series

    def _cell(self, t: float, new: Callable[[], Any]):
        index = int(t // self.width)
        cell = self.cells.get(index)
        if cell is None:
            cell = self.cells[index] = new()
            self._opened(index)
        self.updates += 1
        return cell

    def _opened(self, index: int) -> None:
        """Bucket ``index`` was just created: drop those past the ring
        capacity and extend the registry's span."""
        while len(self.cells) > self.capacity:
            self.cells.popitem(last=False)
            self.evicted += 1
        span = self.span
        if index > span.newest:
            span.newest = index
        if span.first is None or index < span.first:
            # A violation is stamped with its evidence's time, which
            # may precede every bucket opened so far.
            span.first = index

    def _window(self, last: Optional[int]) -> Tuple[int, int]:
        """``(first index, buckets)`` of the last ``last`` buckets (at most,
        and by default, as many as a ring keeps) up to the registry's newest
        bucket, empty ones included; never before its oldest."""
        span = self.span
        if span.first is None:
            return 0, 0
        buckets = min(span.newest - span.first + 1, self.capacity,
                      last or self.capacity)
        return span.newest - buckets + 1, buckets

    def points(self) -> List[Tuple[float, Any]]:
        """``[(bucket_start_virtual_ms, value), ...]`` in time order."""
        return [(index * self.width, cell)
                for index, cell in self.cells.items()]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width_ms": self.width,
            "evicted": self.evicted,
            "points": [[t, v] for t, v in self.points()],
        }


class WindowedCounter(_WindowedSeries, Counter):
    """A counter that also counts per bucket."""

    def inc(self, t: float, n: int = 1) -> None:
        self.value += n
        self.updates += 1
        index = int(t // self.width)
        current = self.cells.get(index)
        if current is None:
            self.cells[index] = n
            self._opened(index)
        else:
            self.cells[index] = current + n

    def total(self, last: Optional[int] = None) -> int:
        """Events in the window of :meth:`rate_per_sec`."""
        start, _ = self._window(last)
        return sum(n for index, n in self.cells.items() if index >= start)

    def rate_per_sec(self, last: Optional[int] = None) -> float:
        """Events per virtual second over the last ``last`` buckets
        (default: as many as a ring keeps) ending at the registry's newest
        bucket: the events in the window ÷ the virtual time it spans."""
        _, buckets = self._window(last)
        return (self.total(last) / (buckets * self.width / 1000.0)
                if buckets else 0.0)


class WindowedGauge(_WindowedSeries, Gauge):
    """A gauge that also keeps the last value seen per bucket."""

    def set(self, t: float, value: Any) -> None:
        self.value = value
        self._cell(t, int)
        self.cells[int(t // self.width)] = value

    def last(self) -> Any:
        return self.value


class _Sketch:
    """A per-bucket histogram sketch: count/sum/min/max plus
    power-of-two bins (bin ``i`` holds observations in
    ``(2**(i-1), 2**i]`` ms; bin 0 holds everything <= 1 ms)."""

    __slots__ = ("count", "sum", "min", "max", "bins")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bins: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bin_index = 0 if value <= 1.0 else int(math.ceil(math.log2(value)))
        self.bins[bin_index] = self.bins.get(bin_index, 0) + 1

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (``q`` in [0, 1])
        from the power-of-two bins — exact to within one octave."""
        if not self.count:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        seen = 0
        for bin_index in sorted(self.bins):
            seen += self.bins[bin_index]
            if seen >= rank:
                return float(2 ** bin_index)
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "bins": {str(k): self.bins[k] for k in sorted(self.bins)},
        }


class WindowedHistogram(_WindowedSeries, Histogram):
    """A histogram that also keeps a :class:`_Sketch` per bucket."""

    def observe(self, t: float, value: float) -> None:
        self.values.append(value)
        self._cell(t, _Sketch).observe(value)

    def points(self) -> List[Tuple[float, Any]]:
        return [(t, sketch.to_dict()) for t, sketch in super().points()]

    def merged(self) -> _Sketch:
        """One sketch over every retained bucket."""
        out = _Sketch()
        for cell in self.cells.values():
            out.count += cell.count
            out.sum += cell.sum
            if cell.count:
                out.min = min(out.min, cell.min)
                out.max = max(out.max, cell.max)
            for bin_index, n in cell.bins.items():
                out.bins[bin_index] = out.bins.get(bin_index, 0) + n
        return out


# -- the registry -----------------------------------------------------------

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

    The reading methods (``value``, ``total``, ``items`` and everything
    built on it) first run the registry's *folds*: each attached
    :class:`MetricsCollector` brings the counts kept at emission sites
    (``EventBus.counts``) into its counters there."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelSet], Any] = {}
        self._folds: List[Callable[[], None]] = []
        self._span = _Span()

    def _fold(self) -> None:
        for fold in self._folds:
            fold()

    def _get(self, cls, name: str, /, **labels):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            if isinstance(metric, _WindowedSeries):
                metric.span = self._span
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r is a %s, not a %s" % (
                name, type(metric).__name__, cls.__name__))
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, **labels)

    # -- reading -----------------------------------------------------------

    def value(self, name: str, **labels) -> Any:
        """The current value of a counter/gauge (0 if never touched)."""
        metric = self.series(name, **labels)
        return metric.value if metric is not None else 0

    def series(self, name: str, **labels) -> Any:
        """The instrument ``(name, labels)``, or None: reading never
        creates one."""
        self._fold()
        return self._metrics.get((name, _labelset(labels)))

    def total(self, name: str) -> int:
        """Sum of a counter across every label set."""
        return sum(m.value for _, m in self.labeled(name)
                   if isinstance(m, Counter))

    def items(self) -> List[Tuple[Tuple[str, LabelSet], Any]]:
        """Every ``((name, labels), instrument)``, sorted."""
        self._fold()
        return sorted(self._metrics.items())

    def names(self) -> List[str]:
        return sorted({name for (name, _), _ in self.items()})

    def labeled(self, name: str) -> List[Tuple[LabelSet, Any]]:
        """Every (labels, instrument) registered under ``name``, sorted."""
        return [(labels, m) for (n, labels), m in self.items() if n == name]

    def updates(self) -> int:
        """Total cell updates across every window (the deterministic
        observability-work counter)."""
        return sum(m.updates for m in self._metrics.values()
                   if isinstance(m, _WindowedSeries))

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

    def windows(self) -> Dict[str, Any]:
        """Rendered key -> ``to_dict()`` of every windowed instrument."""
        return {_render_key(name, labels): metric.to_dict()
                for (name, labels), metric in self.items()
                if isinstance(metric, _WindowedSeries)}

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
    """Label values -> instrument, resolved through ``make`` (a registry's
    ``counter``, say, or ``_get`` bound to a windowed type) on first use
    and kept, so the per-event path is a dict hit instead of rendering
    and sorting a label set.  Keyed by the bare value for one label
    field, a tuple for several, ``()`` for none.  Lazy: an instrument
    exists only once an event has touched it."""

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
    "mon.violation": ("mon.violations", ("invariant",)),
}

#: name -> instrument type of the series that also keep a window: the
#: rates ``repro top`` and the OpenMetrics ``ts_*`` lines read.
_WINDOWED = dict.fromkeys((
    "net.packets_sent", "net.packets_dropped", "pm.retransmits",
    "pm.crashes_declared", "rpc.calls_started", "rpc.calls_completed",
    "txn.commit_decisions", "mon.violations"), WindowedCounter)
_WINDOWED.update({"rpc.call_ms": WindowedHistogram,
                  "rpc.open_calls": WindowedGauge})


class MetricsCollector:
    """The standard event-to-metric aggregation.

    Maintains the metric names documented in ``docs/OBSERVABILITY.md``,
    the ten of ``_WINDOWED`` with their windows.  One bus handler per
    event kind; each resolves its instrument once per distinct label
    values and keeps the handle, so the per-event path is a dict hit and
    an add.

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
        self._packets_sent = self._handles("net.packets_sent")
        self._bytes_sent = Handles(counter, "net.bytes_sent")
        self._messages_sent = Handles(counter, "pm.messages_sent", "endpoint")
        self._segments_sent = Handles(counter, "pm.segments_sent", "endpoint")
        self._calls_started = self._handles("rpc.calls_started", "troupe")
        self._calls_completed = self._handles("rpc.calls_completed",
                                              "troupe", "outcome")
        self._call_ms = self._handles("rpc.call_ms", "troupe")
        self._open_calls = self._handles("rpc.open_calls")[()]
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

    def _handles(self, name: str, *fields: str) -> Handles:
        """Handles on the windowed instruments of ``name``."""
        return Handles(functools.partial(self.registry._get, _WINDOWED[name]),
                       name, *fields)

    def _counting(self, name: str, fields: Tuple[str, ...]):
        if name in _WINDOWED:
            windows = self._handles(name, *fields)
            labels = operator.attrgetter(*fields)

            def handle(event) -> None:
                windows[labels(event)].inc(event.t)
            return handle
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
        self._packets_sent[()].inc(event.t)
        self._bytes_sent[()].value += len(event.payload)

    def _on_pm_send(self, event):
        endpoint = event.endpoint
        self._messages_sent[endpoint].value += 1
        self._segments_sent[endpoint].value += event.segments

    def _on_call_start(self, event):
        t = event.t
        self._calls_started[event.troupe].inc(t)
        self._call_started[(event.host, event.proc, event.thread_id,
                            event.call_number)] = t
        open_calls = self._open_calls
        open_calls.set(t, open_calls.value + 1)

    def _on_call_end(self, event):
        t = event.t
        self._calls_completed[event.troupe, event.outcome].inc(t)
        open_calls = self._open_calls
        open_calls.set(t, max(0, open_calls.value - 1))
        started = self._call_started.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if started is not None:
            self._call_ms[event.troupe].observe(t, t - started)

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
