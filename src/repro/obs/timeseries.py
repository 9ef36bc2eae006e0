"""Windowed virtual-time time-series: the *when* of a run's metrics.

:class:`~repro.obs.metrics.MetricsCollector` answers "how many, in
total"; this module answers "how many, per 10 ms of virtual time" — the
shape the capacity curves, the live ``repro top`` view, and throughput
plots need.  The same typed bus events feed both.

Every series is a ring of fixed-width *buckets* aligned to virtual-time
boundaries (bucket ``k`` covers ``[k*width, (k+1)*width)`` virtual ms).
The ring holds the last ``capacity`` buckets; older buckets are evicted
and counted in ``evicted`` so a long run stays bounded.  Three series
flavours exist:

- :class:`WindowedCounter` — increments per bucket (event rates);
- :class:`WindowedGauge` — last value seen per bucket (queue depths);
- :class:`WindowedHistogram` — a per-bucket *sketch* of observations
  (count, sum, min, max, and power-of-two bins), cheap enough to keep
  per window where the exact global histogram would not be.

    registry = TimeSeriesRegistry(bucket_ms=10.0)
    with TimeSeriesCollector(world.sim.bus, registry):
        world.run(body())
    registry.counter("rpc.calls_completed", troupe="echo").points()
    # -> [(0.0, 2), (10.0, 3), ...]
"""

from __future__ import annotations

import collections
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.obs.metrics import Handles, LabelSet, _labelset, _render_key

#: Default bucket width in virtual ms.
DEFAULT_BUCKET_MS = 10.0
#: Default ring capacity (buckets retained per series).
DEFAULT_CAPACITY = 512


class _WindowedSeries:
    """Shared ring mechanics: bucket index -> cell, bounded, evicting."""

    __slots__ = ("width", "capacity", "cells", "evicted", "updates")

    def __init__(self, width: float, capacity: int):
        self.width = width
        self.capacity = capacity
        #: bucket index -> cell, insertion-ordered (buckets only move
        #: forward in virtual time, so order == bucket order).
        self.cells: "collections.OrderedDict[int, Any]" = \
            collections.OrderedDict()
        self.evicted = 0
        #: total cell updates ever applied (the deterministic work
        #: counter the observability-overhead proxy reads).
        self.updates = 0

    def _cell(self, t: float):
        index = int(t // self.width)
        cell = self.cells.get(index)
        if cell is None:
            cell = self.cells[index] = self._new_cell()
            self._evict()
        self.updates += 1
        return cell

    def _evict(self) -> None:
        """A bucket was just created: drop those past the ring capacity."""
        while len(self.cells) > self.capacity:
            self.cells.popitem(last=False)
            self.evicted += 1

    def _new_cell(self):
        raise NotImplementedError

    def points(self) -> List[Tuple[float, Any]]:
        """``[(bucket_start_virtual_ms, value), ...]`` in time order."""
        return [(index * self.width, self._value_of(cell))
                for index, cell in self.cells.items()]

    def _value_of(self, cell):
        return cell

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width_ms": self.width,
            "evicted": self.evicted,
            "points": [[t, v] for t, v in self.points()],
        }


class WindowedCounter(_WindowedSeries):
    """Per-bucket increments; ``points()`` yields counts per window."""

    __slots__ = ()

    def _new_cell(self):
        return 0

    def inc(self, t: float, n: int = 1) -> None:
        index = int(t // self.width)
        current = self.cells.get(index)
        self.updates += 1
        if current is None:
            self.cells[index] = n
            self._evict()
        else:
            self.cells[index] = current + n

    def total(self) -> int:
        """Sum over the retained window (evicted buckets excluded)."""
        return sum(self.cells.values())

    def rate_per_sec(self, last: Optional[int] = None) -> float:
        """Events per virtual second over the last ``last`` buckets
        (default: every retained bucket)."""
        cells = list(self.cells.values())
        if last is not None:
            cells = cells[-last:]
        if not cells:
            return 0.0
        return sum(cells) / (len(cells) * self.width / 1000.0)


class WindowedGauge(_WindowedSeries):
    """Last value seen per bucket."""

    __slots__ = ()

    def _new_cell(self):
        return 0

    def set(self, t: float, value: Any) -> None:
        self._cell(t)
        self.cells[int(t // self.width)] = value

    def last(self) -> Any:
        if not self.cells:
            return 0
        return next(reversed(self.cells.values()))


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


class WindowedHistogram(_WindowedSeries):
    """A :class:`_Sketch` per bucket."""

    __slots__ = ()

    def _new_cell(self):
        return _Sketch()

    def observe(self, t: float, value: float) -> None:
        self._cell(t).observe(value)

    def _value_of(self, cell):
        return cell.to_dict()

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


class TimeSeriesRegistry:
    """Get-or-create windowed series keyed ``(name, labels)``, exactly
    like :class:`~repro.obs.metrics.MetricsRegistry` but per-window."""

    def __init__(self, bucket_ms: float = DEFAULT_BUCKET_MS,
                 capacity: int = DEFAULT_CAPACITY):
        self.bucket_ms = bucket_ms
        self.capacity = capacity
        self._series: Dict[Tuple[str, LabelSet], _WindowedSeries] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = (name, _labelset(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(self.bucket_ms, self.capacity)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise TypeError("series %r is a %s, not a %s" % (
                name, type(series).__name__, cls.__name__))
        return series

    def counter(self, name: str, **labels) -> WindowedCounter:
        return self._get(WindowedCounter, name, labels)

    def gauge(self, name: str, **labels) -> WindowedGauge:
        return self._get(WindowedGauge, name, labels)

    def histogram(self, name: str, **labels) -> WindowedHistogram:
        return self._get(WindowedHistogram, name, labels)

    # -- reading -----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._series})

    def series(self, name: str, **labels) -> Optional[_WindowedSeries]:
        return self._series.get((name, _labelset(labels)))

    def labeled(self, name: str) -> List[Tuple[LabelSet, _WindowedSeries]]:
        """Every (labels, series) registered under ``name``, sorted."""
        return sorted(((labels, series)
                       for (n, labels), series in self._series.items()
                       if n == name), key=lambda item: item[0])

    def updates(self) -> int:
        """Total cell updates across every series (the deterministic
        observability-work counter)."""
        return sum(series.updates for series in self._series.values())

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-friendly mapping: rendered key ->
        series dict."""
        out: Dict[str, Any] = {}
        for (name, labels), series in sorted(self._series.items()):
            out[_render_key(name, labels)] = series.to_dict()
        return out


class TimeSeriesCollector:
    """The standard event-to-series aggregation: the same typed events
    :class:`~repro.obs.metrics.MetricsCollector` consumes, bucketed.

    Maintains, per bucket:

    - ``rpc.calls_started`` / ``rpc.calls_completed{troupe=,outcome=}``
      counters (per-troupe call rates for ``repro top``);
    - ``rpc.call_ms{troupe=}`` latency sketches;
    - ``net.packets_sent`` / ``net.packets_dropped`` counters;
    - ``pm.retransmits`` / ``pm.crashes_declared`` counters;
    - ``txn.commit_decisions{decision=}`` counters;
    - ``mon.violations{invariant=}`` counters;
    - an ``rpc.open_calls`` gauge (calls started minus completed).

    Usable as a context manager; :meth:`close` detaches from the bus.
    """

    def __init__(self, bus: EventBus,
                 registry: Optional[TimeSeriesRegistry] = None,
                 bucket_ms: float = DEFAULT_BUCKET_MS,
                 capacity: int = DEFAULT_CAPACITY):
        self.bus = bus
        self.registry = registry or TimeSeriesRegistry(bucket_ms, capacity)
        self._open_calls = 0
        self._call_started: Dict[Tuple[str, str, str, int], float] = {}
        # Series handles are resolved once (once per distinct label
        # values for the labelled ones) and kept: the per-event path
        # never renders or sorts a label set.
        reg = self.registry
        self._calls_started = Handles(reg.counter, "rpc.calls_started",
                                      "troupe")
        self._calls_completed = Handles(reg.counter, "rpc.calls_completed",
                                        "troupe", "outcome")
        self._call_ms = Handles(reg.histogram, "rpc.call_ms", "troupe")
        self._commit_decisions = Handles(
            reg.counter, "txn.commit_decisions", "decision")
        self._violations = Handles(reg.counter, "mon.violations",
                                   "invariant")
        self._open_gauge = reg.gauge("rpc.open_calls")
        handlers = {
            ev.CallStarted.kind: self._on_call_start,
            ev.CallCompleted.kind: self._on_call_end,
            ev.CommitOutcome.kind: self._on_commit,
            ev.InvariantViolation.kind: self._on_violation,
        }
        # The unlabelled series exist from the start (their keys are in
        # every snapshot) and packet events outnumber everything else:
        # their handlers are the bare increment.
        for kind, name in ((ev.PacketSent.kind, "net.packets_sent"),
                           (ev.PacketDropped.kind, "net.packets_dropped"),
                           (ev.SegmentRetransmitted.kind, "pm.retransmits"),
                           (ev.PeerCrashDeclared.kind,
                            "pm.crashes_declared")):
            handlers[kind] = self._counting(reg.counter(name))
        self._sub = bus.subscribe_kinds(handlers)

    def close(self) -> None:
        self.bus.unsubscribe(self._sub)

    def __enter__(self) -> "TimeSeriesCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one bus handler per kind -------------------------------------------

    @staticmethod
    def _counting(series: WindowedCounter):
        inc = series.inc

        def handle(event) -> None:
            inc(event.t)
        return handle

    def _on_call_start(self, event):
        self._calls_started[event.troupe].inc(event.t)
        self._call_started[(event.host, event.proc, event.thread_id,
                            event.call_number)] = event.t
        self._open_calls += 1
        self._open_gauge.set(event.t, self._open_calls)

    def _on_call_end(self, event):
        self._calls_completed[event.troupe, event.outcome].inc(event.t)
        self._open_calls = max(0, self._open_calls - 1)
        self._open_gauge.set(event.t, self._open_calls)
        started = self._call_started.pop(
            (event.host, event.proc, event.thread_id, event.call_number),
            None)
        if started is not None:
            self._call_ms[event.troupe].observe(event.t, event.t - started)

    def _on_commit(self, event):
        self._commit_decisions[event.decision].inc(event.t)

    def _on_violation(self, event):
        self._violations[event.invariant].inc(event.t)
