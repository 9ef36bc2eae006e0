"""Exporters and the shared progress channel.

Two jobs live here:

- :func:`openmetrics` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  (its windowed counters' rates too, and optionally a critical-path
  report) in the OpenMetrics text exposition format, deterministically —
  sorted families, sorted label sets, a ``schema_version`` info metric,
  terminated by ``# EOF``.  CI diffing two same-seed exports
  byte-for-byte is the intended consumer as much as any scraper.

- :class:`ProgressChannel` is the one channel long-running workloads
  (the fuzz sweep, the wall-clock benchmarks) publish progress through,
  and ``repro top`` renders from.  It is process-local and synchronous:
  ``publish()`` updates the named task's row and pokes listeners.

The exporter's data model maps onto OpenMetrics as:

- ``Counter`` -> ``counter`` family, sample ``<name>_total``;
- ``Gauge`` -> ``gauge`` family;
- ``Histogram`` -> ``summary`` family (``_count``/``_sum`` plus exact
  ``quantile`` samples — registry histograms keep every observation);
- each ``WindowedCounter`` also -> ``ts_window_total`` and
  ``ts_rate_per_sec`` gauge samples labelled ``series="<name>"``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               WindowedCounter)

#: Version stamp carried by every machine-readable artifact this layer
#: emits (OpenMetrics info metric, ``repro metrics --json``, ``repro
#: critpath --json``, fuzz sweep reports).  Bump on breaking shape
#: changes; CI compares artifacts byte-for-byte within one version.
SCHEMA_VERSION = "repro.obs/1"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """An OpenMetrics-legal metric name (dots and dashes become ``_``)."""
    out = _NAME_OK.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(labelset, extra: str = "") -> str:
    parts = ['%s="%s"' % (metric_name(k), _escape(v)) for k, v in labelset]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return "0"


def openmetrics(registry: MetricsRegistry, critpath=None) -> str:
    """The registry as OpenMetrics text exposition; deterministic.

    ``critpath`` (a :class:`~repro.obs.critpath.CritPathAnalyzer`) adds
    per-stage totals and the attribution summary.
    """
    prefix = "repro_"
    lines: List[str] = []
    lines.append("# TYPE %sschema info" % prefix)
    lines.append('%sschema_info{version="%s"} 1' % (prefix, SCHEMA_VERSION))

    families: Dict[str, List] = {}
    windows = []
    for (name, labelset), metric in registry.items():
        families.setdefault(name, []).append((labelset, metric))
        if isinstance(metric, WindowedCounter):
            windows.append((name, labelset, metric))

    for name in sorted(families):
        samples = families[name]
        family = prefix + metric_name(name)
        first = samples[0][1]
        if isinstance(first, Counter):
            lines.append("# TYPE %s counter" % family)
            for labelset, metric in samples:
                lines.append("%s_total%s %s" % (
                    family, _labels(labelset), _fmt(metric.value)))
        elif isinstance(first, Gauge):
            lines.append("# TYPE %s gauge" % family)
            for labelset, metric in samples:
                lines.append("%s%s %s" % (
                    family, _labels(labelset), _fmt(metric.value)))
        elif isinstance(first, Histogram):
            lines.append("# TYPE %s summary" % family)
            for labelset, metric in samples:
                for q in (0.5, 0.9, 0.99):
                    lines.append("%s%s %s" % (
                        family,
                        _labels(labelset, 'quantile="%s"' % q),
                        _fmt(metric.percentile(q * 100.0))))
                lines.append("%s_count%s %s" % (
                    family, _labels(labelset), _fmt(metric.count)))
                lines.append("%s_sum%s %s" % (
                    family, _labels(labelset), _fmt(float(metric.total))))

    if windows:
        lines.append("# TYPE %sts_window_total gauge" % prefix)
        lines.append("# TYPE %sts_rate_per_sec gauge" % prefix)
        rate_lines = []
        for name, labelset, series in windows:
            sample = _labels(
                labelset, 'series="%s"' % _escape(metric_name(name)))
            lines.append("%sts_window_total%s %s" % (
                prefix, sample, _fmt(series.total())))
            rate_lines.append("%sts_rate_per_sec%s %s" % (
                prefix, sample, _fmt(series.rate_per_sec())))
        lines.extend(rate_lines)

    if critpath is not None:
        report = critpath.report()
        lines.append("# TYPE %scritpath_attributed_pct gauge" % prefix)
        lines.append("%scritpath_attributed_pct %s" % (
            prefix, _fmt(float(report["attributed_pct"]))))
        lines.append("# TYPE %scritpath_residual_ms gauge" % prefix)
        lines.append("%scritpath_residual_ms %s" % (
            prefix, _fmt(float(report["residual_ms"]))))
        lines.append("# TYPE %scritpath_stage_ms gauge" % prefix)
        for stage, row in report["stages"].items():
            lines.append('%scritpath_stage_ms{stage="%s"} %s' % (
                prefix, _escape(stage), _fmt(float(row["total_ms"]))))
        lines.append("# TYPE %scritpath_dominant_calls gauge" % prefix)
        for stage, count in report["dominant"].items():
            lines.append('%scritpath_dominant_calls{stage="%s"} %s' % (
                prefix, _escape(stage), _fmt(count)))

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class ProgressChannel:
    """Named progress rows published by workloads, read by ``repro top``.

    ``publish("fuzz.sweep", done=120, total=1000, failures=2)`` upserts
    the row; listeners (the live view) are poked synchronously.  Rows are
    plain dicts plus a monotone ``seq`` so renderers can spot updates.
    """

    def __init__(self):
        self._rows: Dict[str, Dict[str, Any]] = {}
        self._listeners: List[Callable[[str, Dict[str, Any]], None]] = []
        self._seq = 0

    def publish(self, task: str, **fields: Any) -> None:
        self._seq += 1
        row = self._rows.setdefault(task, {})
        row.update(fields)
        row["seq"] = self._seq
        for listener in list(self._listeners):
            listener(task, row)

    def finish(self, task: str) -> None:
        """Drop a completed task's row."""
        self._rows.pop(task, None)

    def listen(self, fn: Callable[[str, Dict[str, Any]], None]) -> None:
        self._listeners.append(fn)

    def unlisten(self, fn) -> None:
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Task name -> row, task-sorted (deterministic)."""
        return {task: dict(self._rows[task])
                for task in sorted(self._rows)}


#: The process-wide default channel: workloads publish here unless handed
#: a channel explicitly, so `repro top` sees fuzz/bench progress with no
#: plumbing.
PROGRESS = ProgressChannel()
