"""Unified observability: event bus, metrics, tracing, invariants.

Every :class:`~repro.sim.kernel.Simulator` owns an :class:`EventBus`
(``sim.bus``); every protocol layer emits typed events
(:mod:`repro.obs.events`) to it when — and only when — a subscriber is
attached.  On top of the bus sit the standard observers:

* :class:`MetricsCollector` — aggregates events into a
  :class:`MetricsRegistry` of counters, gauges and virtual-time
  histograms, labelled per endpoint / troupe / host; the call, packet,
  retransmit, crash, commit and violation series also keep a window of
  10 ms virtual-time buckets, for rates and the live ``repro top`` view.
* :class:`CallTracer` — reconstructs replicated calls as span trees
  (client call → per-replica execution → collation) and exports Chrome
  ``trace_event`` JSON keyed by virtual time.
* :class:`MonitorSuite` / :func:`watch` — online invariant monitors
  checking the paper's correctness claims over the live event stream,
  with every event stamped by Lamport + dynamic vector clocks
  (:class:`ClockDomain`) so violations carry their causal cut.
* :class:`FlightRecorder` — a bounded ring of recent events that dumps
  a causally ordered post-mortem on violation or crash.
* :class:`CritPathAnalyzer` — decomposes each replicated call's latency
  into named critical-path stages (encode/send, gather wait, execute,
  return, collation) with per-stage histograms.
* :func:`openmetrics` / :class:`ProgressChannel` — OpenMetrics text
  export and the progress channel long workloads publish through.
* :class:`OperationHistoryRecorder` / :func:`check_history` — records a
  workload's client-visible operation history and checks it offline for
  linearizability / strict serializability (``docs/CHECKING.md``).

See ``docs/OBSERVABILITY.md`` for the event taxonomy, metric names,
trace format and the invariant catalog, and ``repro trace`` /
``repro metrics`` / ``repro check`` / ``repro postmortem`` on the CLI.
"""

from repro import _namespace

__getattr__, __dir__ = _namespace(__name__, {
    "EventBus": "bus",
    "Subscription": "bus",
    "ClockDomain": "clocks",
    "vc_leq": "clocks",
    "vc_merge": "clocks",
    "happens_before": "clocks",
    "concurrent": "clocks",
    "host_of": "clocks",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsCollector": "metrics",
    "MetricsRegistry": "metrics",
    "WindowedCounter": "metrics",
    "WindowedGauge": "metrics",
    "WindowedHistogram": "metrics",
    "CallTracer": "trace",
    "trace_calls": "trace",
    "InvariantMonitor": "monitor",
    "ExactlyOnceMonitor": "monitor",
    "TroupeDeterminismMonitor": "monitor",
    "CollationMonitor": "monitor",
    "CommitMonitor": "monitor",
    "CrashSilenceMonitor": "monitor",
    "IncarnationMonitor": "monitor",
    "DEFAULT_MONITORS": "monitor",
    "MonitorSuite": "monitor",
    "watch": "monitor",
    "FlightRecorder": "recorder",
    "render_postmortem": "recorder",
    "HISTORY_FORMAT": "history",
    "Operation": "history",
    "OperationHistory": "history",
    "OperationHistoryRecorder": "history",
    "HistoryClient": "history",
    "format_operation": "history",
    "SEMANTICS": "lincheck",
    "CheckResult": "lincheck",
    "HistoryOracle": "lincheck",
    "check_history": "lincheck",
    "CritPathAnalyzer": "critpath",
    "CallPath": "critpath",
    "STAGES": "critpath",
    "openmetrics": "export",
    "SCHEMA_VERSION": "export",
    "ProgressChannel": "export",
    "PROGRESS": "export",
    "TopModel": "top",
    "render_frame": "top",
    "live_top": "top",
    **{module: module for module in (
        "bus", "clocks", "critpath", "events", "export", "history",
        "lincheck", "metrics", "monitor", "recorder", "top", "trace")},
})

__all__ = [
    "events",
    "EventBus",
    "Subscription",
    "ClockDomain",
    "vc_leq",
    "vc_merge",
    "happens_before",
    "concurrent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsCollector",
    "MetricsRegistry",
    "CallTracer",
    "trace_calls",
    "InvariantMonitor",
    "ExactlyOnceMonitor",
    "TroupeDeterminismMonitor",
    "CollationMonitor",
    "CommitMonitor",
    "CrashSilenceMonitor",
    "IncarnationMonitor",
    "DEFAULT_MONITORS",
    "MonitorSuite",
    "watch",
    "FlightRecorder",
    "render_postmortem",
    "HISTORY_FORMAT",
    "Operation",
    "OperationHistory",
    "OperationHistoryRecorder",
    "HistoryClient",
    "format_operation",
    "SEMANTICS",
    "CheckResult",
    "HistoryOracle",
    "check_history",
    "host_of",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "CritPathAnalyzer",
    "CallPath",
    "STAGES",
    "openmetrics",
    "SCHEMA_VERSION",
    "ProgressChannel",
    "PROGRESS",
    "TopModel",
    "render_frame",
    "live_top",
]
