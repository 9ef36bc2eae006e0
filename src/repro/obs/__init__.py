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

from repro.obs import events
from repro.obs.bus import EventBus, Subscription
from repro.obs.clocks import (ClockDomain, concurrent, happens_before,
                              host_of, vc_leq, vc_merge)
from repro.obs.critpath import STAGES, CallPath, CritPathAnalyzer
from repro.obs.export import (PROGRESS, SCHEMA_VERSION, ProgressChannel,
                              openmetrics)
from repro.obs.history import (HISTORY_FORMAT, HistoryClient, Operation,
                               OperationHistory, OperationHistoryRecorder,
                               format_operation)
from repro.obs.lincheck import (SEMANTICS, CheckResult, HistoryOracle,
                                check_history)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsCollector,
                               MetricsRegistry, WindowedCounter,
                               WindowedGauge, WindowedHistogram)
from repro.obs.monitor import (DEFAULT_MONITORS, CollationMonitor,
                               CommitMonitor, CrashSilenceMonitor,
                               ExactlyOnceMonitor, IncarnationMonitor,
                               InvariantMonitor, MonitorSuite,
                               TroupeDeterminismMonitor, watch)
from repro.obs.recorder import FlightRecorder, render_postmortem
from repro.obs.top import TopModel, live_top, render_frame
from repro.obs.trace import CallTracer, trace_calls

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
