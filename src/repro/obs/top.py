"""``repro top``: a live view of a running simulated world.

The model/view split keeps this testable: :class:`TopModel` samples the
attached collectors (metrics registry, critical-path analyzer, the
shared :class:`~repro.obs.export.ProgressChannel`) into a plain dict,
and :func:`render_frame` turns one sample into a text frame.
:func:`live_top` owns the drive loop — it steps the simulation in
virtual-time slices and renders a frame between slices, so the "live"
view is exact: nothing is sampled mid-callback, and the observed run
stays byte-identical in virtual time (collectors are ordinary bus
subscribers).

Renderers: plain mode re-prints the frame (CI- and pipe-friendly);
curses mode repaints in place when a real terminal is available.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.critpath import CritPathAnalyzer
from repro.obs.export import PROGRESS, ProgressChannel
from repro.obs.metrics import MetricsCollector, MetricsRegistry

#: Buckets of history used for the "recent" rate columns.
RATE_WINDOW_BUCKETS = 20


class TopModel:
    """Samples collectors into one deterministic frame dict."""

    def __init__(self, sim,
                 registry: MetricsRegistry,
                 critpath: Optional[CritPathAnalyzer] = None,
                 progress: Optional[ProgressChannel] = None):
        self.sim = sim
        self.registry = registry
        self.critpath = critpath
        self.progress = progress if progress is not None else PROGRESS

    def sample(self) -> Dict[str, Any]:
        reg = self.registry
        troupes: Dict[str, Dict[str, Any]] = {}
        for labelset, series in reg.labeled("rpc.calls_completed"):
            labels = dict(labelset)
            row = troupes.setdefault(labels.get("troupe", "?"), {
                "done": 0, "rate": 0.0, "errors": 0})
            row["done"] += series.value
            row["rate"] += series.rate_per_sec(RATE_WINDOW_BUCKETS)
            if labels.get("outcome", "ok") != "ok":
                row["errors"] += series.value
        sample: Dict[str, Any] = {
            "now": self.sim.now,
            "pending": self.sim.pending_events(),
            "open_calls": reg.value("rpc.open_calls"),
            "troupes": {name: troupes[name] for name in sorted(troupes)},
            "violations": reg.total("mon.violations"),
            "rates": {
                name: sum(s.rate_per_sec(RATE_WINDOW_BUCKETS)
                          for _, s in reg.labeled(name))
                for name in ("net.packets_sent", "net.packets_dropped",
                             "pm.retransmits")},
            "progress": self.progress.snapshot(),
        }
        if self.critpath is not None:
            report = self.critpath.report()
            sample["critpath"] = {
                "calls": report["calls"],
                "attributed_pct": report["attributed_pct"],
                "stages": {name: row["share_pct"]
                           for name, row in report["stages"].items()},
                "dominant": report["dominant"],
            }
        return sample


def _bar(pct: float, width: int = 24) -> str:
    filled = int(round(pct / 100.0 * width))
    return "#" * filled + "." * (width - filled)


def render_frame(sample: Dict[str, Any], width: int = 80) -> str:
    """One text frame from a :meth:`TopModel.sample` dict."""
    lines: List[str] = []
    lines.append("repro top — t=%.1f ms virtual   pending=%d   "
                 "open calls=%d" % (sample["now"], sample["pending"],
                                    sample["open_calls"]))
    violations = sample["violations"]
    lines.append("monitors: %s" % (
        "OK (0 violations)" if not violations
        else "*** %d VIOLATION(S) ***" % violations))
    rates = sample["rates"]
    lines.append("wire: %.0f pkt/s sent   %.0f/s dropped   "
                 "%.0f/s retransmitted" % (
                     rates.get("net.packets_sent", 0.0),
                     rates.get("net.packets_dropped", 0.0),
                     rates.get("pm.retransmits", 0.0)))
    lines.append("")
    lines.append("%-20s %10s %12s %8s" % ("troupe", "calls", "calls/s",
                                          "errors"))
    for name, row in sample["troupes"].items():
        lines.append("%-20s %10d %12.1f %8d" % (
            name, row["done"], row["rate"], row["errors"]))
    if not sample["troupes"]:
        lines.append("  (no completed calls yet)")
    critpath = sample.get("critpath")
    if critpath:
        lines.append("")
        lines.append("critical path (%d calls, %.1f%% attributed):"
                     % (critpath["calls"], critpath["attributed_pct"]))
        for stage, share in critpath["stages"].items():
            lines.append("  %-18s %6.2f%% %s" % (stage, share,
                                                 _bar(share)))
    progress = sample.get("progress")
    if progress:
        lines.append("")
        lines.append("tasks:")
        for task, row in progress.items():
            done, total = row.get("done"), row.get("total")
            if isinstance(done, int) and isinstance(total, int) and total:
                pct = 100.0 * done / total
                detail = "%d/%d (%.0f%%)" % (done, total, pct)
            else:
                detail = ", ".join(
                    "%s=%s" % (k, v) for k, v in sorted(row.items())
                    if k != "seq")
            lines.append("  %-24s %s" % (task, detail))
    return "\n".join(line[:width] for line in lines)


def live_top(world, body, slice_ms: float = 50.0,
             max_frames: Optional[int] = None,
             render: Optional[Callable[[str], None]] = None,
             use_curses: bool = False,
             progress: Optional[ProgressChannel] = None) -> Dict[str, Any]:
    """Drive ``body`` (a generator) on ``world`` in ``slice_ms`` slices,
    rendering a frame after each slice; returns the final sample.

    ``render`` receives each finished text frame (default: print with a
    separator).  ``use_curses`` repaints in place instead when stdout is
    a terminal; it degrades to plain mode otherwise.
    """
    with MetricsCollector(world.sim.bus) as metrics, \
            CritPathAnalyzer(world.sim) as critpath:
        model = TopModel(world.sim, metrics.registry, critpath,
                         progress=progress)
        if use_curses and _curses_usable():
            return _curses_loop(world, body, model, slice_ms, max_frames)
        return _plain_loop(world, body, model, slice_ms, max_frames,
                           render)


def _curses_usable() -> bool:
    """True iff curses can actually take over this terminal — checked
    *before* driving anything, so a failed takeover can still fall back
    to plain mode without double-running the workload."""
    import sys
    try:
        import curses  # noqa: F401
    except ImportError:
        return False
    return bool(getattr(sys.stdout, "isatty", lambda: False)())


def _step(world, proc, slice_ms: float) -> bool:
    """One slice; True while the driven process is still alive."""
    world.sim.run(until=world.sim.now + slice_ms)
    return proc.alive and world.sim.pending_events() > 0


def _drive(world, body, model, slice_ms, max_frames, emit) -> Dict[str, Any]:
    proc = world.spawn(body, name="top-body")
    proc.observed = True
    frames = 0
    running = True
    while running:
        running = _step(world, proc, slice_ms)
        frames += 1
        sample = model.sample()
        emit(render_frame(sample))
        if max_frames is not None and frames >= max_frames:
            break
    if proc.exception is not None:
        raise proc.exception
    return model.sample()


def _plain_loop(world, body, model, slice_ms, max_frames,
                render) -> Dict[str, Any]:
    if render is None:
        def render(frame: str) -> None:
            print(frame)
            print("-" * 8)
    return _drive(world, body, model, slice_ms, max_frames, render)


def _curses_loop(world, body, model, slice_ms, max_frames) -> Dict[str, Any]:
    import curses

    holder: Dict[str, Any] = {}

    def main(screen) -> None:
        curses.use_default_colors()
        screen.nodelay(True)

        def emit(frame: str) -> None:
            screen.erase()
            height, width = screen.getmaxyx()
            for y, line in enumerate(frame.splitlines()):
                if y >= height - 1:
                    break
                screen.addnstr(y, 0, line, width - 1)
            screen.refresh()
            if screen.getch() in (ord("q"), 27):
                raise KeyboardInterrupt

        holder["final"] = _drive(world, body, model, slice_ms, max_frames,
                                 emit)

    curses.wrapper(main)
    return holder["final"]
