"""Deadlock detection: cycles in the waits-for relation (§2.3.1).

"A cycle in the waits-for relation is called a deadlock; the transactions
involved will wait forever. ... To break a deadlock once it has been
detected, any transaction in the cycle may be aborted and restarted."

The detector runs periodically (local detection suffices for a single
troupe member; cross-member deadlocks introduced by the troupe commit
protocol are broken by the commit timeout, §5.3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.obs import events as obs_events
from repro.sim.kernel import Simulator, Sleep


def find_cycle(graph: Dict[Any, Set[Any]]) -> Optional[List[Any]]:
    """A cycle in a directed graph, or None.

    Returns the cycle as a list of nodes (each waits for the next, and the
    last waits for the first).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    # Nodes that appear only as targets.
    for targets in graph.values():
        for node in targets:
            color.setdefault(node, WHITE)

    path: List[Any] = []

    def visit(node) -> Optional[List[Any]]:
        color[node] = GREY
        path.append(node)
        for succ in sorted(graph.get(node, set()), key=repr):
            if color[succ] == GREY:
                return path[path.index(succ):]
            if color[succ] == WHITE:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        color[node] = BLACK
        path.pop()
        return None

    for node in sorted(color, key=repr):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


class DeadlockDetector:
    """Periodically scans a waits-for graph and aborts a victim.

    ``graph_fn`` produces the current waits-for relation; ``abort_fn`` is
    called with the chosen victim.  The victim is the youngest transaction
    in the cycle (by the ``age_fn`` key, default: the transaction object's
    repr — deterministic, if arbitrary).
    """

    def __init__(self, sim: Simulator,
                 graph_fn: Callable[[], Dict[Any, Set[Any]]],
                 abort_fn: Callable[[Any], None],
                 interval: float = 50.0,
                 age_fn: Optional[Callable[[Any], Any]] = None):
        self.sim = sim
        self.graph_fn = graph_fn
        self.abort_fn = abort_fn
        self.interval = interval
        self.age_fn = age_fn or repr
        self.deadlocks_broken = 0
        self._proc = None
        self._armed = False
        self._stopped = False

    def start(self) -> None:
        """Periodic mode: scan every ``interval`` ms forever."""
        if self._proc is None:
            self._proc = self.sim.spawn(self._loop(), name="deadlock-detector",
                                        daemon=True)

    def attach(self, lock_table) -> None:
        """Event-driven mode: arm a one-shot scan whenever a transaction
        blocks, re-arming while waiters remain.  Unlike :meth:`start`,
        this schedules nothing while the system is idle, so simulations
        can drain their event queues."""
        lock_table.block_listeners.append(self._arm)

    def _arm(self) -> None:
        if self._armed or self._stopped:
            return
        self._armed = True
        self.sim.schedule(self.interval, self._scan)

    def _scan(self) -> None:
        self._armed = False
        if self._stopped:
            return
        self.check_once()
        if self.graph_fn():
            self._arm()  # waiters remain: keep scanning

    def stop(self) -> None:
        self._stopped = True
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def check_once(self) -> Optional[Any]:
        """One detection pass; returns the aborted victim, if any."""
        cycle = find_cycle(self.graph_fn())
        if cycle is None:
            return None
        victim = max(cycle, key=self.age_fn)
        self.deadlocks_broken += 1
        if "txn.deadlock" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.DeadlockDetected(
                t=self.sim.now, cycle=tuple(str(n) for n in cycle),
                victim=str(victim)))
        self.abort_fn(victim)
        return victim

    def _loop(self):
        while True:
            yield Sleep(self.interval)
            self.check_once()
