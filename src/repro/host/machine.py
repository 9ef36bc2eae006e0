"""Fail-stop machines.

Troupe members execute on fail-stop processors (§3.5.1): a machine either
works correctly or halts; it never malfunctions.  A crash kills every
process on the machine and loses all volatile state; the network stops
delivering to (and accepting from) the host.  ``restart`` brings the
machine back up empty — recovering state is the job of the reconfiguration
machinery (§6.4.1), not of the machine.

Machines carry an extensible attribute list (name/value pairs, §7.5.2)
used by the troupe configuration language.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.network import Network
from repro.sim.kernel import Simulator


class MachineCrashed(Exception):
    """Raised when an operation requires a machine that is down."""


class Machine:
    """A simulated computer: one network host plus its processes."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 attributes: Optional[Dict[str, Any]] = None,
                 cost_model=None):
        from repro.host.syscalls import SyscallCostModel

        self.sim = sim
        self.network = network
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.attributes.setdefault("name", name)
        self.cost_model = cost_model or SyscallCostModel()
        self.host = network.add_host(name)
        self.up = True
        self.processes: List = []  # live OsProcess objects
        self._next_pid = 1
        self.crash_count = 0

    def __repr__(self) -> str:
        return "<Machine %s (%s, %d procs)>" % (
            self.name, "up" if self.up else "down", len(self.processes))

    # -- process management --------------------------------------------

    def spawn_process(self, name: Optional[str] = None) -> "OsProcess":
        from repro.host.process import OsProcess

        self.require_up()
        pid = self._next_pid
        self._next_pid += 1
        if name is None:
            name = "pid%d" % pid
        proc = OsProcess(self, pid, name)
        self.processes.append(proc)
        return proc

    def _process_exited(self, proc: "OsProcess") -> None:
        if proc in self.processes:
            self.processes.remove(proc)

    # -- failure model ----------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: halt everything, lose all volatile state."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self.network.set_host_up(self.name, False)
        for proc in list(self.processes):
            proc._terminate(crashed=True)
        self.processes = []

    def restart(self) -> None:
        """Bring the machine back up, empty."""
        if self.up:
            return
        self.up = True
        self.network.set_host_up(self.name, True)

    def require_up(self) -> None:
        if not self.up:
            raise MachineCrashed("machine %s is down" % self.name)

    # -- attributes (for the configuration language, §7.5.2) ------------

    def attribute(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value
