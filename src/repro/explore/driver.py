"""The schedule driver: inject a :class:`FaultSchedule` into a world.

:class:`ScheduleDriver` extends :class:`repro.host.failures.FailureModel`
— it reuses the model's crash/repair bookkeeping (failure totals,
down-counts, the all-down unavailability integral) but replaces the
exponential draws with the schedule's explicit timeline, walked by a
single ``fault-schedule`` daemon process.  Network actions go through the
:class:`repro.net.network.Network` hooks: ``partition``/``heal`` for
partition windows, :class:`~repro.net.network.LinkFault` install/remove
for loss, duplication, delay, and reordering windows.

Overlapping partition windows nest: the most recently opened window's
grouping is in force; closing it re-installs the next one down (or heals
the network when none remain).

Reconfiguration-aware actions (:class:`CrashDuringTransfer`,
:class:`PartitionDuringJoin`) are *armed* at their ``at`` time and fire
on the next matching membership bus event — ``bind.get_state`` (a member
externalizing state for a joiner) and ``bind.member`` with ``op="add"``
respectively.  Bus handlers run synchronously inside the emitting
process, so the driver never crashes a machine from inside the handler;
it spawns an immediate helper process that performs the crash (and the
later repair / heal) at the same virtual instant.  Whether each armed
action *fired* or *expired* is recorded in the applied-op log, which
feeds the run digest — so two replays of a seed agree not only on the
schedule but on which armed faults actually landed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.explore.schedule import (
    Crash,
    CrashDuringTransfer,
    Delay,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    PartitionDuringJoin,
    Reorder,
)
from repro.host.failures import FailureModel
from repro.host.machine import Machine
from repro.net.network import LinkFault, Network
from repro.sim.kernel import Simulator, Sleep


class ScheduleDriver(FailureModel):
    """Drives a deterministic fault schedule instead of Poisson faults."""

    def __init__(self, sim: Simulator, machines: List[Machine],
                 network: Network, schedule: FaultSchedule,
                 on_repair: Optional[Callable[[Machine], None]] = None):
        super().__init__(sim, machines, failure_rate=1.0, repair_rate=1.0,
                         seed=schedule.seed, on_repair=on_repair)
        self.network = network
        self.schedule = schedule
        self._machine_by_name = {m.name: m for m in machines}
        #: applied-op log: (virtual time, description) — deterministic,
        #: handy for digests and post-mortems.
        self.applied: List[Tuple[float, str]] = []
        self._installed_faults: List[LinkFault] = []
        self._active_partitions: List[Tuple[Tuple[str, ...], ...]] = []
        #: armed reconfiguration-aware actions, in schedule order.  Each
        #: entry is a dict: {"action", "armed", "fired"} — armed flips at
        #: ``at``, fired when the matching bus event lands.
        self._armed: List[dict] = [
            {"action": a, "armed": False, "fired": False}
            for a in schedule.actions
            if isinstance(a, (CrashDuringTransfer, PartitionDuringJoin))]
        self._bus_sub = None
        unknown = [name for name in schedule.machines()
                   if name not in self._machine_by_name]
        if unknown:
            raise ValueError(
                "schedule references unknown machines: %s" % unknown)

    # FailureModel.start() stamps _started_at and calls this hook.
    def _spawn_drivers(self) -> None:
        ops = self._build_ops()
        proc = self.sim.spawn(self._walk(ops), name="fault-schedule",
                              daemon=True)
        self._processes.append(proc)
        if self._armed and self._bus_sub is None:
            self._bus_sub = self.sim.bus.subscribe(
                self._on_bind_event, kinds=("bind.get_state", "bind.member"))

    def stop(self) -> None:
        """Stop walking and roll back any still-open fault windows."""
        super().stop()
        if self._bus_sub is not None:
            self.sim.bus.unsubscribe(self._bus_sub)
            self._bus_sub = None
        for fault in self._installed_faults:
            self.network.remove_fault(fault)
        self._installed_faults = []
        if self._active_partitions:
            self._active_partitions = []
            self.network.heal()

    # -- the op timeline ------------------------------------------------

    def _build_ops(self):
        """Expand windowed actions into (time, seq, fn, desc) begin/end
        ops, sorted by time (seq breaks ties deterministically)."""
        ops = []
        seq = 0

        def add(at: float, fn: Callable[[], None], desc: str) -> None:
            nonlocal seq
            ops.append((at, seq, fn, desc))
            seq += 1

        for action in self.schedule.actions:
            if isinstance(action, Crash):
                machine = self._machine_by_name[action.machine]
                add(action.at, lambda m=machine: self._crash_machine(m),
                    "crash %s" % action.machine)
                if action.duration is not None:
                    add(action.at + action.duration,
                        lambda m=machine: self._repair_machine(m),
                        "repair %s" % action.machine)
            elif isinstance(action, Partition):
                add(action.at,
                    lambda a=action: self._open_partition(a.groups),
                    "partition %s" % (action.groups,))
                add(action.at + action.duration,
                    lambda a=action: self._close_partition(a.groups),
                    "heal %s" % (action.groups,))
            elif isinstance(action, (CrashDuringTransfer,
                                     PartitionDuringJoin)):
                entry = next(e for e in self._armed if e["action"] is action)
                add(action.at, lambda e=entry: self._arm(e),
                    "arm %s" % action.describe())
                # Logs itself only when the trigger never came.
                add(action.at + action.expiry,
                    lambda e=entry: self._expire(e), None)
            else:
                fault = self._link_fault(action)
                add(action.at, lambda f=fault: self._install_fault(f),
                    "install %s" % action.describe())
                add(action.at + action.duration,
                    lambda f=fault: self._uninstall_fault(f),
                    "remove %s" % action.describe())
        ops.sort(key=lambda op: (op[0], op[1]))
        return ops

    @staticmethod
    def _link_fault(action) -> LinkFault:
        if isinstance(action, Loss):
            return LinkFault(loss=action.probability,
                             src=action.src, dst=action.dst)
        if isinstance(action, Duplicate):
            return LinkFault(duplicate=action.probability,
                             src=action.src, dst=action.dst)
        if isinstance(action, Delay):
            return LinkFault(extra_delay=action.extra,
                             src=action.src, dst=action.dst)
        if isinstance(action, Reorder):
            return LinkFault(reorder=action.probability,
                             reorder_hold=action.hold,
                             src=action.src, dst=action.dst)
        raise TypeError("not a link-fault action: %r" % (action,))

    def _walk(self, ops):
        for at, _seq, fn, desc in ops:
            delay = at - self.sim.now
            if delay > 0:
                yield Sleep(delay)
            fn()
            if desc is not None:
                self.applied.append((self.sim.now, desc))

    # -- armed (event-aligned) actions ----------------------------------

    def _arm(self, entry: dict) -> None:
        if not entry["fired"]:
            entry["armed"] = True

    def _expire(self, entry: dict) -> None:
        if entry["armed"] and not entry["fired"]:
            entry["armed"] = False
            self.applied.append(
                (self.sim.now, "expired %s" % entry["action"].describe()))

    def _on_bind_event(self, event) -> None:
        kind = event.kind
        if kind == "bind.get_state":
            want: type = CrashDuringTransfer
        elif kind == "bind.member" and getattr(event, "op", "") == "add":
            want = PartitionDuringJoin
        else:
            return
        for entry in self._armed:
            action = entry["action"]
            if (entry["armed"] and not entry["fired"]
                    and isinstance(action, want)):
                entry["fired"] = True
                entry["armed"] = False
                self.applied.append(
                    (self.sim.now, "fired %s" % action.describe()))
                # Never mutate the world from inside a bus handler — the
                # emitting process is mid-execution.  A helper process
                # spawned *now* performs the fault at this same virtual
                # instant, once the kernel regains control.
                if isinstance(action, CrashDuringTransfer):
                    gen = self._fire_crash(
                        self._machine_by_name[action.machine],
                        action.duration)
                    name = "armed-crash:%s" % action.machine
                else:
                    gen = self._fire_join_partition(action)
                    name = "armed-partition:%s" % action.machine
                proc = self.sim.spawn(gen, name=name, daemon=True)
                self._processes.append(proc)
                break

    def _fire_crash(self, machine: Machine, duration):
        self._crash_machine(machine)
        if duration is None:
            return
        yield Sleep(duration)
        self._repair_machine(machine)
        self.applied.append(
            (self.sim.now, "repair %s (armed)" % machine.name))

    def _fire_join_partition(self, action: PartitionDuringJoin):
        others = tuple(sorted(
            name for name in self._machine_by_name if name != action.machine))
        groups = tuple(g for g in ((action.machine,), others) if g)
        self._open_partition(groups)
        yield Sleep(action.duration)
        self._close_partition(groups)
        self.applied.append(
            (self.sim.now, "heal join-partition %s" % action.machine))

    # -- op implementations ---------------------------------------------

    def _open_partition(self, groups) -> None:
        self._active_partitions.append(groups)
        self.network.partition(groups)

    def _close_partition(self, groups) -> None:
        if groups in self._active_partitions:
            self._active_partitions.remove(groups)
        if self._active_partitions:
            self.network.partition(self._active_partitions[-1])
        else:
            self.network.heal()

    def _install_fault(self, fault: LinkFault) -> None:
        self.network.add_fault(fault)
        self._installed_faults.append(fault)

    def _uninstall_fault(self, fault: LinkFault) -> None:
        self.network.remove_fault(fault)
        if fault in self._installed_faults:
            self._installed_faults.remove(fault)
