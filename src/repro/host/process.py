"""Operating-system processes with CPU accounting.

An :class:`OsProcess` is the unit the paper's measurements observe: the
client process whose per-call real time and user/kernel CPU time appear in
Table 4.1.  It provides:

- *threads*: simulated control flow (the kernel's generator processes)
  registered with the process so that a machine crash kills them;
- *syscall wrappers* (``sendmsg``, ``recvmsg``, ``select``, ...) that
  charge the calibrated kernel-CPU cost, advance the simulated clock, and
  record per-syscall totals for the Table 4.3 execution profile;
- ``compute(ms)`` for user-mode CPU.

Because a syscall occupies the CPU, repeated ``sendmsg`` calls to simulate
a multicast serialize — which is precisely why the paper's Figure 4.8 grows
linearly with troupe size.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.host.machine import Machine, MachineCrashed
from repro.net.addresses import ProcessAddress
from repro.net.udp import UdpSocket
from repro.sim.kernel import AnyOf, Process, Simulator, Sleep


class OsProcess:
    """A process on a simulated machine."""

    __slots__ = ("machine", "sim", "pid", "name", "alive", "user_time",
                 "kernel_time", "syscall_times", "syscall_counts",
                 "_threads", "_spawned", "_sockets")

    def __init__(self, machine: Machine, pid: int, name: str):
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.pid = pid
        self.name = name
        self.alive = True
        self.user_time = 0.0
        self.kernel_time = 0.0
        #: per-syscall accumulated kernel CPU (ms) — the execution profile.
        self.syscall_times: Dict[str, float] = {}
        self.syscall_counts: Dict[str, int] = {}
        #: live threads, in spawn order; a thread leaves when it exits
        #: (``Process.group``), so the table does not grow with run length.
        self._threads: Dict[Process, None] = {}
        #: threads ever spawned — default names count these, not the table.
        self._spawned = 0
        self._sockets: List[UdpSocket] = []

    def __repr__(self) -> str:
        return "<OsProcess %s/%s pid=%d>" % (self.machine.name, self.name, self.pid)

    @property
    def host(self) -> str:
        return self.machine.name

    # -- threads ---------------------------------------------------------

    def spawn(self, gen: Generator, name: Optional[str] = None,
              daemon: bool = False) -> Process:
        """Start a thread of control inside this process."""
        self._require_alive()
        full_name = "%s/%s/%s" % (self.machine.name, self.name,
                                  name or "thread%d" % self._spawned)
        self._spawned += 1
        thread = self.sim.spawn(gen, name=full_name, daemon=daemon)
        thread.group = self._threads
        self._threads[thread] = None
        return thread

    def exit(self) -> None:
        """Voluntary termination."""
        self._terminate(crashed=False)
        self.machine._process_exited(self)

    def _terminate(self, crashed: bool) -> None:
        if not self.alive:
            return
        self.alive = False
        for thread in list(self._threads):
            thread.kill(MachineCrashed("%s crashed" % self.machine.name)
                        if crashed else None)
        self._threads = {}
        for sock in self._sockets:
            sock.close()
        self._sockets = []

    # -- CPU accounting ----------------------------------------------------

    def charge(self, name: str) -> Sleep:
        """Account one system call — its kernel CPU cost, charged in full
        as it starts — and return the ``Sleep`` that advances the clock
        by the same amount: ``yield proc.charge('sendmsg')``.  A caller
        fusing back-to-back syscalls into one wake-up reads each cost off
        the returned ``Sleep.delay``.
        """
        self._require_alive()
        model = self.machine.cost_model
        try:
            cost, sleep = model.charges[name]
        except KeyError:
            model.cost(name)   # raises: no calibrated cost
            raise
        self.kernel_time += cost
        times = self.syscall_times
        times[name] = times.get(name, 0.0) + cost
        counts = self.syscall_counts
        counts[name] = counts.get(name, 0) + 1
        return sleep

    def compute(self, ms: float):
        """Generator: user-mode computation for ``ms`` milliseconds."""
        self._require_alive()
        if ms < 0:
            raise ValueError("negative compute time: %r" % ms)
        self.user_time += ms
        yield Sleep(ms)

    # -- sockets and syscall wrappers ---------------------------------------

    def udp_socket(self, port: Optional[int] = None) -> UdpSocket:
        self._require_alive()
        sock = UdpSocket(self.machine.network, self.machine.name, port)
        self._sockets.append(sock)
        return sock

    def sendmsg(self, sock: UdpSocket, payload: bytes,
                dst: ProcessAddress):
        """Generator: charge a sendmsg, then transmit the datagram."""
        yield self.charge("sendmsg")
        sock.sendto(payload, dst)

    def sendmsg_multicast(self, sock: UdpSocket, payload: bytes,
                          destinations):
        """Generator: one hardware multicast costs one sendmsg (§4.3.3)."""
        yield self.charge("sendmsg")
        sock.multicast(payload, destinations)

    def recvmsg(self, sock: UdpSocket):
        """Generator: the next datagram.

        The recvmsg kernel cost is charged when data is actually copied
        out, matching how CPU time is attributed by getrusage.
        """
        self._require_alive()
        datagram = yield sock.recv()
        yield self.charge("recvmsg")
        return datagram

    def select(self, socks: List[UdpSocket],
               timeout: Optional[float] = None):
        """Generator: wait until one of the sockets is readable.

        Returns the list of readable sockets ([] on timeout).  Charges one
        select syscall, as the Circus event loop does.
        """
        yield self.charge("select")
        ready = [s for s in socks if s.pending() > 0]
        if ready:
            return ready
        waits = [s.recv() for s in socks]
        if timeout is not None:
            index, value = yield AnyOf(AnyOf(*waits), Sleep(timeout))
            if index == 1:
                return []
            inner_index, datagram = value
        else:
            inner_index, datagram = yield AnyOf(*waits)
        # select does not consume data; push the datagram back at the head.
        sock = socks[inner_index]
        sock._incoming.push_front(datagram)
        return [sock]

    def sigblock(self):
        """Generator: enter a critical region (mask software interrupts)."""
        yield self.charge("sigblock")

    def sigsetmask(self):
        """Generator: leave a critical region."""
        yield self.charge("sigsetmask")

    def _require_alive(self) -> None:
        if not self.alive:
            raise MachineCrashed(
                "process %s on %s is dead" % (self.name, self.machine.name))
