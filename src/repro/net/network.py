"""The simulated wire.

Models the paper's network assumptions (§2.2): packets may be lost,
delayed, or duplicated; garbled packets are already converted to lost
packets by checksums, so garbling is folded into the loss probability.
Broadcast/multicast is supported but per-recipient delivery remains
independently unreliable, exactly as §2.2 specifies ("the reliability of
delivery may vary from recipient to recipient").

Network partitions (§4.3.5) are modeled by assigning hosts to groups;
packets cross group boundaries only when no partition is installed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.addresses import (
    BROADCAST_HOST,
    HostAddress,
    ProcessAddress,
    validate_port,
)
from repro.obs import events as obs_events
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStream


@dataclasses.dataclass
class NetworkConfig:
    """Wire characteristics.

    Times are milliseconds; bandwidth is bytes per millisecond.  The
    defaults approximate the paper's lightly loaded 10 Mb/s Ethernet:
    10 Mb/s = 1250 bytes/ms, sub-millisecond propagation.
    """

    latency: float = 0.2           # propagation delay per packet (ms)
    jitter: float = 0.05           # uniform extra delay in [0, jitter) (ms)
    bandwidth: float = 1250.0      # bytes per ms (10 Mb/s)
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    header_bytes: int = 64         # link + IP + UDP framing overhead
    mtu: int = 1500                # maximum transmission unit (§4.2.4)

    def min_transit(self) -> float:
        """The transit floor: the least time any datagram spends on the
        wire (zero payload bytes, no jitter).  Every :meth:`transit_time`
        is at least this — float division and addition are monotone — and
        it is the sharded simulator's lookahead."""
        return self.latency + self.header_bytes / self.bandwidth

    def transit_time(self, size: int, draw: float) -> float:
        # ``draw`` (a random() double, 0.0 when there is no jitter: the
        # sender draws none) places the jitter as random.uniform(0,
        # jitter) would.  Not ``min_transit() + size / bandwidth``:
        # re-associating the sum moves 434 of 1,501 sizes by an ulp.
        return self.latency + (size + self.header_bytes) / self.bandwidth \
            + self.jitter * draw


@dataclasses.dataclass(slots=True)
class Datagram:
    """A packet in flight: source, destination, and uninterpreted payload."""

    src: ProcessAddress
    dst: ProcessAddress
    #: delivered by reference end-to-end: the network never copies or
    #: mutates a payload, so one wire buffer serves retransmissions,
    #: duplicates, multicast fan-out, and the receiver's zero-copy
    #: decode (``seg.decode`` slices it with a memoryview).
    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:
        return "<Datagram %s -> %s (%d bytes)>" % (self.src, self.dst, self.size)


class Host:
    """A network attachment point: up/down state and bound ports."""

    def __init__(self, network: "Network", name: HostAddress):
        self.network = network
        self.name = name
        self.up = True
        # port -> handler(datagram)
        self.ports: Dict[int, Callable[[Datagram], None]] = {}
        self._next_ephemeral = 1024

    def __repr__(self) -> str:
        return "<Host %s (%s)>" % (self.name, "up" if self.up else "down")

    def allocate_port(self) -> int:
        """Pick an unused ephemeral port (the UDP implementation's job,
        per §4.2.1: 'the assignment of port numbers to processes is left
        to the UDP implementation')."""
        while self._next_ephemeral in self.ports:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port


@dataclasses.dataclass
class LinkFault:
    """A temporary degradation of one link (or of the whole wire).

    ``src``/``dst`` restrict the fault to packets between two hosts
    (``None`` matches any host), so a fault schedule can degrade a single
    direction of a single link while the rest of the network stays
    healthy.  Installed and removed through :meth:`Network.add_fault` /
    :meth:`Network.remove_fault` — typically by a
    :class:`repro.explore.driver.ScheduleDriver` opening and closing
    loss/duplication/delay/reordering windows.
    """

    loss: float = 0.0            # extra drop probability on matching packets
    duplicate: float = 0.0       # extra duplication probability
    extra_delay: float = 0.0     # fixed extra latency (ms)
    reorder: float = 0.0         # probability a packet is held back ...
    reorder_hold: float = 5.0    # ... for uniform(0, reorder_hold) extra ms
    src: Optional[HostAddress] = None   # None = any source host
    dst: Optional[HostAddress] = None   # None = any destination host

    def matches(self, src: HostAddress, dst: HostAddress) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


class Network:
    """The shared medium connecting all hosts."""

    def __init__(self, sim: Simulator, seed: int = 0,
                 config: Optional[NetworkConfig] = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.rng = RandomStream(seed, "network")
        self.hosts: Dict[HostAddress, Host] = {}
        self._partition_of: Dict[HostAddress, int] = {}
        self.partitioned = False
        self._faults: List[LinkFault] = []
        # Statistics: observable without instrumenting protocols.
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.bytes_sent = 0
        self.multicasts_sent = 0
        #: the bus's site counts of deliveries and duplications.
        self._delivered = sim.bus.counts["net.deliver"]
        self._duplicated = sim.bus.counts["net.dup"]

    # -- topology ----------------------------------------------------------

    def add_host(self, name: HostAddress) -> Host:
        if name in self.hosts:
            raise ValueError("duplicate host name: %r" % name)
        if name == BROADCAST_HOST:
            raise ValueError("host name %r is reserved for broadcast" % name)
        host = Host(self, name)
        self.hosts[name] = host
        return host

    def host(self, name: HostAddress) -> Host:
        return self.hosts[name]

    def set_host_up(self, name: HostAddress, up: bool) -> None:
        self.hosts[name].up = up

    def partition(self, groups: Iterable[Iterable[HostAddress]]) -> None:
        """Split the network: hosts communicate only within their group.

        Hosts not named in any group form an implicit final group.
        """
        self._partition_of = {}
        for index, group in enumerate(groups):
            for name in group:
                if name not in self.hosts:
                    raise ValueError("unknown host in partition: %r" % name)
                self._partition_of[name] = index
        leftover = [n for n in self.hosts if n not in self._partition_of]
        for name in leftover:
            self._partition_of[name] = -1
        self.partitioned = True

    def heal(self) -> None:
        """Remove any partition."""
        self._partition_of = {}
        self.partitioned = False

    def reachable(self, src: HostAddress, dst: HostAddress) -> bool:
        if not self.partitioned:
            return True
        return self._partition_of.get(src) == self._partition_of.get(dst)

    # -- link faults -------------------------------------------------------

    def add_fault(self, fault: LinkFault) -> LinkFault:
        """Install a :class:`LinkFault`; returns it (the removal handle)."""
        self._faults.append(fault)
        return fault

    def remove_fault(self, fault: LinkFault) -> None:
        if fault in self._faults:
            self._faults.remove(fault)

    # -- ports -------------------------------------------------------------

    def bind(self, addr: ProcessAddress,
             handler: Callable[[Datagram], None]) -> None:
        validate_port(addr.port)
        host = self.hosts[addr.host]
        if addr.port in host.ports:
            raise ValueError("port already bound: %s" % (addr,))
        host.ports[addr.port] = handler

    def unbind(self, addr: ProcessAddress) -> None:
        host = self.hosts.get(addr.host)
        if host is not None:
            host.ports.pop(addr.port, None)

    # -- transmission ------------------------------------------------------

    def send(self, datagram: Datagram) -> None:
        """Transmit one datagram (unreliably)."""
        self.packets_sent += 1
        self.bytes_sent += datagram.size
        self._transmit(datagram)

    def multicast(self, src: ProcessAddress,
                  destinations: List[ProcessAddress],
                  payload: bytes) -> None:
        """One hardware multicast: a single wire transmission delivered to
        every destination, each with its own independent loss/delay.

        §4.3.3: with multicast, a call to an n-member troupe costs one send
        instead of n — the basis of the §4.4.2 logarithmic analysis.
        """
        self.multicasts_sent += 1
        self.packets_sent += 1
        self.bytes_sent += len(payload)
        for dst in destinations:
            self._transmit(Datagram(src, dst, payload))

    def broadcast(self, src: ProcessAddress, port: int, payload: bytes) -> None:
        """Deliver to the given port on every up host (Ethernet broadcast)."""
        self.multicasts_sent += 1
        self.packets_sent += 1
        self.bytes_sent += len(payload)
        for name in self.hosts:
            if name != src.host:
                self._transmit(Datagram(src, ProcessAddress(name, port), payload))

    def _transmit(self, datagram: Datagram) -> None:
        bus = self.sim.bus
        if "net.send" in bus.wanted:
            bus.emit(obs_events.PacketSent(
                t=self.sim.now, src=datagram.src, dst=datagram.dst,
                payload=datagram.payload))
        src_host = self.hosts.get(datagram.src.host)
        dst_host = self.hosts.get(datagram.dst.host)
        if src_host is None or dst_host is None:
            self._drop(datagram, "no-host")
            return
        if not src_host.up:
            # A crashed machine sends nothing.
            self._drop(datagram, "host-down")
            return
        if not self.reachable(datagram.src.host, datagram.dst.host):
            self._drop(datagram, "partition")
            return
        link = self._link(datagram.src.host, datagram.dst.host)
        if self._chance(link, self.config.loss_probability):
            self._drop(datagram, "loss")
            return
        copies = 1
        if self._chance(link, self.config.duplicate_probability):
            copies = 2
            self.packets_duplicated += 1
            self._duplicated[()] += 1
            if "net.dup" in bus.wanted:
                bus.emit(obs_events.PacketDuplicated(
                    t=self.sim.now, src=datagram.src, dst=datagram.dst))
        # Link-fault windows.  When no faults are installed this loop makes
        # no rng draws, so installing-then-removing faults elsewhere never
        # perturbs an unfaulted run's random sequence.
        extra_delay = 0.0
        for fault in self._faults:
            if not fault.matches(datagram.src.host, datagram.dst.host):
                continue
            if fault.loss and self._chance(link, fault.loss):
                self._drop(datagram, "fault-loss")
                return
            if copies == 1 and fault.duplicate \
                    and self._chance(link, fault.duplicate):
                copies = 2
                self.packets_duplicated += 1
                self._duplicated[()] += 1
                if "net.dup" in bus.wanted:
                    bus.emit(obs_events.PacketDuplicated(
                        t=self.sim.now, src=datagram.src, dst=datagram.dst))
            extra_delay += fault.extra_delay
            if fault.reorder and self._chance(link, fault.reorder):
                extra_delay += fault.reorder_hold * self._random(link)
        for _ in range(copies):
            self._carry(datagram, extra_delay + self.config.transit_time(
                datagram.size,
                self._random(link) if self.config.jitter > 0.0 else 0.0))

    def _link(self, src: HostAddress, dst: HostAddress) -> int:
        """The link every draw for a ``src -> dst`` datagram is taken on,
        ``_random(link)``: one stream here; ``ShardNetwork`` numbers each."""
        return 0

    def _random(self, link: int) -> float:
        return self.rng.random()

    def _chance(self, link: int, probability: float) -> bool:
        """``RandomStream.chance``: the extremes draw nothing."""
        if probability <= 0.0 or probability >= 1.0:
            return probability >= 1.0
        return self._random(link) < probability

    def _carry(self, datagram: Datagram, delay: float) -> None:
        """The datagram survived the wire and arrives after ``delay``."""
        self.sim.call_at(self.sim.now + delay, self._deliver, datagram)

    def _drop(self, datagram: Datagram, reason: str) -> None:
        self.packets_dropped += 1
        if "net.drop" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.PacketDropped(
                t=self.sim.now, src=datagram.src, dst=datagram.dst,
                reason=reason))

    def _deliver(self, datagram: Datagram) -> None:
        dst_host = self.hosts.get(datagram.dst.host)
        if dst_host is None or not dst_host.up:
            # The destination crashed while the packet was in flight.
            self._drop(datagram, "dst-down")
            return
        if self.partitioned and not self.reachable(
                datagram.src.host, datagram.dst.host):
            # The partition appeared while the packet was in flight.
            self._drop(datagram, "partition-in-flight")
            return
        handler = dst_host.ports.get(datagram.dst.port)
        if handler is None:
            # No process bound to the port: silently discarded, as UDP does.
            self._drop(datagram, "no-port")
            return
        self.packets_delivered += 1
        self._delivered[()] += 1
        if "net.deliver" in self.sim.bus.wanted:
            self.sim.bus.emit(obs_events.PacketDelivered(
                t=self.sim.now, src=datagram.src, dst=datagram.dst,
                size=datagram.size))
        handler(datagram)
