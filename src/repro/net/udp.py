"""Unreliable datagram sockets: the UDP analogue.

A :class:`UdpSocket` binds a port on a host and exposes the two operations
any paired-message implementation needs (§4.4.1): send a datagram, and
receive a datagram with an optional timeout to detect losses.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import HostAddress, ProcessAddress, validate_port
from repro.net.network import Datagram, Network
from repro.sim.events import Queue
from repro.sim.kernel import AnyOf, Sleep


class PortInUse(Exception):
    """Raised when binding a port that already has a socket."""


class UdpSocket:
    """A datagram socket bound to one (host, port) endpoint."""

    __slots__ = ("network", "addr", "_incoming", "closed")

    def __init__(self, network: Network, host: HostAddress,
                 port: Optional[int] = None):
        self.network = network
        host_obj = network.host(host)
        if port is None:
            port = host_obj.allocate_port()
        else:
            validate_port(port)
        self.addr = ProcessAddress(host, port)
        self._incoming: Queue = Queue(network.sim, "udp:%s" % (self.addr,))
        self.closed = False
        try:
            network.bind(self.addr, self._incoming.put)
        except ValueError as exc:
            raise PortInUse(str(exc)) from exc

    def __repr__(self) -> str:
        return "<UdpSocket %s%s>" % (self.addr, " closed" if self.closed else "")

    def sendto(self, payload: bytes, dst: ProcessAddress) -> None:
        self._check_open()
        self.network.send(Datagram(self.addr, dst, payload))

    def multicast(self, payload: bytes, destinations) -> None:
        """Send one hardware multicast to several destinations (§4.3.3)."""
        self._check_open()
        self.network.multicast(self.addr, list(destinations), payload)

    def broadcast(self, payload: bytes, port: int) -> None:
        self._check_open()
        self.network.broadcast(self.addr, port, payload)

    def recv(self):
        """Waitable: resumes with the next :class:`Datagram`."""
        self._check_open()
        return self._incoming.get()

    def recv_timeout(self, timeout: float):
        """Generator: the next datagram, or ``None`` after ``timeout`` ms.

        Use as ``dgram = yield from sock.recv_timeout(50.0)``.
        """
        self._check_open()
        index, value = yield AnyOf(self._incoming.get(), Sleep(timeout))
        if index == 1:
            return None
        return value

    def recv_nowait(self) -> Optional[Datagram]:
        """The next queued datagram, or ``None`` if the queue is empty."""
        self._check_open()
        incoming = self._incoming
        return incoming.get_nowait() if incoming else None

    def pending(self) -> int:
        return len(self._incoming)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.network.unbind(self.addr)

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("operation on closed socket %s" % (self.addr,))
