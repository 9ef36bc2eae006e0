"""Simulated internetwork substrate.

The paper's experiments ran over a single 10 Mb/s Ethernet carrying UDP
datagrams (§4.4.1); the protocols assume datagrams "may be lost, delayed,
duplicated, or garbled" (§2.2) with garbling converted to loss by checksums.
This package provides that substrate:

- :mod:`repro.net.addresses` — host / process / module addresses (§4.2.1, §4.3)
- :mod:`repro.net.network` — the wire: loss, duplication, delay, jitter,
  partitions, and hardware multicast (§2.2, §4.3.5)
- :mod:`repro.net.udp` — unreliable datagram sockets (the UDP analogue)
- :mod:`repro.net.tcp` — a reliable byte-stream protocol with a three-way
  handshake (the TCP analogue used as a baseline in Table 4.1)
"""

from repro import _namespace

__getattr__, __dir__ = _namespace(__name__, {
    "BROADCAST_HOST": "addresses",
    "HostAddress": "addresses",
    "ModuleAddress": "addresses",
    "ProcessAddress": "addresses",
    "ConnectionClosed": "tcp",
    "ConnectionRefused": "tcp",
    "TcpListener": "tcp",
    "TcpSocket": "tcp",
    "Host": "network",
    "LinkFault": "network",
    "Network": "network",
    "NetworkConfig": "network",
    "PortInUse": "udp",
    "UdpSocket": "udp",
    **{module: module for module in (
        "addresses", "network", "tcp", "udp")},
})

__all__ = [
    "BROADCAST_HOST",
    "ConnectionClosed",
    "ConnectionRefused",
    "Host",
    "HostAddress",
    "LinkFault",
    "ModuleAddress",
    "Network",
    "NetworkConfig",
    "PortInUse",
    "ProcessAddress",
    "TcpListener",
    "TcpSocket",
    "UdpSocket",
]
