"""Broadcast discovery of the Ringmaster (§6.3).

"Currently, a configuration file is used for this purpose; a better
solution would be a broadcast protocol."  This module is that better
solution: a client broadcasts an "are you there?" probe to the
Ringmaster's well-known port on every machine; the processes that answer
within the window are the Ringmaster troupe members.

Because probe replies are part of the paired message protocol, any
Ringmaster member answers without code changes.
"""

from __future__ import annotations

from repro.binding.agent import RINGMASTER_PORT, RINGMASTER_TROUPE_ID
from repro.core.troupe import TroupeDescriptor
from repro.host.process import OsProcess
from repro.net.addresses import ModuleAddress
from repro.pairedmsg import segments as seg
from repro.sim.kernel import AnyOf, Sleep


class DiscoveryFailed(Exception):
    """No Ringmaster member answered the broadcast probe."""


def discover_ringmaster(process: OsProcess, port: int = RINGMASTER_PORT,
                        window: float = 100.0,
                        retries: int = 3) -> TroupeDescriptor:
    """Generator: locate the Ringmaster troupe by broadcast.

    Broadcasts a probe, collects probe replies for ``window`` ms, and
    builds the troupe descriptor from the responders (sorted, so every
    discoverer computes the same member order).
    """
    sock = process.udp_socket()
    probe = seg.make_probe(0).encode()
    try:
        for _attempt in range(retries):
            yield process.charge("sendmsg")
            sock.broadcast(probe, port)
            responders = set()
            deadline = process.sim.now + window
            while process.sim.now < deadline:
                remaining = deadline - process.sim.now
                index, value = yield AnyOf(sock.recv(), Sleep(remaining))
                if index == 1:
                    break
                yield process.charge("recvmsg")
                try:
                    segment = seg.decode(value.payload)
                except seg.SegmentFormatError:
                    continue
                if segment.msg_type == seg.MSG_PROBE_REPLY:
                    responders.add(value.src)
            if responders:
                members = tuple(ModuleAddress(addr, 0)
                                for addr in sorted(responders))
                return TroupeDescriptor("ringmaster", RINGMASTER_TROUPE_ID,
                                        members)
        raise DiscoveryFailed(
            "no Ringmaster replies on port %d after %d broadcasts"
            % (port, retries))
    finally:
        sock.close()
