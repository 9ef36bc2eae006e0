"""Ablation — Circus windowed segments vs the PARC stop-and-wait (§4.2.5).

"The Xerox PARC protocol requires an explicit acknowledgment of every
segment but the last.  This doubles the number of segments sent, but ...
only one segment's worth of buffer space is required per connection.
The Circus protocol allows multiple segments to be sent before one is
acknowledged, which reduces the number of segments sent to the minimum."

The experiment transfers multi-segment messages under both schemes, at
several loss rates, and reports packets on the wire and transfer latency.
"""

from repro.bench.report import Table, register_table
from repro.harness import World
from repro.net.network import NetworkConfig
from repro.pairedmsg import PairedEndpoint, PairedMessageConfig

MESSAGE = bytes(range(256)) * 24          # 6144 bytes -> 13 segments
SEGMENT_DATA = 512


def run_transfer(stop_and_wait: bool, loss: float, transfers: int = 8,
                 seed: int = 11):
    world = World(machines=2, seed=seed,
                  net_config=NetworkConfig(loss_probability=loss))
    config = PairedMessageConfig(max_segment_data=SEGMENT_DATA,
                                 stop_and_wait=stop_and_wait,
                                 retransmit_interval=30.0)
    client_proc = world.machines[0].spawn_process("pm-client")
    server_proc = world.machines[1].spawn_process("pm-server")
    client = PairedEndpoint(client_proc, config=config)
    server = PairedEndpoint(server_proc, port=600, config=config)

    def server_loop():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number, b"ok")

    server_proc.spawn(server_loop(), daemon=True)

    def body():
        start = world.sim.now
        for number in range(1, transfers + 1):
            yield from client.call(server.addr, number, MESSAGE)
        return (world.sim.now - start) / transfers

    latency = world.run(body())
    return latency, world.net.packets_sent / transfers


def test_windowing_vs_stop_and_wait():
    table = Table(
        "Ablation (Sec 4.2.5): Circus windowing vs PARC stop-and-wait",
        ["scheme", "loss", "ms/transfer", "packets/transfer"],
        notes="13-segment (6 KB) call messages.  Stop-and-wait roughly "
              "doubles the packets and serializes on round trips; "
              "windowing needs more buffering (unbounded in Circus).")
    results = {}
    for loss in (0.0, 0.05, 0.15):
        for scheme, saw in (("circus-window", False), ("stop-and-wait", True)):
            latency, packets = run_transfer(saw, loss)
            results[(scheme, loss)] = (latency, packets)
            table.add_row(scheme, loss, latency, packets)
    register_table(table)

    for loss in (0.0, 0.05, 0.15):
        window_latency, window_packets = results[("circus-window", loss)]
        saw_latency, saw_packets = results[("stop-and-wait", loss)]
        # Stop-and-wait sends substantially more packets (acks per
        # segment) and is slower (a round trip per segment).  Loss narrows
        # the packet gap because windowing pays retransmissions too.
        floor = 1.5 if loss == 0.0 else 1.2
        assert saw_packets > floor * window_packets, loss
        assert saw_latency > window_latency, loss


def test_reliability_holds_at_high_loss():
    """Both schemes still deliver correctly at 25% loss."""
    for saw in (False, True):
        latency, _packets = run_transfer(saw, 0.25, transfers=3, seed=17)
        assert latency > 0  # completed without protocol failure
