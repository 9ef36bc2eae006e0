"""Cross-checks between independent observers of the same run.

The MSC packet trace (repro.tools) and the metrics collector subscribe
to the same bus; their counts must agree exactly — on a lossy network
where retransmissions and probes make the packet stream non-trivial.
"""

from repro.bench.scenarios import echo_module
from repro.harness import World
from repro.net import NetworkConfig
from repro.obs import MetricsCollector
from repro.tools import trace_network


def _lossy_run(loss=0.2, calls=8):
    world = World(machines=4, seed=13,
                  net_config=NetworkConfig(loss_probability=loss))
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with trace_network(world.net) as trace, \
            MetricsCollector(world.sim.bus) as collector:
        world.run(body())
    return world, trace, collector.registry


def test_msc_trace_agrees_with_packet_counters():
    world, trace, reg = _lossy_run()
    # Both observers saw every net.send event: the MSC's packet list and
    # the metrics counter are two views of the same stream.
    assert len(trace) == reg.total("net.packets_sent")
    assert len(trace) == world.net.packets_sent
    assert reg.total("net.packets_dropped") == world.net.packets_dropped


def test_loss_conservation():
    _world, trace, reg = _lossy_run()
    sent = reg.total("net.packets_sent")
    delivered = reg.total("net.packets_delivered")
    dropped = reg.total("net.packets_dropped")
    duplicated = reg.total("net.packets_duplicated")
    # Every datagram handed to the wire is delivered or dropped;
    # duplication adds extra deliveries on top.
    assert sent + duplicated == delivered + dropped
    assert dropped > 0                  # 20% loss actually bit
    assert delivered > 0


def test_losses_force_protocol_work():
    _world, _trace, reg = _lossy_run()
    # Dropped segments must show up as paired-message repair traffic.
    assert reg.total("pm.retransmits") > 0
    # The RPC layer still completed every call exactly once.
    assert reg.value("rpc.calls_completed", troupe="echo", outcome="ok") == 8
    assert reg.value("rpc.collations", verdict="agreed") == 8
    assert reg.total("rpc.executions") == 8 * 3
    # Retransmissions mean some replicas saw segments twice.
    assert reg.total("pm.duplicates_suppressed") >= 0


def test_clean_network_delivers_everything():
    _world, trace, reg = _lossy_run(loss=0.0, calls=4)
    assert reg.total("net.packets_dropped") == 0
    assert reg.total("pm.duplicates_suppressed") == \
        reg.total("pm.retransmits")   # every retransmit is redundant here
    assert len(trace) == reg.total("net.packets_delivered")
