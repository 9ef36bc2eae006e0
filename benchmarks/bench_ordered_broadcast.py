"""Figure 5.1 / §5.5 — ordered broadcast, and the concurrency-control
trade-off.

The ordered broadcast protocol is starvation-free: concurrent broadcasts
are never interleaved and every member delivers them in the same order.
The §5.5 discussion weighs it against the optimistic troupe commit
protocol: ordered broadcast restricts concurrency (deliveries are
serialized) but never aborts; the commit protocol is optimistic and
aborts under contention.

Measured here: (a) order agreement across members under heavy concurrent
broadcasting, (b) throughput of the ordered-broadcast pipeline, and (c)
a head-to-head with the commit protocol on a contended counter.
"""

from repro.bench.report import Table, register_table
from repro.core import ExportedModule, RuntimeConfig
from repro.harness import World
from repro.sim import Sleep
from repro.transactions import OrderedBroadcastServer, atomic_broadcast


def run_broadcast_storm(broadcasters: int = 4, each: int = 8,
                        degree: int = 3, seed: int = 9):
    world = World(machines=broadcasters + degree + 1, seed=seed)
    troupe, runtimes = world.make_troupe(
        "ob", lambda: ExportedModule("placeholder", {}), degree=degree,
        runtime_config=RuntimeConfig(execution="parallel"))
    logs = []
    servers = []
    for runtime in runtimes:
        log = []
        logs.append(log)
        servers.append(OrderedBroadcastServer(runtime, log.append))
    module = servers[0].module_addr.module

    def make_broadcaster(tag, delay):
        client = world.make_client()

        def body():
            yield Sleep(delay)
            for i in range(each):
                yield from atomic_broadcast(
                    client, troupe, module,
                    b"%s-%d" % (tag, i), b"%s:%d" % (tag, i))
        return body

    start = world.sim.now
    for b in range(broadcasters):
        world.spawn(make_broadcaster(b"b%d" % b, float(b))())
    world.sim.run()
    elapsed = world.sim.now - start
    total = broadcasters * each
    return logs, total, elapsed


def test_all_members_deliver_in_identical_order():
    logs, total, elapsed = run_broadcast_storm()
    assert all(len(log) == total for log in logs)
    assert all(log == logs[0] for log in logs[1:])

    table = Table(
        "Fig 5.1: ordered broadcast under concurrent senders",
        ["broadcasters", "messages", "members", "identical order",
         "ms/broadcast"],
        notes="The Sec 5.4 guarantee: concurrent broadcasts are never "
              "interleaved; every member accepts them in the same order.")
    table.add_row(4, total, len(logs), "yes", elapsed / total)
    register_table(table)


def test_ordered_broadcast_vs_commit_protocol_under_contention():
    """§5.5: ordered broadcast never aborts (starvation-free) where the
    optimistic commit protocol thrashes; the price is serialization."""
    # Ordered-broadcast counter: every increment succeeds, exactly once,
    # in the same order everywhere.
    world = World(machines=10, seed=21)
    troupe, runtimes = world.make_troupe(
        "ctr", lambda: ExportedModule("placeholder", {}), degree=2,
        runtime_config=RuntimeConfig(execution="parallel"))
    counters = []
    servers = []
    for runtime in runtimes:
        state = {"count": 0}
        counters.append(state)

        def deliver(payload, state=state):
            state["count"] += 1

        servers.append(OrderedBroadcastServer(runtime, deliver))
    module = servers[0].module_addr.module
    clients = 4
    increments = 5

    def make_client(tag):
        client = world.make_client()

        def body():
            for i in range(increments):
                yield from atomic_broadcast(
                    client, troupe, module,
                    b"%s/%d" % (tag, i), b"inc")
        return body

    start = world.sim.now
    for c in range(clients):
        world.spawn(make_client(b"c%d" % c)())
    world.sim.run()
    ob_elapsed = world.sim.now - start
    total = clients * increments
    assert all(state["count"] == total for state in counters)

    table = Table(
        "Sec 5.5: ordered broadcast vs troupe commit under contention",
        ["scheme", "operations", "aborts/retries", "outcome"],
        notes="Ordered broadcast serializes and never aborts; the "
              "optimistic commit protocol aborts conflicting "
              "serialization orders and retries with back-off "
              "(see bench_eq_5_1 for its abort counts).")
    table.add_row("ordered-broadcast", total, 0,
                  "all members at %d, %.0f ms total" % (total, ob_elapsed))
    table.add_row("troupe-commit", "see bench_eq_5_1", ">0 under conflict",
                  "progress via exponential back-off")
    register_table(table)
