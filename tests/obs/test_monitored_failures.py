"""Fault injection under the invariant monitors.

Crash-only failures (the §6.4.2 failure model) must leave every monitor
silent — crashes are *sanctioned* behaviour the protocols tolerate.  A
corrupted replica (a member whose replies diverge from its troupe) is a
determinism breach the monitors must catch.
"""

from repro.bench.scenarios import echo_module
from repro.core import CollationError, ExportedModule, TroupeFailure
from repro.harness import World
from repro.host import FailureModel


def test_crash_only_faults_raise_no_false_positives():
    """Machines crashing and recovering under the failure model exercise
    crash declaration, abandoned transfers, and partial collation — none
    of which may trip a monitor."""
    world = World(machines=5, seed=77)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3,
                                  on_machines=["host0", "host1", "host2"])
    client = world.make_client(machine_name="host4")
    model = FailureModel(world.sim, world.machines[:3],
                         failure_rate=1 / 400.0, repair_rate=1 / 100.0,
                         seed=9)

    def body():
        model.start()
        completed = failed = 0
        for i in range(30):
            try:
                yield from client.call_troupe(troupe, 0, 0, b"n%d" % i)
                completed += 1
            except TroupeFailure:
                failed += 1
        model.stop()
        return completed, failed

    with world.watch() as probe:
        completed, failed = world.run(body())
    assert model.total_failures > 0          # faults actually happened
    assert completed > 0                     # and the troupe survived some
    assert probe.violations == []
    assert probe.recorder.monitor_errors == []


def test_corrupted_replica_trips_the_collation_monitor(tmp_path):
    """One member returns a mutated reply: the unanimous collator raises
    and the collation monitor pins the disagreement with a causally
    ordered post-mortem."""
    world = World(machines=4, seed=5)
    built = []

    def factory():
        index = len(built)
        built.append(index)

        def echo(ctx, args):
            yield from ctx.compute(1.0)
            if index == 1 and args == b"poison":
                return b"corrupt:" + args      # diverges from its troupe
            return b"echo:" + args
        return ExportedModule("echo", {0: echo})

    troupe, _ = world.make_troupe("echo", factory, degree=3)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"clean")
        try:
            yield from client.call_troupe(troupe, 0, 0, b"poison")
        except CollationError:
            return "caught"
        return "missed"

    with world.watch() as probe:
        outcome = world.run(body())
    assert outcome == "caught"
    assert probe.violations, "collation monitor must fire"
    violation = probe.violations[0]
    assert violation.invariant == "collation-completeness"
    assert violation.monitor == "CollationMonitor"
    # The post-mortem dump holds the offending events in causal order.
    report = probe.dump(str(tmp_path / "corrupt.json"))
    (vdict,) = [v for v in report["violations"]
                if v["invariant"] == "collation-completeness"]
    cut = vdict["causal_cut"]
    assert cut
    lamports = [e["lamport"] for e in cut]
    assert lamports == sorted(lamports)
    kinds = {e["kind"] for e in cut}
    assert "rpc.call_start" in kinds
    assert "rpc.result" in kinds
