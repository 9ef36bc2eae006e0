"""What an unfinished seed waits on (``ExploreResult.stuck``): each live
process's wait at the horizon, matched to the endpoints' pending returns
and the lock tables' queues and classified, and located at the innermost
frame of its generator chain.  It explains a verdict and changes none:
not the outcome, not the digest, not ``ok``."""

import dataclasses
import pickle

import pytest

from repro import explore
from repro.cli import main
from repro.core.runtime import ExportedModule
from repro.harness import World
from repro.sim import Sleep
from repro.transactions.locks import EXCLUSIVE, LockTable


@pytest.fixture(scope="module")
def seed18():
    return explore.run("bank-transfer", 18)


def test_an_abandoned_call_is_named_as_the_stuck_wait(seed18):
    """Seed 18's client waits on ``host0``'s reply to call 1, a call
    that ``host0`` never delivered and that its caller no longer sends."""
    assert seed18.outcome == "budget-exhausted" and seed18.ok
    [wait] = seed18.stuck
    assert (wait.process, wait.kind, wait.peer.split(":")[0],
            wait.call_number) == ("host5/client/await-return",
                                  "waits-on-abandoned", "host0", 1)
    assert wait.where.startswith("PairedEndpoint.wait_return:")
    assert str(wait) == ("host5/client/await-return: waits-on-abandoned "
                         "on %s call 1 (at %s)" % (wait.peer, wait.where))


def test_the_classes_stay_out_of_the_digest_and_cross_a_pickle(seed18):
    assert dataclasses.replace(seed18, stuck=[]).digest() == seed18.digest()
    assert pickle.loads(pickle.dumps(seed18)).stuck == seed18.stuck


def test_a_finished_seed_waits_on_nothing():
    result = explore.run("bank-transfer", 0)
    assert result.outcome != "budget-exhausted" and result.stuck == []


def test_fuzz_replay_prints_the_stuck_waits(seed18, tmp_path, capsys):
    path = tmp_path / "bank-transfer-seed18.schedule.json"
    seed18.schedule.save(path)
    assert main(["fuzz", "--replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "stuck: %s\n" % seed18.stuck[0] in out


def _slow_module():
    def slow(ctx, args):
        yield Sleep(50.0)
        return args
    return ExportedModule("slow", {0: slow})


@pytest.mark.parametrize("crash, kind", [(False, "waits-on-live-idle"),
                                         (True, "waits-on-down")])
def test_a_call_to_a_live_or_a_downed_member(crash, kind):
    """Stopped 30 ms into a call whose member takes 50 ms: the member has
    the CALL, so the wait is live and idle — unless its host crashed at
    10 ms (crash detection takes far longer than the 30 ms)."""
    world = World(machines=2)
    troupe, _ = world.make_troupe("slow", _slow_module, degree=1)
    client = world.make_client()
    client.process.spawn(client.call_troupe(troupe, 0, 0, b"x"),
                         name="caller")
    if crash:
        world.sim.schedule(10.0, world.machine(
            troupe.members[0].process.host).crash)
    world.sim.run(until=30.0)
    [wait] = explore._stuck_waits(world)
    assert (wait.kind, wait.peer, wait.call_number) == (
        kind, str(troupe.members[0].process), 1)
    assert wait.process.endswith("/await-return")


def test_lock_waits_on_a_cycle_and_off_it():
    """Two transactions take two locks in opposite orders (a deadlock);
    a third waits behind one of them without being on the cycle."""
    world = World(machines=1)
    locks = LockTable(world.sim)

    def txn(name, first, second, pause):
        yield from locks.acquire(name, first, EXCLUSIVE)
        yield Sleep(pause)
        yield from locks.acquire(name, second, EXCLUSIVE)

    world.sim.spawn(txn("t1", "a", "b", 1.0), name="t1")
    world.sim.spawn(txn("t2", "b", "a", 1.0), name="t2")
    world.sim.spawn(txn("t3", "a", "c", 0.0), name="t3")
    world.sim.run(until=5.0)
    assert [(w.process, w.kind) for w in explore._stuck_waits(
        world, lock_tables=[locks])] == [
        ("t1", "lock-cycle"), ("t2", "lock-cycle"), ("t3", "other")]


def test_a_failing_classifier_changes_no_verdict(seed18, monkeypatch):
    def broken(*_args):
        raise AttributeError("no such attribute")

    monkeypatch.setattr(explore, "_stuck_waits", broken)
    result = explore.run("bank-transfer", 18)
    assert (result.outcome, result.ok, result.digest()) == (
        seed18.outcome, seed18.ok, seed18.digest())
    assert [str(w) for w in result.stuck] == [
        "explore: unclassified (at AttributeError: no such attribute)"]
