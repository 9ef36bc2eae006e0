"""Detect lean, explain by replay: ``explore.run`` runs a seed for its
verdict with only the oracles on the bus and runs a failing seed again
under the full watch.  The two attempts are one seed — they must agree
on everything a digest, a sweep report or a shrinker reads."""

import dataclasses
import random
import re

import pytest

from repro import explore
from repro.obs import events
from repro.obs.history import canonical_dumps
from repro.obs.monitor import (DEFAULT_MONITORS, InvariantMonitor,
                               monitors_for)
from tests.explore.test_sweep import _Counter    # a catch-all counter


def _attempt(scenario, seed, explain):
    scn = explore.get_scenario(scenario)
    monitors = None if scn.oracles is None else monitors_for(scn.oracles)
    return explore._attempt(scn, seed, None, monitors=monitors, budget=None,
                            capacity=4096, explain=explain)


@pytest.mark.parametrize("scenario,seeds", [
    ("bank-transfer", range(390, 400)),       # 396 fails
    ("echo", range(5)),
    ("register", range(5)),
    ("pairs", range(5)),
    ("elastic", range(5)),                    # 3 fails
    ("elastic-adversarial", range(5)),
])
def test_verdict_and_explaining_attempts_agree(scenario, seeds):
    failed = []
    for seed in seeds:
        verdict = _attempt(scenario, seed, explain=False)
        explained = _attempt(scenario, seed, explain=True)
        assert verdict.digest() == explained.digest(), seed
        assert verdict.invariants() == explained.invariants(), seed
        assert verdict.outcome == explained.outcome, seed
        assert verdict.crash == explained.crash, seed
        assert verdict.stats == explained.stats, seed
        assert (verdict.history is None) == (explained.history is None)
        if verdict.history is not None:
            assert canonical_dumps(verdict.history) \
                == canonical_dumps(explained.history), seed
        # Only the explaining attempt carries a post-mortem ...
        assert verdict.postmortem is None and verdict.artifacts is None
        assert explained.postmortem is not None
        if not verdict.ok:
            # ... and run() hands a failing seed's back whole.
            failed.append(seed)
            result = explore.run(scenario, seed)
            assert result.digest() == verdict.digest()
            assert result.postmortem == explained.postmortem
            assert len(result.postmortem["violations"]) \
                == len(result.violations)
    if scenario == "bank-transfer":
        assert failed == [396]
    if scenario == "elastic":
        assert failed == [3]


def test_the_verdict_attempt_builds_only_what_its_oracles_and_clocks_need(
        monkeypatch):
    wanted = []
    real_run = explore.scenarios.World.run

    def spying_run(world, *args, **kwargs):
        wanted.append(world.sim.bus.wanted)
        return real_run(world, *args, **kwargs)

    monkeypatch.setattr(explore.scenarios.World, "run", spying_run)
    assert explore.run("bank-transfer", 390).ok
    (lean,) = wanted
    assert lean == events.CAUSAL_KINDS
    del wanted[:]
    assert not explore.run("bank-transfer", 396).ok
    lean, full = wanted
    # The explaining attempt adds what its recorder rings (the causal
    # kinds and mon.warn / mon.error) and its tracer reads.
    assert lean == events.CAUSAL_KINDS and full == events.CAUSAL_KINDS | {
        "mon.warn", "mon.error", "rpc.exec_end"}


def test_a_crash_is_explained_too():
    base = explore.get_scenario("echo")

    def factory(seed):
        built = base.factory(seed)
        workload = built.body

        def body():
            yield from workload()
            raise ValueError("boom")
        return dataclasses.replace(built, body=body)

    crashing = dataclasses.replace(base, name="echo-crash", factory=factory)
    result = explore.run(crashing, 3, artifacts=True)
    assert result.crash == "ValueError: boom" and not result.violations
    assert result.postmortem["crash"]["message"] == "boom"
    assert result.postmortem["tail"]            # the recorder was there
    assert sorted(result.artifacts) == ["openmetrics", "trace"]
    assert explore.run(crashing, 3).artifacts is None


class _Planted(InvariantMonitor):
    """Fails every seed: one violation on the first call."""

    kinds = ("rpc.call_start",)
    invariant = "planted"
    section = "test"

    def observe(self, event) -> None:
        self.report("a call was made", subject="calls", evidence=(event,))


def test_a_build_that_consults_random_is_a_typed_divergence():
    base = explore.get_scenario("echo")
    flaky = dataclasses.replace(
        base, name="echo-flaky",
        factory=lambda seed: base.factory(random.randrange(1000)))

    def attempt(schedule):
        return explore._attempt(flaky, 7, schedule, monitors=[_Planted],
                                budget=None, capacity=4096)

    random.seed(20260)
    verdict = attempt(None)
    first, second = verdict.digest(), attempt(verdict.schedule).digest()
    assert first != second
    random.seed(20260)
    with pytest.raises(explore.ReplayDiverged) as caught:
        explore.run(flaky, 7, monitors=[_Planted])
    message = str(caught.value)
    assert "'echo-flaky'" in message and "seed 7" in message
    assert re.findall(r"[0-9a-f]{64}", message) == [first, second]


# ---------------------------------------------------------------------------
# Shrinking is verdict-only
# ---------------------------------------------------------------------------

def test_shrinking_never_builds_a_post_mortem(monkeypatch):
    result = explore.run("bank-transfer", 396)
    assert result.invariants() == ["strict-serializable"]

    def forbidden(*args, **kwargs):
        raise AssertionError("a shrink candidate built an observer")

    monkeypatch.setattr("repro.obs.recorder.FlightRecorder", forbidden)
    monkeypatch.setattr("repro.obs.trace.CallTracer", forbidden)
    monkeypatch.setattr("repro.obs.critpath.CritPathAnalyzer", forbidden)
    schedule, attempts = explore.shrink_failure(result)
    # ... and lands where the always-traced shrinker landed.
    assert attempts == 17
    assert [a.to_dict() for a in schedule.actions] == [
        {"kind": "partition", "at": 110.717, "duration": 735.064,
         "groups": [["host1", "host2"], ["host0"]]},
        {"kind": "partition", "at": 1031.707, "duration": 652.593,
         "groups": [["host1", "host2"], ["host0"]]}]


# ---------------------------------------------------------------------------
# Caller-supplied monitor instances
# ---------------------------------------------------------------------------

class _CrashSeen(InvariantMonitor):
    """Stateful on purpose: counts every crash declaration it is shown
    and objects to the first one, once (``_fired`` dedupes after)."""

    kinds = ("pm.crash",)
    invariant = "planted-no-crash-declared"
    section = "test"

    def __init__(self):
        super().__init__()
        self.shown = 0

    def observe(self, event) -> None:
        self.shown += 1
        self.report("a peer was declared crashed", subject="any",
                    evidence=(event,))


def test_a_stateful_instance_sees_each_seed_once_and_keeps_its_state():
    # echo 3 and 4 declare no crash; echo 5 declares eight.
    monitor = _CrashSeen()
    quiet = explore.run("echo", 3, monitors=[monitor])
    assert quiet.ok and monitor.shown == 0 and quiet.postmortem is None
    loud = explore.run("echo", 5, monitors=[monitor])
    assert loud.invariants() == ["planted-no-crash-declared"]
    # Seed 5 ran twice; the instance was shown its events once, and the
    # result's violation (and post-mortem) come from the explaining
    # attempt's copy, which started from the state the instance had.
    assert monitor.shown == 8 and len(monitor.violations) == 1
    assert len(loud.violations) == 1
    assert loud.violations[0] is not monitor.violations[0]
    assert loud.violations[0].t == monitor.violations[0].t
    (explained,) = loud.postmortem["violations"]
    assert explained["invariant"] == "planted-no-crash-declared"
    assert explained["evidence"][0]["kind"] == "pm.crash"
    # Documented: an instance keeps its violations, so every later seed
    # fails on the stale one — and explains itself consistently, from a
    # copy that carries the same stale state.
    stale = explore.run("echo", 4, monitors=[monitor])
    assert stale.invariants() == ["planted-no-crash-declared"]
    assert monitor.shown == 8 and len(monitor.violations) == 1
    assert stale.postmortem is not None
    assert [v.t for v in stale.violations] == [monitor.violations[0].t]


def test_a_catch_all_instance_counts_what_it_always_counted():
    scenario = explore.get_scenario("bank-transfer")
    counter = _Counter()
    monitors = [m for m in DEFAULT_MONITORS
                if m.invariant in scenario.oracles] + [counter]
    counted = []
    for seed in (390, 391, 392, 396, 397):
        before = counter.events
        result = explore.run(scenario, seed, monitors=monitors)
        assert result.ok == (seed != 396)
        counted.append(counter.events - before)
    # The counts of the commit before the split, with one exception: seed
    # 391 read 6,679 there, because its 4,096-event flight recorder
    # overflowed and said so (one mon.warn).  A verdict attempt has no
    # recorder to overflow.  Failing seed 396 is counted once, not twice.
    assert counted == [2567, 6678, 1706, 2578, 1789]
