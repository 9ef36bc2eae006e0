"""Tests for the invariant monitors (repro.obs.monitor).

Two families:

* *silent on correct executions* — the canned CLI scenarios (including
  the lossy one) run under the full suite without a single violation;
* *fires on seeded violations* — each monitor gets a synthetic event
  stream breaking exactly its invariant, and must produce a violation
  whose post-mortem contains the causally ordered offending events.
"""

import json
import pathlib
import types

import pytest

from repro.bench import scenarios
from repro.obs import EventBus, events
from repro.obs.clocks import ClockDomain, vc_leq
from repro.obs.monitor import (CollationMonitor, CommitMonitor,
                               CrashSilenceMonitor, ExactlyOnceMonitor,
                               IncarnationMonitor, MonitorSuite,
                               TroupeDeterminismMonitor, watch)
from repro.obs.recorder import FlightRecorder

GOLDEN = pathlib.Path(__file__).with_name("golden")


# ---------------------------------------------------------------------------
# Silent on the canned scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["quickstart", "protocol_trace",
                                      "lossy"])
def test_monitors_silent_on_canned_scenarios(scenario):
    world, body = getattr(scenarios, scenario)()
    with watch(world.sim) as probe:
        world.run(body())
    assert probe.violations == []
    assert probe.recorder.monitor_errors == []
    assert probe.clocks.stamped > 0


def test_monitors_silent_on_circus():
    world, body = scenarios.circus(10)
    with watch(world.sim) as probe:
        world.run(body())
    assert probe.violations == []


# ---------------------------------------------------------------------------
# Seeded violations: synthetic stamped event streams
# ---------------------------------------------------------------------------

def _rig(monitor):
    """A bus with clocks, a flight recorder, and one monitor attached —
    the unit-test harness for driving monitors with synthetic events."""
    bus = EventBus()
    ClockDomain().install(bus)
    recorder = FlightRecorder(bus, capacity=128)
    monitor.attach(bus)
    return bus, recorder


def _assert_postmortem(recorder, monitor, invariant):
    """The violation made it to the recorder, and its causal cut holds
    the offending events in a causally consistent (Lamport) order."""
    assert len(monitor.violations) == 1
    violation = monitor.violations[0]
    assert violation.invariant == invariant
    assert recorder.violations == [violation]
    report = recorder.postmortem()
    (vdict,) = report["violations"]
    assert vdict["invariant"] == invariant
    cut = vdict["causal_cut"]
    assert cut, "causal cut must not be empty"
    lamports = [e["lamport"] for e in cut]
    assert lamports == sorted(lamports), "cut must be causally ordered"
    # Every offending event is inside the cut (same kind and lamport).
    for offending in vdict["evidence"]:
        assert any(e["kind"] == offending["kind"]
                   and e["lamport"] == offending["lamport"]
                   for e in cut), offending
    # The violation's frontier dominates everything in its cut.
    for e in cut:
        assert vc_leq(e["vc"], vdict["frontier"])
    return vdict


def _exec(t, host, proc, thread="th1", call=1, troupe=9, module=0,
          procedure=0):
    return events.ExecutionStarted(
        t=t, host=host, proc=proc, thread_id=thread, call_number=call,
        troupe_id=troupe, module=module, procedure=procedure, callers=1,
        group_complete=True)


def _postmortem_text(recorder) -> str:
    return json.dumps(recorder.postmortem(), indent=2) + "\n"


def _exactly_once_rig():
    """A duplicate execution, found by bisection: call #3 executes after
    #5 (a first execution out of call order), then #1 again."""
    monitor = ExactlyOnceMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_exec(1.0, "h1", "echo"))
    bus.emit(_exec(1.0, "h2", "echo"))       # other replica: fine
    bus.emit(_exec(1.5, "h1", "echo", call=5))
    bus.emit(_exec(1.7, "h1", "echo", call=3))   # out of order: fine
    bus.emit(_exec(2.0, "h1", "echo"))       # same replica again: breach
    return monitor, recorder


def _determinism_rig():
    monitor = TroupeDeterminismMonitor()
    bus, recorder = _rig(monitor)
    # Member A sees calls 1 then 2; member B sees procedure 1 at
    # position 1 where the canonical stream has procedure 0.
    bus.emit(_exec(1.0, "h1", "m", call=1, procedure=0))
    bus.emit(_exec(2.0, "h1", "m", call=2, procedure=0))
    bus.emit(_exec(3.0, "h2", "m", call=1, procedure=0))
    bus.emit(_exec(4.0, "h2", "m", call=2, procedure=1))
    return monitor, recorder


def exactly_once_postmortem() -> str:
    return _postmortem_text(_exactly_once_rig()[1])


def determinism_postmortem() -> str:
    return _postmortem_text(_determinism_rig()[1])


def test_exactly_once_fires_on_duplicate_execution():
    monitor, recorder = _exactly_once_rig()
    vdict = _assert_postmortem(recorder, monitor, "exactly-once")
    assert "executed twice" in vdict["message"]
    assert len(vdict["evidence"]) == 2
    assert _postmortem_text(recorder) == \
        (GOLDEN / "exactly_once_postmortem.json").read_text()


def test_exactly_once_silent_on_distinct_calls():
    monitor = ExactlyOnceMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_exec(1.0, "h1", "echo", call=1))
    bus.emit(_exec(2.0, "h1", "echo", call=2))
    assert monitor.violations == []


def test_determinism_fires_on_diverging_member_streams():
    monitor, recorder = _determinism_rig()
    vdict = _assert_postmortem(recorder, monitor, "troupe-determinism")
    assert "canonical stream" in vdict["message"]
    assert _postmortem_text(recorder) == \
        (GOLDEN / "determinism_postmortem.json").read_text()


def test_determinism_ignores_unreplicated_and_control_traffic():
    monitor = TroupeDeterminismMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_exec(1.0, "h1", "m", troupe=0, call=5))       # troupe 0
    bus.emit(_exec(2.0, "h2", "m", troupe=0, call=6))
    bus.emit(_exec(3.0, "h1", "m", module=0xFFFF, call=1))  # control
    bus.emit(_exec(4.0, "h2", "m", module=0xFFFF, call=2))
    assert monitor.violations == []


def test_determinism_allows_interleaved_threads():
    """Two client threads' calls arriving in different orders at two
    members is NOT a determinism breach — per-thread streams agree."""
    monitor = TroupeDeterminismMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_exec(1.0, "h1", "m", thread="a", call=1))
    bus.emit(_exec(2.0, "h1", "m", thread="b", call=1))
    bus.emit(_exec(3.0, "h2", "m", thread="b", call=1))    # b before a
    bus.emit(_exec(4.0, "h2", "m", thread="a", call=1))
    assert monitor.violations == []


def _call_start(t, members=3, thread="th1", call=1):
    return events.CallStarted(
        t=t, host="ch", proc="client", thread_id=thread, call_number=call,
        troupe="echo", troupe_id=9, members=members, module=0, procedure=0)


def _result(t, member, status="ok", thread="th1", call=1):
    return events.ReplicaResult(
        t=t, host="ch", proc="client", thread_id=thread, call_number=call,
        member=member, status=status)


def _collate(t, verdict, responses, thread="th1", call=1):
    return events.Collated(
        t=t, host="ch", proc="client", thread_id=thread, call_number=call,
        troupe="echo", verdict=verdict, responses=responses)


def test_collation_fires_on_premature_verdict():
    monitor = CollationMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_call_start(1.0, members=3))
    bus.emit(_result(2.0, "m1"))
    bus.emit(_result(3.0, "m2"))
    bus.emit(_collate(4.0, "agreed", 2))     # third member unaccounted
    vdict = _assert_postmortem(recorder, monitor,
                               "collation-completeness")
    assert "2 of 3" in vdict["message"]


def test_collation_fires_on_disagreement_verdict():
    monitor = CollationMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_call_start(1.0, members=2))
    bus.emit(_result(2.0, "m1"))
    bus.emit(_result(3.0, "m2"))
    bus.emit(_collate(4.0, "disagreement", 2))
    _assert_postmortem(recorder, monitor, "collation-completeness")


def test_collation_accepts_complete_and_early_verdicts():
    monitor = CollationMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_call_start(1.0, members=2, call=1))
    bus.emit(_result(2.0, "m1", call=1))
    bus.emit(_result(3.0, "m2", status="crashed", call=1))
    bus.emit(_collate(4.0, "agreed", 1, call=1))     # all accounted
    bus.emit(_call_start(5.0, members=3, call=2))
    bus.emit(_result(6.0, "m1", call=2))
    bus.emit(_collate(7.0, "decided_early", 1, call=2))  # sanctioned
    assert monitor.violations == []


def _vote(t, peer, serial, ready):
    return events.CommitVote(t=t, host="ch", proc="coord", peer=peer,
                             serial=serial, ready=ready)


def _outcome(t, decision, votes, group_complete=True, serials=()):
    return events.CommitOutcome(t=t, host="ch", proc="coord",
                                decision=decision, votes=votes,
                                group_complete=group_complete,
                                serials=tuple(serials))


def test_commit_fires_on_non_unanimous_commit():
    monitor = CommitMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_vote(1.0, "m1", 7, True))
    bus.emit(_vote(2.0, "m2", 7, False))
    bus.emit(_outcome(3.0, "commit", 2, serials=(7, 7)))
    vdict = _assert_postmortem(recorder, monitor, "commit-unanimity")
    assert "demand 'abort'" in vdict["message"]


def test_commit_fires_on_split_coordinators():
    monitor = CommitMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_vote(1.0, "m1", 7, True))
    outcome_a = _outcome(2.0, "commit", 1, serials=(7,))
    bus.emit(outcome_a)
    other = events.CommitOutcome(t=3.0, host="ch2", proc="coord",
                                 decision="abort", votes=1,
                                 group_complete=False, serials=(7,))
    bus.emit(other)
    assert any(v.invariant == "commit-unanimity"
               and "split" in v.message for v in monitor.violations)


def test_commit_accepts_matching_votes():
    monitor = CommitMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_vote(1.0, "m1", 7, True))
    bus.emit(_vote(2.0, "m2", 7, True))
    bus.emit(_outcome(3.0, "commit", 2, serials=(7, 7)))
    bus.emit(_vote(4.0, "m1", 8, False))
    bus.emit(_vote(5.0, "m2", 8, True))
    bus.emit(_outcome(6.0, "abort", 2, serials=(8, 8)))
    bus.emit(_outcome(7.0, "abort", 0, group_complete=False))
    assert monitor.violations == []


def test_crash_silence_fires_on_retransmit_after_crash():
    monitor = CrashSilenceMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(events.PeerCrashDeclared(t=1.0, endpoint="a:1", peer="b:1",
                                      silence=800.0, call_number=4,
                                      proc="p"))
    bus.emit(events.SegmentRetransmitted(t=2.0, endpoint="a:1",
                                         peer="b:1", msg_type=0,
                                         call_number=4, segment=1,
                                         proc="p"))
    vdict = _assert_postmortem(recorder, monitor, "crash-silence")
    assert "after declaring it crashed" in vdict["message"]


def test_crash_silence_allows_new_calls_to_restarted_peer():
    monitor = CrashSilenceMonitor()
    bus, _ = _rig(monitor)
    bus.emit(events.PeerCrashDeclared(t=1.0, endpoint="a:1", peer="b:1",
                                      silence=800.0, call_number=4,
                                      proc="p"))
    # A different call to the same peer is legitimate.
    bus.emit(events.SegmentRetransmitted(t=2.0, endpoint="a:1",
                                         peer="b:1", msg_type=0,
                                         call_number=5, segment=1,
                                         proc="p"))
    bus.emit(events.ProbeSent(t=3.0, endpoint="a:1", peer="b:1",
                              call_number=5, proc="p"))
    assert monitor.violations == []


def _member(t, op, new_id, old_id=0, host="rm", proc="ringmaster",
            name="echo"):
    return events.MembershipChanged(t=t, host=host, proc=proc, op=op,
                                    name=name, new_id=new_id,
                                    members=3, old_id=old_id)


def test_incarnation_fires_on_non_monotonic_id():
    monitor = IncarnationMonitor()
    bus, recorder = _rig(monitor)
    bus.emit(_member(1.0, "register", 100))
    bus.emit(_member(2.0, "add", 90, old_id=100))      # went backwards
    vdict = _assert_postmortem(recorder, monitor,
                               "incarnation-monotonic")
    assert "not above" in vdict["message"]


def test_incarnation_fires_on_broken_chain():
    monitor = IncarnationMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_member(1.0, "register", 100))
    bus.emit(_member(2.0, "add", 110, old_id=100))
    bus.emit(_member(3.0, "remove", 120, old_id=105))  # 105 never issued
    assert len(monitor.violations) == 1
    assert "chained from" in monitor.violations[0].message


def test_incarnation_accepts_monotonic_chain():
    monitor = IncarnationMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_member(1.0, "register", 100))
    bus.emit(_member(2.0, "add", 110, old_id=100))
    bus.emit(_member(3.0, "remove", 120, old_id=110))
    bus.emit(_member(4.0, "add", 130))                 # fresh re-create
    assert monitor.violations == []


# ---------------------------------------------------------------------------
# Suite plumbing
# ---------------------------------------------------------------------------

def test_violations_are_deduplicated_per_subject():
    monitor = ExactlyOnceMonitor()
    bus, _ = _rig(monitor)
    bus.emit(_exec(1.0, "h1", "echo"))
    bus.emit(_exec(2.0, "h1", "echo"))
    bus.emit(_exec(3.0, "h1", "echo"))     # third strike, same subject
    assert len(monitor.violations) == 1


def test_suite_attaches_defaults_and_detaches_cleanly():
    sim = types.SimpleNamespace(bus=EventBus(), now=0.0)
    suite = MonitorSuite(sim)
    assert len(suite.monitors) == 6
    assert sim.bus.active
    assert sim.bus.stamper is suite.clocks
    assert suite["ExactlyOnceMonitor"].invariant == "exactly-once"
    suite.detach()
    assert not sim.bus.active
    assert sim.bus.stamper is None


def test_watch_records_crash_and_reraises():
    sim = types.SimpleNamespace(bus=EventBus(), now=42.0)
    with pytest.raises(RuntimeError):
        with watch(sim) as probe:
            raise RuntimeError("sim blew up")
    assert probe.recorder.crash["type"] == "RuntimeError"
    assert probe.recorder.crash["t"] == 42.0
    report = probe.postmortem()
    assert report["crash"]["message"] == "sim blew up"
    assert not sim.bus.active           # everything detached


def test_violation_event_reaches_other_bus_subscribers():
    monitor = ExactlyOnceMonitor()
    bus = EventBus()
    ClockDomain().install(bus)
    seen = []
    bus.subscribe(seen.append, kinds="mon.violation")
    monitor.attach(bus)
    bus.emit(_exec(1.0, "h1", "echo"))
    bus.emit(_exec(2.0, "h1", "echo"))
    assert len(seen) == 1
    assert seen[0].monitor == "ExactlyOnceMonitor"
    # The violation inherited the evidence's causal frontier.
    assert vc_leq(seen[0].evidence[0].vc, seen[0].vc)
