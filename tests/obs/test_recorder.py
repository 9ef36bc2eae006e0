"""Tests for the flight recorder (repro.obs.recorder)."""

import json

from repro.obs import EventBus, events
from repro.obs.clocks import ClockDomain
from repro.obs.monitor import ExactlyOnceMonitor
from repro.obs.recorder import (FlightRecorder, event_to_dict,
                                render_postmortem)


def _bus():
    bus = EventBus()
    ClockDomain().install(bus)
    return bus


def _tick(bus, t):
    event = events.ProcessExited(t=t, name="p")
    bus.emit(event)
    return event


def _send(bus, t):
    """Emit one event of a ringed (causal) kind: a pm.send by a:1/p."""
    event = events.MessageSent(t=t, endpoint="a:1", peer="b:1", msg_type=0,
                               call_number=int(t), segments=1, size=4,
                               proc="p")
    bus.emit(event)
    return event


# ---------------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------------

def test_ring_is_bounded_and_counts_drops():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=4)
    emitted = [_send(bus, float(i)) for i in range(10)]
    assert len(recorder.ring) == 4
    assert recorder.dropped == 6
    assert list(recorder.ring) == emitted[-4:]


def test_first_overflow_emits_exactly_one_warning():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=4)
    warnings = []
    bus.subscribe(warnings.append, kinds=("mon.warn",))
    for i in range(10):
        _send(bus, float(i))
    (warning,) = warnings                 # once, not per dropped event
    assert warning.kind == "mon.warn"
    assert warning.source == "FlightRecorder"
    assert "capacity 4" in warning.message
    assert warning.dropped == 1           # the count at first overflow
    # The recorder skips its own warning: the drop accounting counts
    # only real events (10 sends - 4 kept = 6 dropped).
    assert recorder.dropped == 6
    assert all(e.kind != "mon.warn" for e in recorder.ring)


def test_no_warning_below_capacity():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=8)
    warnings = []
    bus.subscribe(warnings.append, kinds=("mon.warn",))
    for i in range(8):
        _tick(bus, float(i))
    assert warnings == []
    assert recorder.dropped == 0


def test_detach_stops_recording():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=4)
    _send(bus, 1.0)
    recorder.detach()
    bus.subscribe(lambda e: None)       # keep the bus active
    _send(bus, 2.0)
    assert len(recorder.ring) == 1


# ---------------------------------------------------------------------------
# Causal cuts
# ---------------------------------------------------------------------------

def _seed_violation(bus, recorder):
    """Drive a duplicate execution through a real monitor; return the
    violation it emitted."""
    monitor = ExactlyOnceMonitor()
    monitor.attach(bus)
    for t in (1.0, 2.0):
        bus.emit(events.ExecutionStarted(
            t=t, host="h1", proc="echo", thread_id="th", call_number=1,
            troupe_id=9, module=0, procedure=0, callers=1,
            group_complete=True))
    (violation,) = recorder.violations
    return violation


def test_causal_cut_contains_only_the_causal_past():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=64)
    # Kernel events are on an unrelated node: concurrent with the
    # replica's executions, so outside the violation's causal past.
    _tick(bus, 0.5)
    violation = _seed_violation(bus, recorder)
    _tick(bus, 9.0)
    cut = recorder.causal_cut(violation)
    assert [e.kind for e in cut] == ["rpc.exec_start", "rpc.exec_start"]
    lamports = [e.lamport for e in cut]
    assert lamports == sorted(lamports)
    assert violation not in cut


def test_causal_cut_without_clocks_degrades_to_prefix():
    bus = EventBus()                    # no stamper installed
    recorder = FlightRecorder(bus, capacity=64)
    before = _send(bus, 1.0)
    violation = events.InvariantViolation(t=2.0, monitor="m",
                                          invariant="i")
    bus.emit(violation)
    _send(bus, 3.0)
    assert recorder.causal_cut(violation) == [before]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_event_to_dict_reduces_payload_bytes_to_sizes():
    event = events.MessageSent(t=1.0, endpoint="a:1", peer="b:1",
                               msg_type=0, call_number=1, segments=1,
                               size=12, proc="p")
    out = event_to_dict(event)
    assert out["kind"] == "pm.send"
    assert out["endpoint"] == "a:1"
    assert "node" not in out            # never stamped


def test_postmortem_dump_round_trips_as_json(tmp_path):
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=64)
    _seed_violation(bus, recorder)
    path = tmp_path / "dump.json"
    report = recorder.dump(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == report
    assert loaded["format"] == "repro.postmortem/1"
    assert loaded["dropped"] == 0
    (vdict,) = loaded["violations"]
    assert vdict["invariant"] == "exactly-once"
    assert len(vdict["causal_cut"]) == 2
    assert vdict["frontier"]
    # The whole report survived JSON: no stray objects anywhere.
    json.dumps(loaded)


def test_crash_report_includes_causally_ordered_tail():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=64)
    for t in (1.0, 2.0, 3.0):
        _send(bus, t)
    recorder.record_crash(ValueError("boom"), t=3.5)
    report = recorder.postmortem()
    assert report["crash"] == {"type": "ValueError", "message": "boom",
                               "t": 3.5}
    tail = report["tail"]
    # Sends by one process tick its clocks in turn, and the causal sort
    # keeps them in emission order.
    assert [e["t"] for e in tail] == [1.0, 2.0, 3.0]
    assert [(e["lamport"], e["vc"]) for e in tail] == [
        (n, {"a/p": n}) for n in (1, 2, 3)]


def test_render_postmortem_is_human_readable():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=64)
    _seed_violation(bus, recorder)
    text = render_postmortem(recorder.postmortem())
    assert "=== post-mortem (repro.postmortem/1) ===" in text
    assert "1 violation(s)" in text
    assert "exactly-once" in text
    assert "ExactlyOnceMonitor" in text
    assert "offending events:" in text
    assert "causal past (2 events, causal order):" in text
    assert "rpc.exec_start" in text


def test_render_postmortem_reports_clean_runs():
    recorder = FlightRecorder(EventBus(), capacity=8)
    text = render_postmortem(recorder.postmortem())
    assert "0 violation(s)" in text


def test_membership_timeline_survives_ring_eviction():
    """Every bind.member event lands in the post-mortem's membership
    timeline — outside the bounded ring, so reconfigurations recorded
    long before a violation are never evicted."""
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=4)
    bus.emit(events.MembershipChanged(
        t=1.0, host="m0", proc="agent", op="register", name="svc",
        old_id=0, new_id=7, members=1))
    bus.emit(events.MembershipChanged(
        t=2.0, host="m0", proc="agent", op="add", name="svc",
        old_id=7, new_id=8, members=2))
    for t in range(10, 20):             # evict everything from the ring
        _tick(bus, float(t))
    bus.emit(events.MembershipChanged(
        t=25.0, host="m0", proc="agent", op="remove", name="svc",
        old_id=8, new_id=9, members=1))
    report = recorder.postmortem()
    timeline = report["membership"]
    assert [e["op"] for e in timeline] == ["register", "add", "remove"]
    assert [(e["old_id"], e["new_id"]) for e in timeline] == \
        [(0, 7), (7, 8), (8, 9)]
    assert all(e["name"] == "svc" for e in timeline)
    # ...and the renderer shows the troupe-ID timeline.
    text = render_postmortem(report)
    assert "membership history (3 change(s)):" in text
    assert "id 7 -> 8" in text
    json.dumps(report)


def test_postmortem_omits_membership_when_none_recorded():
    bus = _bus()
    recorder = FlightRecorder(bus, capacity=8)
    _tick(bus, 1.0)
    assert "membership" not in recorder.postmortem()
