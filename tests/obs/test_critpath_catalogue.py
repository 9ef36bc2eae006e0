"""The critical path checked against the event stream, on every scenario
of the explorer catalogue under each wait policy (§4.3.4).

One short seed of each scenario runs, fault schedule included, with the
default collator swapped for the policy's (a call that names its own
collator, such as a commit vote, keeps it).  The stream the analyzer
folds is read a second time here, by a plain pass over the raw events
that shares no code with the analyzer or its spans:

- the critical replica is the member whose ``rpc.result`` was the last
  one the client saw before its ``rpc.collate`` — emission order, not
  virtual time;
- its milestones are the analyzer's, placed from the raw ``pm.send`` and
  ``rpc.exec_*`` events, and a milestone out of order is a clamp.

For every call the analyzer did not mark degraded: its stages sum to
``end - start`` (to within float rounding: each stage is a difference of
two instants, so the sum may be off by an ulp of ``end`` a stage; seed 1
reads one ulp on six calls, seed 4 none), its critical replica is that
member, and its ``execute`` stage is that member's execution.  Every
clamp is counted in ``report()["clamped_milestones"]`` and marks its
call degraded.  Seed 4 clamps five milestones under the unanimous
policy and three under majority, all in elastic-adversarial, where two
client processes named ``client`` on host ``obs`` both number their
calls from 1: the analyzer places a send by host and process name, and
so does this fold, so calls 4 and 10 take the other client's later CALL
as their milestone 1.
"""

import collections
import math

import pytest

import repro.core.runtime as runtime
from repro import explore
from repro.core import collators
from repro.explore.driver import ScheduleDriver
from repro.explore.schedule import generate
from repro.obs import CritPathAnalyzer
from repro.obs.clocks import host_of
from repro.pairedmsg.segments import MSG_CALL, MSG_RETURN

SEED = 4

POLICIES = {"unanimous": collators.unanimous,
            "majority": collators.majority,
            "first-come": collators.first_come}

_KINDS = ("rpc.call_start", "rpc.result", "rpc.collate", "rpc.call_end",
          "rpc.exec_start", "rpc.exec_end", "pm.send")


def _run(name, policy, monkeypatch):
    """The seed under ``policy``: the analyzer's paths and report, and
    the raw events it folded."""
    monkeypatch.setattr(runtime, "UnanimousCollator", POLICIES[policy])
    scn = explore.get_scenario(name)
    built = scn.build(SEED)
    world = built.world
    driver = ScheduleDriver(world.sim, world.machines, world.net, generate(
        SEED, built.fault_machines, scn.horizon, scn.profile,
        scenario=scn.name))
    seen = []
    world.sim.bus.subscribe(seen.append, _KINDS)
    with CritPathAnalyzer(world.sim) as analyzer:
        driver.start()
        try:
            world.run(built.body(), name="explore-workload",
                      until=scn.budget)
        except Exception:       # a failed collation or an exhausted budget
            pass                # ends the workload, not the check
        driver.stop()
        return analyzer.paths(), analyzer.report(), seen


class _Call:
    __slots__ = ("results", "critical", "collated", "end")

    def __init__(self):
        self.results = []
        self.critical = self.collated = self.end = None


def _fold(seen):
    """``(calls, execs, sends)``: each ended call by ``(host, proc,
    thread, number, start)``; each finished execution as ``(host, proc,
    start, end)`` by ``(thread, number)``; each ``pm.send`` by call
    number."""
    calls, open_calls, open_execs = {}, {}, {}
    execs = collections.defaultdict(list)
    sends = collections.defaultdict(list)
    for e in seen:
        kind = e.kind
        if kind == "pm.send":
            sends[e.call_number].append(e)
            continue
        key = (e.host, e.proc, e.thread_id, e.call_number)
        if kind == "rpc.call_start":
            open_calls[key] = (e.t, _Call())
        elif kind == "rpc.exec_start":
            open_execs[key] = e.t
        elif kind == "rpc.exec_end":
            start = open_execs.pop(key, None)
            if start is not None:
                execs[e.thread_id, e.call_number].append(
                    (e.host, e.proc, start, e.t))
        elif key in open_calls:
            call = open_calls[key][1]
            if kind == "rpc.result":
                call.results.append(e)
            elif kind == "rpc.collate" and call.collated is None:
                call.collated = e.t
                call.critical = call.results[-1] if call.results else None
            elif kind == "rpc.call_end":
                start, call = open_calls.pop(key)
                call.end = e.t
                if call.critical is None and call.results:
                    call.critical = call.results[-1]
                calls[key + (start,)] = call
    return calls, execs, sends


def _last(times):
    return max(times) if times else None


def _clamps(ref, call, execs, sends):
    """How many of ``call``'s milestones, placed from the raw events,
    are out of order; and the critical replica's execution."""
    critical = call.critical
    crit_host = host_of(critical.member) if critical is not None else None
    mine = sends[ref.call_number]
    m_sent = _last([s.t for s in mine if s.msg_type == MSG_CALL
                    and host_of(s.endpoint) == ref.host and s.proc == ref.proc
                    and ref.start <= s.t <= ref.end
                    and (crit_host is None or host_of(s.peer) == crit_host)])
    runs = [x for x in execs[ref.thread_id, ref.call_number]
            if (crit_host is None or x[0] == crit_host) and x[3] <= ref.end]
    run = max(runs, key=lambda x: x[3]) if runs else None
    m_result = critical.t if critical is not None else None
    m_returned = None
    if run is not None:
        limit = m_result if m_result is not None else ref.end
        m_returned = _last([s.t for s in mine if s.msg_type == MSG_RETURN
                            and host_of(s.endpoint) == run[0]
                            and s.proc == run[1]
                            and host_of(s.peer) == ref.host
                            and s.t <= limit])
    cursor, clamps = ref.start, 0
    for t in (m_sent, run and run[2], run and run[3], m_returned, m_result,
              call.collated, ref.end):
        if t is None:
            continue
        if not cursor <= t <= ref.end:
            clamps += 1
        cursor = min(max(t, cursor), ref.end)
    return clamps, run


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(explore.scenarios.SCENARIOS))
def test_every_undegraded_critical_path_is_the_event_streams(
        monkeypatch, name, policy):
    paths, report, seen = _run(name, policy, monkeypatch)
    calls, execs, sends = _fold(seen)
    assert len(paths) == report["calls"]
    clamped = 0
    for path in paths:
        ref = path.call
        call = calls[ref.host, ref.proc, ref.thread_id, ref.call_number,
                     ref.start]
        assert call.end == ref.end
        clamps, run = _clamps(ref, call, execs, sends)
        clamped += clamps
        if clamps:
            assert path.degraded, ref.call_number
        if path.degraded:
            continue
        total = sum(duration for _stage, duration in path.stages)
        assert abs(total - (ref.end - ref.start)) \
            <= len(path.stages) * math.ulp(ref.end), path.to_dict()
        assert call.critical is not None and run is not None
        assert path.exec_node == "%s/%s" % run[:2] \
            and run[0] == host_of(call.critical.member), path.to_dict()
        assert dict(path.stages).get("execute", 0.0) == run[3] - run[2]
    assert report["clamped_milestones"] == clamped
