"""``explore.sweep``: forked workers produce exactly what the in-process
loop produces, the sweep stays in this process whenever the caller could
tell the difference, and a worker that dies or raises fails legibly with
nothing left behind."""

import cProfile
import dataclasses
import json
import multiprocessing
import os
import pickle
import pstats
import sys

import pytest

from repro import explore
from repro.cli import main
from repro.obs.export import ProgressChannel
from repro.obs.monitor import InvariantMonitor

# These tests tell workers from this process.  Where a sweep would not
# fork at all — no fork start method, or pytest itself running under a
# debugger or coverage tracer — there is nothing to tell apart.
pytestmark = pytest.mark.skipif(
    explore._must_stay_here({}),
    reason="sweeps stay in-process here (no fork, or a tracer is active)")

#: bank-transfer seeds around 396, the one that violates
#: strict-serializable (wallbench/inputs.py FUZZ_KNOWN_VIOLATIONS), so a
#: post-mortem crosses the pipe too.
BANK_SEEDS = [394, 395, 396, 397, 398]


def _recording_channel():
    channel, rows = ProgressChannel(), []
    channel.listen(lambda task, row: rows.append((task, dict(row))))
    return channel, rows


def _probe_scenario(hook):
    """The echo scenario with ``hook(seed)`` run first in every build —
    a closure, like every registered scenario's factory, so it can only
    reach a worker by inheritance."""
    echo = explore.get_scenario("echo")
    return dataclasses.replace(
        echo, factory=lambda seed: hook(seed) or echo.factory(seed))


def _pid_probe():
    """A scenario that notes, in *this* process's list, the pid of every
    build: empty after a sweep means every seed ran somewhere else."""
    pids = []
    return _probe_scenario(lambda seed: pids.append(os.getpid())), pids


def test_workers_equal_in_process_field_by_field():
    here, here_rows = _recording_channel()
    there, there_rows = _recording_channel()
    serial = explore.sweep("bank-transfer", BANK_SEEDS, progress=here,
                           jobs=1)
    forked = explore.sweep("bank-transfer", BANK_SEEDS, progress=there,
                           jobs=2)
    assert [r.seed for r in forked] == BANK_SEEDS
    assert [r.ok for r in serial] == [True, True, False, True, True]
    for a, b in zip(serial, forked):
        assert a.digest() == b.digest()
        assert a.outcome == b.outcome
        assert a.crash == b.crash
        assert a.stats == b.stats
        assert list(a.stats) == list(b.stats)
        assert a.history == b.history
        assert a.schedule == b.schedule
        assert a.violations == b.violations
        assert json.dumps(a.postmortem) == json.dumps(b.postmortem)
        assert a == b
    assert serial[2].postmortem is not None
    assert here_rows == there_rows
    assert [row["seed"] for _task, row in there_rows] == BANK_SEEDS
    assert [row["failures"] for _task, row in there_rows] == [0, 0, 1, 1, 1]
    assert here.snapshot() == there.snapshot() == {}
    # a swept result shrinks like a run one: its monitors came back as
    # the same classes
    assert forked[2]._kwargs == serial[2]._kwargs


def test_a_scenario_holding_a_closure_sweeps_in_workers():
    scenario, pids = _pid_probe()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(scenario)
    forked = explore.sweep(scenario, range(6), jobs=2)
    assert pids == []
    assert [r.digest() for r in forked] \
        == [r.digest() for r in explore.sweep("echo", range(6), jobs=1)]
    assert multiprocessing.active_children() == []


def test_default_is_one_worker_per_available_cpu(monkeypatch):
    scenario, pids = _pid_probe()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    explore.sweep(scenario, range(4))
    assert pids == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    explore.sweep(scenario, range(4))
    assert pids == [os.getpid()] * 4


class _Counter(InvariantMonitor):
    invariant = "test-event-count"

    def __init__(self):
        super().__init__()
        self.events = 0

    def attach(self, bus):
        self._bus = bus
        self._sub = bus.subscribe(self.observe)
        return self

    def observe(self, event) -> None:
        self.events += 1


@pytest.mark.parametrize("seeds, jobs", [([1, 2, 3], 1), ([1], 2)],
                         ids=["one-job", "one-seed"])
def test_one_job_or_one_seed_stays_in_process(seeds, jobs):
    scenario, pids = _pid_probe()
    explore.sweep(scenario, seeds, jobs=jobs)
    assert pids == [os.getpid()] * len(seeds)


def test_a_monitor_instance_keeps_the_sweep_here_and_sees_its_events():
    scenario, pids = _pid_probe()
    counter = _Counter()
    explore.sweep(scenario, [1, 2, 3], jobs=2, monitors=[counter])
    assert pids == [os.getpid()] * 3
    assert counter.events > 0


def test_an_enabled_profiler_keeps_the_sweep_here_and_sees_run():
    scenario, pids = _pid_probe()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        explore.sweep(scenario, [1, 2, 3], jobs=2)
    finally:
        profiler.disable()
    assert pids == [os.getpid()] * 3
    profiled = {(os.path.basename(os.path.dirname(path)), func)
                for path, _line, func in pstats.Stats(profiler).stats}
    assert ("explore", "run") in profiled


def test_a_tracer_keeps_the_sweep_here():
    scenario, pids = _pid_probe()
    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        explore.sweep(scenario, [1, 2, 3], jobs=2)
    finally:
        sys.settrace(before)
    assert pids == [os.getpid()] * 3


def test_without_a_fork_start_method_the_sweep_stays_here(monkeypatch):
    scenario, pids = _pid_probe()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    explore.sweep(scenario, [1, 2, 3], jobs=2)
    assert pids == [os.getpid()] * 3


def test_monitor_classes_do_not_keep_the_sweep_here():
    scenario, pids = _pid_probe()
    results = explore.sweep(scenario, [1, 2, 3], jobs=2,
                            monitors=[_Counter])
    assert pids == [] and all(r.ok for r in results)


def test_a_sweep_inside_a_worker_stays_in_that_worker():
    # Workers are daemonic and may not have children of their own.
    inner = []
    scenario = _probe_scenario(lambda seed: inner.append(len(
        explore.sweep("echo", [seed, seed + 1], jobs=2,
                      progress=ProgressChannel()))))
    results = explore.sweep(scenario, [1, 2, 3], jobs=2)
    assert inner == [] and len(results) == 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_in_run_arrives_as_itself_and_drops_the_row(jobs):
    def hook(seed):
        if seed == 2:
            raise LookupError("no world for seed %d" % seed)

    channel, rows = _recording_channel()
    with pytest.raises(LookupError, match="no world for seed 2"):
        explore.sweep(_probe_scenario(hook), range(5), progress=channel,
                      jobs=jobs)
    # seeds before it were published, in order, exactly as in-process
    assert [row["seed"] for _task, row in rows] == [0, 1]
    assert channel.snapshot() == {}
    assert multiprocessing.active_children() == []


def test_progress_row_is_dropped_when_a_listener_raises():
    channel = ProgressChannel()

    def listener(task, row):
        assert channel.snapshot()             # the row is up while we run
        raise KeyboardInterrupt

    channel.listen(listener)
    with pytest.raises(KeyboardInterrupt):
        explore.sweep("echo", range(4), progress=channel, jobs=2)
    assert channel.snapshot() == {}
    assert multiprocessing.active_children() == []


def test_dead_worker_is_a_typed_error_with_nothing_left_behind():
    parent = os.getpid()

    def hook(seed):
        if seed == 3 and os.getpid() != parent:
            os._exit(7)

    channel, _rows = _recording_channel()
    with pytest.raises(explore.SweepWorkerDied,
                       match=r"seed 3 \(exit code 7\)"):
        explore.sweep(_probe_scenario(hook), range(8), progress=channel,
                      jobs=2)
    assert multiprocessing.active_children() == []
    assert channel.snapshot() == {}


def test_fuzz_cli_bytes_do_not_depend_on_jobs(capsys, tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["fuzz", "--scenario", "echo", "--seeds", "6", "--json",
                     "--out-dir", str(tmp_path), "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["seeds"] == 6
