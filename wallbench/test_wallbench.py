"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest wallbench -q``.

Runs every workload at ``scale=0.02`` with the children in this process
(one real child process is spawned by the command-line test), so the
whole file takes a few seconds.
"""

import ast
import contextlib
import cProfile
import io
import json
import os
import pstats

import pytest

from wallbench import ROOT, child, cli, runner, spec, workloads
from wallbench.layers import Spans

SCALE = 0.02
HERE = os.path.dirname(os.path.abspath(__file__))

#: what wallbench may import from the program: stable public modules,
#: never repro.cli, repro.bench.* or benchmarks/ (ROADMAP item 3 will
#: rewrite those; the benchmark owns copies of what it needs from them).
ALLOWED_IMPORTS = {
    "repro", "repro.accel", "repro.core", "repro.explore", "repro.harness",
    "repro.net.network", "repro.obs", "repro.pairedmsg",
    "repro.pairedmsg.segments", "repro.rpc", "repro.sim.events",
    "repro.sim.kernel", "repro.sim.sharded",
}


_DRIVERS_RESULT = []


@pytest.fixture
def tiny(monkeypatch):
    """A Runner whose children run in this process, with one probe and
    the (workload-independent) layer drivers run once per session."""
    drivers = _DRIVERS_RESULT

    def spawn(self, child_spec):
        if child_spec["kind"] == "drivers" and drivers:
            return json.loads(drivers[0])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            child.main(["child", json.dumps(child_spec)])
        line = out.getvalue().splitlines()[-1]
        if child_spec["kind"] == "drivers":
            drivers.append(line)
        return json.loads(line)
    monkeypatch.setattr(runner.Runner, "_spawn", spawn)
    monkeypatch.setattr(runner, "PROBES", 1)
    return runner.Runner(seed=7, seconds=1.0, scale=SCALE)


def _values(report, names):
    return {name: report["metrics"][name]["value"] for name in names}


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert contract["command"] == ["python3", "-m", "wallbench"]
    assert contract["paths"] == ["wallbench"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] \
        == list(spec.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == [tuple(m)
                                                 for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == [tuple(m)[:3]
                                                for m in spec.PER_LAYER]
    assert any(m.name == "setup_s" and m.bound == max(
        x.bound for x in spec.END_TO_END) for m in spec.END_TO_END)


def test_imports_stay_on_the_allow_list():
    imported = set()
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(HERE, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                # "from repro import explore" imports repro.explore
                imported.update("%s.%s" % (node.module, alias.name)
                                for alias in node.names
                                if node.module == "repro")
    from_program = {name for name in imported
                    if name == "repro" or name.startswith("repro.")}
    assert from_program <= ALLOWED_IMPORTS, from_program - ALLOWED_IMPORTS
    assert not any(name.startswith("benchmarks") for name in imported)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_every_workload_reports_every_metric_and_repeats_exactly(tiny, name):
    first, again = tiny.end_to_end(name), tiny.end_to_end(name)
    assert first["correct"], first["notes"]["failures"]
    assert first["failed"] == 0 and first["attempted"] >= 1
    assert list(first["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(metric["value"] > 0 for metric in first["metrics"].values())
    simulated = ("sim_ms_per_call", "sim_p99_ms")
    assert _values(first, simulated) == _values(again, simulated)
    assert first["notes"]["digest"] == again["notes"]["digest"]

    layers = tiny.layers(name)
    assert layers["correct"], layers["notes"]["failures"]
    assert list(layers["metrics"]) == [m.name for m in spec.PER_LAYER]
    assert layers["metrics"]["trace.attributed_pct"]["value"] >= 95.0
    if name in ("circus-seq", "lossy-bulk"):
        # zero cost when not attached
        assert layers["metrics"]["obs.bus.self_us_per_call"]["value"] == 0
        assert layers["metrics"][
            "obs.subscribers.self_us_per_call"]["value"] == 0
    if name in ("observed", "fuzz-bank"):
        assert layers["metrics"]["obs.events_per_call"]["value"] > 0


@pytest.mark.parametrize("name", ["lossy-bulk", "capacity-1000"])
def test_counts_repeat_exactly(tiny, name):
    # (b) is deterministic, except the counts divided by host time
    counts = [m.name for m in spec.COUNTS if m.unit not in ("1/s", "x")]
    assert _values(tiny.layers(name), counts) \
        == _values(tiny.layers(name), counts)


def test_sharded_digest_equals_single_kernel(tiny):
    one = tiny.end_to_end("capacity-1000")
    two = tiny.end_to_end("capacity-1000-x2")
    assert one["notes"]["digest"] == two["notes"]["digest"]
    simulated = ("sim_ms_per_call", "sim_p99_ms")
    assert _values(one, simulated) == _values(two, simulated)


def test_profile_buckets_account_for_all_profiled_time():
    profiler = cProfile.Profile()
    result = workloads.run_echo("lossy-bulk", 7, 1.0, SCALE, Spans(),
                                profiler=profiler)
    seconds = result["profile"]["seconds"]
    profiled = sum(row[2] for row in pstats.Stats(profiler).stats.values())
    assert sum(seconds.values()) == pytest.approx(profiled, rel=0.005)
    assert set(seconds) == set(spec.LAYERS)
    assert seconds["pairedmsg"] > 0 and seconds["sim"] > 0
    assert result["profile"]["attributed"] >= 0.95


def test_a_wrong_reply_is_a_failed_operation(tiny, monkeypatch, capsys):
    def corrupting_module():
        def echo(ctx, args):
            yield from ctx.compute(1.0)
            return args[::-1]
        return workloads.ExportedModule("echo", {0: echo})
    monkeypatch.setattr(workloads, "echo_module", corrupting_module)
    report = tiny.end_to_end("circus-seq")
    assert not report["correct"] and report["failed"] > 0
    assert any("differ" in line for line in report["notes"]["failures"])
    code = cli.main(["--workload", "circus-seq", "--seconds", "1",
                     "--scale", str(SCALE)])
    assert code != 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] > 0


def test_a_failing_seed_is_a_failed_operation(tiny, monkeypatch):
    # 396 is on inputs.FUZZ_KNOWN_VIOLATIONS: the scenario's own
    # serializability oracle reports it.
    monkeypatch.setattr(workloads, "fuzz_seeds",
                        lambda seed, count: [396] * count)
    report = tiny.end_to_end("fuzz-bank")
    assert not report["correct"] and report["failed"] > 0
    assert any("strict-serializable" in line
               for line in report["notes"]["failures"])


def test_an_exception_in_a_workload_is_a_failed_operation(tiny, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")
    monkeypatch.setattr(workloads, "run_fuzz", broken)
    report = tiny.end_to_end("fuzz-bank")
    assert not report["correct"] and report["failed"] > 0
    assert any("planted" in line for line in report["notes"]["failures"])


def test_command_line_contract_with_a_real_child(capsys, tmp_path):
    code = cli.main(["--workload", "circus-seq", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--scale", str(SCALE),
                     "--trace-out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m.name: m.unit for m in spec.END_TO_END}
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {"name", "start", "end", "parent", "workload"} <= set(spans[0])
    batch = next(s for s in spans if s["name"] == "batch:circus-seq")
    assert spans[batch["parent"]]["name"] == "circus-seq/timed"


def test_compare_names_each_verdict(tmp_path, capsys):
    def doc(calls_per_s, sim_ms, spread):
        metrics = {m.name: {"value": 1.0, "unit": m.unit}
                   for m in spec.END_TO_END}
        metrics["calls_per_s"]["value"] = calls_per_s
        metrics["sim_ms_per_call"]["value"] = sim_ms
        return {"machine": {}, "seed": 7, "failed": 0, "reports": [{
            "workload": "circus-seq", "trace": 0, "metrics": metrics,
            "notes": {"digest": "d", "spread": {"calls_per_s": spread}}}]}
    paths = {}
    for key, content in (("base", doc(1000.0, 69.4, 0.02)),
                         ("slow", doc(700.0, 69.4, 0.02)),
                         ("noisy", doc(990.0, 69.4, 0.5)),
                         ("moved", doc(1000.0, 70.0, 0.02))):
        paths[key] = str(tmp_path / (key + ".json"))
        with open(paths[key], "w") as fh:
            json.dump(content, fh)
    assert cli.main(["--compare", paths["base"], paths["base"]]) == 0
    capsys.readouterr()
    for key, verdict in (("slow", "worse"), ("noisy", "unresolved"),
                         ("moved", "changed")):
        assert cli.main(["--compare", paths["base"], paths[key]]) == 1
        assert verdict in capsys.readouterr().out
