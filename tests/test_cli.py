"""Tests for the experiment CLI (`python -m repro ...`)."""

import pytest

from repro.cli import main


def test_table42(capsys):
    assert main(["table42"]) == 0
    out = capsys.readouterr().out
    assert "sendmsg" in out
    assert "8.1" in out


def test_deadlock(capsys):
    assert main(["deadlock"]) == 0
    out = capsys.readouterr().out
    assert "Eq 5.1" in out
    assert "0.500" in out  # k=2, n=2


def test_availability(capsys):
    assert main(["availability"]) == 0
    out = capsys.readouterr().out
    assert "6 min 40 s" in out


def test_multicast(capsys):
    assert main(["multicast"]) == 0
    out = capsys.readouterr().out
    assert "H_n*r" in out


def test_table41_small(capsys):
    assert main(["table41", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "Circus(5)" in out
    assert "UDP" in out and "TCP" in out


def test_fig48_small(capsys):
    assert main(["fig48", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_table43_small(capsys):
    assert main(["table43", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "sendmsg" in out


@pytest.mark.parametrize("command, builder", [
    ("table41", "table_4_1"), ("table42", "table_4_2"),
    ("table43", "table_4_3"), ("fig48", "figure_4_8")])
def test_an_experiment_prints_the_tables_its_builder_builds(
        command, builder, capsys):
    """The benchmark suite gates these builders' tables, so the command
    prints, at its default loop length, the very tables gated."""
    from repro.bench import echo
    tables, _results = getattr(echo, builder)(3)
    assert main([command, "--iterations", "3"]) == 0
    assert capsys.readouterr().out == "".join(
        table.render() + "\n" for table in tables)


@pytest.mark.parametrize("command, title", [
    ("table41", "Table 4.1:"), ("table42", "Table 4.2:"),
    ("table43", "Table 4.3:"), ("fig48", "Figure 4.8")])
def test_an_experiment_prints_the_gated_tables_at_its_default(
        command, title, capsys):
    """At its default loop length an experiment prints exactly the
    table(s) of its title that ``BENCH_BASELINE.json`` holds, in
    baseline order but the ASCII plot last."""
    import json
    import pathlib

    from repro.bench.report import Table
    baseline = pathlib.Path(__file__).parents[1] / "BENCH_BASELINE.json"
    expected = []
    for spec in json.loads(baseline.read_text())["tables"]:
        if spec["title"].startswith(title):
            table = Table(spec["title"], spec["columns"], notes=spec["notes"])
            for row in spec["rows"]:
                table.add_row(*row)
            expected.append(table)
    expected.sort(key=lambda table: "(ASCII)" in table.title)
    assert main([command]) == 0
    assert capsys.readouterr().out == "".join(
        table.render() + "\n" for table in expected)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_check_quickstart_is_clean(capsys, tmp_path):
    assert main(["check", "quickstart", "--dump-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "check quickstart" in out
    assert "ok (" in out and "monitors silent" in out
    assert list(tmp_path.iterdir()) == []    # no dump on a clean run


def test_check_circus_is_clean(capsys, tmp_path):
    assert main(["check", "circus", "--iterations", "5",
                 "--dump-dir", str(tmp_path)]) == 0
    assert "ok (" in capsys.readouterr().out


def test_check_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["check", "nonsense"])


def _violating_scenario():
    """A scenario seeded with a duplicate execution: the exactly-once
    monitor must fire and `repro check` must dump a post-mortem."""
    from repro.harness import World
    from repro.obs import events

    world = World(machines=1, seed=1)

    def body():
        for t in (1.0, 2.0):
            world.sim.bus.emit(events.ExecutionStarted(
                t=t, host="h1", proc="echo", thread_id="th",
                call_number=1, troupe_id=9, module=0, procedure=0,
                callers=1, group_complete=True))
        yield from ()

    return world, body


def test_check_dumps_postmortem_on_seeded_violation(capsys, tmp_path,
                                                    monkeypatch):
    from repro.bench import scenarios
    monkeypatch.setattr(scenarios, "quickstart", _violating_scenario)
    assert main(["check", "quickstart", "--dump-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED: 1 violation(s)" in out
    assert "exactly-once" in out
    dump = tmp_path / "quickstart_postmortem.json"
    assert dump.exists()
    # The dump re-renders through the postmortem subcommand, which also
    # exits nonzero because it holds a violation.
    assert main(["postmortem", str(dump)]) == 1
    rendered = capsys.readouterr().out
    assert "=== post-mortem" in rendered
    assert "exactly-once" in rendered
    assert "causal past" in rendered


def test_postmortem_of_clean_dump_exits_zero(capsys, tmp_path):
    import json
    dump = tmp_path / "clean.json"
    dump.write_text(json.dumps({"format": "repro.postmortem/1",
                                "recorded": 0, "dropped": 0,
                                "violations": [], "monitor_errors": [],
                                "crash": None}))
    assert main(["postmortem", str(dump)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_trace_writes_loadable_chrome_json(capsys, tmp_path):
    import json
    out = tmp_path / "quickstart_trace.json"
    assert main(["trace", "examples/quickstart.py", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    events = json.loads(out.read_text())["traceEvents"]
    spans = {event["cat"] for event in events if event.get("ph") == "X"}
    assert {"rpc", "rpc.exec"} <= spans


def test_metrics_renders_the_snapshot(capsys):
    assert main(["metrics", "circus", "--iterations", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    name, value = lines[0].split()
    assert name == "net.bytes_sent" and int(value) > 0
    assert any(line.startswith("rpc.") for line in lines)


def test_metrics_json_emits_bench_json_tables(capsys):
    import json
    assert main(["metrics", "circus", "--iterations", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (table,) = payload["tables"]
    assert table["title"] == "metrics: circus"
    assert table["columns"] == ["metric", "value"]
    metrics = {row[0] for row in table["rows"]}
    assert any(m.startswith("rpc.") for m in metrics)


def test_metrics_json_carries_schema_version(capsys):
    import json
    assert main(["metrics", "circus", "--iterations", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "repro.obs/1"


def test_metrics_openmetrics_exposition(capsys):
    assert main(["metrics", "circus", "--iterations", "3",
                 "--openmetrics"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# TYPE repro_schema info")
    assert 'repro_schema_info{version="repro.obs/1"} 1' in out
    assert "repro_critpath_attributed_pct" in out
    assert out.rstrip("\n").endswith("# EOF")


def test_critpath_renders_stage_table(capsys):
    assert main(["critpath", "circus", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "% attributed" in out
    assert "encode_send" in out
    assert "dominant stages:" in out


def test_critpath_json_is_deterministic_and_attributes_latency(capsys):
    import json

    def run():
        assert main(["critpath", "circus", "--iterations", "10",
                     "--json"]) == 0
        return capsys.readouterr().out

    first, second = run(), run()
    assert first == second                   # byte-identical re-run
    payload = json.loads(first)
    assert payload["schema_version"] == "repro.obs/1"
    report = payload["report"]
    assert report["attributed_pct"] >= 95.0
    assert report["residual_pct"] < 5.0


def test_critpath_per_call_lists_every_call(capsys):
    import json
    assert main(["critpath", "circus", "--iterations", "4", "--json",
                 "--per-call"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["calls"]) == 4
    for call in payload["calls"]:
        assert call["dominant"]
        assert call["stages"]


def test_top_plain_renders_frames_and_summary(capsys):
    assert main(["top", "circus", "--iterations", "5", "--plain",
                 "--slice", "200"]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "echo" in out
    assert "final:" in out


_SCHEDULE = '{"scenario": "echo", "seed": 1, "horizon": 100, "actions": %s}'


@pytest.mark.parametrize("argv, content, complaint", [
    (["postmortem", "PATH"], "not json", "not JSON"),
    (["postmortem", "PATH"], None, "No such file"),
    (["lincheck", "PATH"], '{"nope": 1}', "not an operation history"),
    (["fuzz", "--replay", "PATH"], '{"nope": 1}', "missing field 'scenario'"),
    (["fuzz", "--seed-file", "PATH"], '{"nope": 1}', "missing field 'seeds'"),
    (["fuzz", "--scenario", "nope"], None,
     "--scenario: unknown scenario 'nope' (choose from: "),
    (["fuzz", "--oracles", "bogus"], None,
     "--oracles: unknown invariant(s) ['bogus'] (choose from: "),
    (["elastic", "--pool", "1"], None,
     "--pool 1: the member pool needs at least 2 machines"),
    (["shard", "--machines", "12", "--cells", "5"], None,
     "12 machines do not split into 5 cells"),
    (["shard", "--degree", "5"], None,
     "cell size 3 cannot host a 5-member troupe"),
    (["lincheck", "PATH"], "[1, 2]", "not an operation history"),
    (["fuzz", "--replay", "PATH"], "[1, 2]", "not a fault schedule"),
    (["fuzz", "--replay", "PATH"], _SCHEDULE % '[{"kind": "crash", '
     '"at": "x", "machine": "m0"}]',
     "crash action: field 'at' is 'x', expected float"),
    (["fuzz", "--replay", "PATH"], _SCHEDULE % '"zz"',
     "field 'actions' is 'zz', expected a list"),
])
def test_bad_input_is_a_message_not_a_traceback(
        argv, content, complaint, capsys, tmp_path):
    """A bad file or argument is one ``repro: <message>`` line on stderr
    and exit 2, found before any world is built."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert main([str(path) if arg == "PATH" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "repro: %s: " % path if "PATH" in argv else "repro: ")
    assert complaint in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_shard_is_deterministic_in_either_mode(capsys):
    """``repro shard --json`` carries no mode and no wall clock, so two
    runs — and the forked coordinator — print the same bytes."""
    import json
    import multiprocessing

    argv = ["shard", "--machines", "8", "--shards", "2", "--cells", "4",
            "--sessions", "12", "--calls", "2", "--degree", "2"]

    def run(*extra):
        assert main(argv + list(extra)) == 0
        return capsys.readouterr().out

    first = run("--json")
    assert '"digest"' in first
    payload = json.loads(first)
    assert len(payload["shard_events"]) == 2
    assert sum(payload["shard_events"]) == payload["events"]
    assert run("--json") == first
    if "fork" in multiprocessing.get_all_start_methods():
        assert run("--mode", "process", "--json") == first
    text = run()
    assert text.startswith("shards-2 (inproc): ")
    assert "\n  balance         " in text and " % / " in text
    assert "wall" not in text
