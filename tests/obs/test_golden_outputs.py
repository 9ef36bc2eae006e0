"""Byte-identity regression: observation got cheaper, not different.

Every fixture under ``golden/`` is the exact output of the commit *before*
the event hot path was rebuilt (per-kind guard, per-kind dispatch, O(1)
stamping, cached instruments, slotted events).  The outputs below pass
through every piece that was touched — emission sites, stamps, the metric
registries, the flight recorder, the history recorder — so any drift in
event order, stamp values, label rendering or float formatting shows up
as a byte difference.

Regenerate after an *intentional* behaviour change with:

    PYTHONPATH=src python tests/obs/test_golden_outputs.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.core import CollationError, ExportedModule
from repro.harness import World

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def _check_all() -> str:
    return _cli("check", "all")


def _critpath_json() -> str:
    return _cli("critpath", "circus", "--json")


def _openmetrics() -> str:
    return _cli("metrics", "circus", "--openmetrics")


def _top() -> str:
    """The last frame of ``repro top circus --plain`` and its summary
    line: the rate columns are where users read the windows."""
    frames = _cli("top", "circus", "--plain").split("--------\n")
    return "--------\n".join(frames[-2:])


def _fuzz_files() -> dict:
    """One failing explorer seed (bank-transfer 396: a strict-serializable
    violation under partitions): its post-mortem and checked history."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _cli("fuzz", "--scenario", "bank-transfer", "--base-seed", "396",
             "--seeds", "1", "--out-dir", str(tmp / "out"),
             "--history-artifacts", str(tmp / "hist"), "--json")
        stem = "bank-transfer-seed396"
        return {
            "fuzz_postmortem.json":
                (tmp / "out" / (stem + ".postmortem.json")).read_text(),
            "fuzz_history.json":
                (tmp / "hist" / (stem + ".history.json")).read_text(),
        }


def _monitor_postmortem() -> str:
    """A monitor violation with a real causal cut: one replica returns a
    mutated reply, the collation monitor fires, and the post-mortem holds
    every stamped event in the violation's causal past."""
    # Troupe IDs are otherwise drawn from a process-wide counter.
    world = World(machines=4, seed=5, troupe_id_base=100)
    built = []

    def factory():
        index = len(built)
        built.append(index)

        def echo(ctx, args):
            yield from ctx.compute(1.0)
            if index == 1 and args == b"poison":
                return b"corrupt:" + args
            return b"echo:" + args
        return ExportedModule("echo", {0: echo})

    troupe, _ = world.make_troupe("echo", factory, degree=3)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"clean")
        with contextlib.suppress(CollationError):
            yield from client.call_troupe(troupe, 0, 0, b"poison")

    with world.watch(trace=True) as probe:
        world.run(body())
    assert probe.violations
    return json.dumps(probe.postmortem(), indent=2) + "\n"


def _causal_cuts() -> str:
    """What each violation's causal cut explains with: its events of the
    causal kinds as a sorted ``(kind, t)`` list, one line per event —
    for the monitor post-mortem above and for elastic-adversarial seed
    302 (crashes, restarts and two collation violations; a ring large
    enough never to overflow).  Captured while the recorder still rang
    every kind, so it pins that ringing only the causal kinds loses
    nothing a cut is made of."""
    from repro import explore
    from repro.obs.events import CAUSAL_KINDS
    reports = (
        ("monitor-postmortem", json.loads(_monitor_postmortem())),
        ("elastic-adversarial-302", explore.run(
            "elastic-adversarial", 302, capacity=1 << 16).postmortem))
    lines = []
    for name, report in reports:
        for index, violation in enumerate(report["violations"]):
            cut = sorted((e["kind"], e["t"]) for e in violation["causal_cut"]
                         if e["kind"] in CAUSAL_KINDS)
            lines.extend("%s %d %s %r" % (name, index, kind, t)
                         for kind, t in cut)
    return "\n".join(lines) + "\n"


def _produce() -> dict:
    from tests.obs.test_monitors import (determinism_postmortem,
                                         exactly_once_postmortem)
    files = {
        "determinism_postmortem.json": determinism_postmortem(),
        "exactly_once_postmortem.json": exactly_once_postmortem(),
        "causal_cuts.txt": _causal_cuts(),
        "check_all.txt": _check_all(),
        "critpath_circus.json": _critpath_json(),
        "metrics_circus.openmetrics": _openmetrics(),
        "monitor_postmortem.json": _monitor_postmortem(),
        "top_circus.txt": _top(),
    }
    files.update(_fuzz_files())
    return files


@pytest.mark.parametrize("name,producer", [
    ("check_all.txt", _check_all),
    ("critpath_circus.json", _critpath_json),
    ("metrics_circus.openmetrics", _openmetrics),
    ("monitor_postmortem.json", _monitor_postmortem),
    ("top_circus.txt", _top),
])
def test_output_is_byte_identical_to_the_parent_commit(name, producer):
    assert producer() == (GOLDEN / name).read_text()


def test_causal_cuts_keep_every_causal_event_they_had():
    assert _causal_cuts() == (GOLDEN / "causal_cuts.txt").read_text()


def test_fuzz_postmortem_and_history_are_byte_identical():
    for name, text in _fuzz_files().items():
        assert text == (GOLDEN / name).read_text(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in _produce().items():
        (GOLDEN / name).write_text(text)
        print("wrote %s (%d bytes)" % (GOLDEN / name, len(text)))
