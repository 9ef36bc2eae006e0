"""A forked sweep worker imports nothing: asking for a scenario imports
every module its seeds use, and the sweeping process does so before it
forks — else every worker of every sweep would import them again on its
first seed.

Each scenario is swept in a fresh interpreter (in this one, earlier tests
have imported everything), with 2 jobs, and each worker records the
modules its first seed added to ``sys.modules``.  ``bank-transfer`` seed
396 and ``register-divergence`` seed 3 fail: a failing seed is run again
under ``watch(trace=True)`` to explain it, and those observers load in
the worker that explains, not in every sweep."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import explore

pytestmark = pytest.mark.skipif(
    explore._must_stay_here({}),
    reason="sweeps stay in-process here (no fork, or a tracer is active)")

#: the first seed goes to worker 1, the second to worker 2
FIRST_SEEDS = {"bank-transfer": (396, 390), "register-divergence": (3, 4)}
#: what explaining a failing seed imports
EXPLAINERS = ["repro.obs.critpath", "repro.obs.recorder", "repro.obs.trace"]

_SWEEP = """
import json, os, sys
from repro import explore

real_run, seen = explore.run, []

def recording_run(scenario, seed, **kwargs):
    before = set(sys.modules)
    result = real_run(scenario, seed, **kwargs)
    if not seen:
        seen.append(seed)
        result.first_seed = (os.getpid(), sorted(set(sys.modules) - before))
    return result

explore.run = recording_run
results = explore.sweep(sys.argv[1], json.loads(sys.argv[2]), jobs=2)
print(json.dumps({"sweeper": os.getpid(),
                  "ok": [r.ok for r in results],
                  "first_seeds": [r.first_seed for r in results
                                  if hasattr(r, "first_seed")]}))
"""


@pytest.mark.parametrize("scenario", sorted(explore.SCENARIOS))
def test_a_forked_worker_imports_nothing_on_its_first_seed(scenario):
    seeds = list(FIRST_SEEDS.get(scenario, (0, 1)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP, scenario, json.dumps(seeds)],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=300,
        stdout=subprocess.PIPE).stdout
    report = json.loads(out.decode().splitlines()[-1])
    workers = {pid for pid, _imported in report["first_seeds"]}
    assert len(workers) == 2 and report["sweeper"] not in workers
    assert [imported for _pid, imported in report["first_seeds"]] == [
        [] if ok else EXPLAINERS for ok in report["ok"]]
    if scenario in FIRST_SEEDS:
        assert report["ok"] == [False, True]
