"""What a process imports: each entry point, run in a fresh interpreter,
loads only the modules it uses.

``repro``, ``repro.obs``, ``repro.net``, ``repro.explore`` and
``repro.bench`` list their exports and import none of them (a name's
submodule loads when the name is first read), so the simulation kernel
loads no observer, an unobserved world loads no monitor, no explorer and
no TCP stack, ``repro --help`` loads no benchmark, and ``repro check``
loads no echo workload.  Every case starts a new interpreter:
in this one, earlier tests have imported everything.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _repro_modules(code: str):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(m for m in sys.modules\n"
         "                        if m.split('.')[0] == 'repro')))"],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
        stdout=subprocess.PIPE).stdout
    return set(json.loads(out.decode().splitlines()[-1]))


_ECHO_WORLD = """
import repro.harness
from repro.core import ExportedModule

def echo_module():
    def echo(ctx, args):
        yield from ctx.compute(1.0)
        return args
    return ExportedModule("echo", {0: echo})

world = repro.harness.World(machines=4, seed=1)
troupe, _members = world.make_troupe("echo", echo_module, degree=3)
client = world.make_client()

def body():
    replies = []
    for i in range(5):
        replies.append((yield from client.call_troupe(troupe, 0, 0, b"%d" % i)))
    return replies

assert world.run(body()) == [b"%d" % i for i in range(5)]
"""


def _cli(*argv):
    return ("import runpy, sys\nsys.argv = ['repro'] + %r\n"
            "try:\n    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n    pass\n" % (list(argv),))


def test_the_kernel_loads_the_event_taxonomy_and_the_bus_of_repro_obs():
    loaded = _repro_modules("import repro.sim.kernel")
    assert loaded - {m for m in loaded if m.startswith("repro.sim.")} == {
        "repro", "repro.obs", "repro.obs.events", "repro.obs.bus",
        "repro.sim"}
    assert len(loaded) <= 9, sorted(loaded)


def test_an_unobserved_echo_world_loads_no_observer_explorer_or_tcp():
    loaded = _repro_modules(_ECHO_WORLD)
    assert {m for m in loaded if m.startswith("repro.obs.")} == {
        "repro.obs.events", "repro.obs.bus"}
    assert not {m for m in loaded if m.startswith("repro.explore")}
    assert "repro.net.tcp" not in loaded


def test_the_explorer_loads_its_catalog_when_a_scenario_is_asked_for():
    catalog = {"repro.explore.schedule", "repro.explore.scenarios",
               "repro.transactions"}
    loaded = _repro_modules("from repro import explore")
    assert "repro.explore" in loaded and not loaded & catalog
    assert not {m for m in loaded if m.startswith("repro.transactions")}
    loaded = _repro_modules("from repro import explore\n"
                            "explore.get_scenario('bank-transfer')")
    assert catalog <= loaded


def test_help_loads_no_benchmark_or_analysis_module():
    for argv in (["--help"], ["fuzz", "--help"]):
        loaded = _repro_modules(_cli(*argv))
        assert "repro.cli" in loaded
        assert not {m for m in loaded
                    if m.startswith(("repro.bench", "repro.analysis"))}, argv


def test_check_loads_no_echo_workload_or_tcp_stack():
    loaded = _repro_modules(_cli("check", "quickstart", "--dump-dir",
                                 os.devnull))
    assert "repro.bench.scenarios" in loaded
    assert not {"repro.bench.echo", "repro.net.tcp"} & loaded, sorted(loaded)
