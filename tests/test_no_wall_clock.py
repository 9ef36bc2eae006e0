"""``src/repro`` reads no wall clock.

Everything the program computes is virtual time or a count of simulated
work; host time is measured in exactly one place, ``python3 -m
wallbench``.  Importing ``time`` anywhere under ``src/repro`` is how a
wall-clock figure would creep back in, so the import itself is the
failure.

The cyclic collector is the other piece of host state the program may
lean on, and it does so in one place: ``run_sharded`` holds it off for
the lifetime of the world it owns (``repro.sim.sharded._collector_held``).
A second ``import gc`` would be a second policy.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imports(tree, module):
    """Line numbers in ``tree`` that import the top-level ``module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            yield node.lineno


def _importers(module):
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50      # walked the package, not an empty dir
    return ["%s:%d" % (path.relative_to(SRC), line)
            for path in files
            for line in _imports(ast.parse(path.read_text()), module)]


def test_nothing_under_src_repro_imports_time():
    assert _importers("time") == []


def test_exactly_one_module_under_src_repro_imports_gc():
    # repro.binding.gc (the binding agent's garbage collector) is a
    # module *named* gc, reached as ``repro.binding.gc`` — not an import
    # of the interpreter's.
    assert [where.split(":")[0] for where in _importers("gc")] \
        == ["sim/sharded.py"]


def test_the_walker_sees_every_spelling():
    source = ("import time\nimport os, time as _t\nfrom time import sleep\n"
              "def f():\n    import time\nimport timeit\nfrom . import time\n")
    assert sorted(_imports(ast.parse(source), "time")) == [1, 2, 3, 5]
