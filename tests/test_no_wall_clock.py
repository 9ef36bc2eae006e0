"""``src/repro`` reads no wall clock.

Everything the program computes is virtual time or a count of simulated
work; host time is measured in exactly one place, ``python3 -m
wallbench``.  Importing ``time`` anywhere under ``src/repro`` is how a
wall-clock figure would creep back in, so the import itself is the
failure.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _time_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "time" for name in names):
            yield node.lineno


def test_nothing_under_src_repro_imports_time():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50      # walked the package, not an empty dir
    offenders = ["%s:%d" % (path.relative_to(SRC), line)
                 for path in files
                 for line in _time_imports(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_walker_sees_every_spelling():
    source = ("import time\nimport os, time as _t\nfrom time import sleep\n"
              "def f():\n    import time\nimport timeit\nfrom . import time\n")
    assert sorted(_time_imports(ast.parse(source))) == [1, 2, 3, 5]
