"""DESIGN.md's index must describe the tree that exists.

Every ``repro.*`` module and every ``*.py`` / directory path DESIGN.md
names in backticks is checked against the checkout, so the document
cannot drift to listing files that are gone (it once listed an
``examples/bank_transfer.py`` that never existed).
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
BACKTICKED = set(re.findall(r"`([^`\s]+)`", DESIGN))


def _modules():
    return sorted(t for t in BACKTICKED
                  if re.fullmatch(r"repro(\.[a-z_]+)+", t))


def _paths():
    return sorted(t for t in BACKTICKED
                  if re.fullmatch(r"[\w/]+\.py", t)
                  or re.fullmatch(r"[\w/]+/", t))


def test_the_index_is_not_vacuous():
    assert len(_modules()) >= 15
    assert sum(p.startswith("examples/") for p in _paths()) >= 5
    assert sum(p.startswith("benchmarks/") for p in _paths()) >= 10


def test_every_listed_module_exists():
    missing = []
    for module in _modules():
        base = ROOT / "src" / module.replace(".", "/")
        if not (base.is_dir() or base.with_suffix(".py").is_file()):
            missing.append(module)
    assert missing == []


def test_every_listed_path_exists():
    # Bare ``bench_*.py`` names (the ablation list) live in benchmarks/.
    missing = [path for path in _paths()
               if not (ROOT / path).exists()
               and not (ROOT / "benchmarks" / path).exists()]
    assert missing == []
