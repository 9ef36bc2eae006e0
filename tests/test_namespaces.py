"""The package namespaces ``repro``, ``repro.obs``, ``repro.net``,
``repro.explore`` and ``repro.bench`` keep their public names however they are loaded:
every ``__all__`` name is the very object a submodule of the package
defines, ``from X import *`` and ``dir(X)`` see all of them, a submodule
is an attribute of its package even before anything imported it, and an
unknown name is an ``AttributeError`` naming the package."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

PACKAGES = ("repro", "repro.obs", "repro.net", "repro.explore",
            "repro.bench")

#: submodules read as package attributes in a fresh interpreter, each
#: listed after the ones it imports, so that none is imported before its
#: own turn by reading another
SUBMODULES = {
    "repro": ("obs", "sim", "net", "host", "rpc", "pairedmsg", "core",
              "harness"),
    "repro.obs": ("events", "clocks", "bus", "metrics", "export", "history",
                  "monitor", "lincheck", "trace", "critpath", "recorder",
                  "top"),
    "repro.net": ("addresses", "network", "udp", "tcp"),
    "repro.explore": ("schedule", "shrink", "driver", "scenarios"),
    "repro.bench": ("report", "scenarios", "echo", "workloads", "gated"),
}


def _submodules(package):
    return [importlib.import_module(package.__name__ + "." + info.name)
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_is_the_object_a_submodule_defines(name):
    package = importlib.import_module(name)
    submodules = _submodules(package)
    for export in package.__all__:
        value = getattr(package, export)
        if export in {m.__name__.rsplit(".", 1)[1] for m in submodules}:
            assert value is sys.modules[name + "." + export]
        elif not any(getattr(module, export, None) is value
                     for module in submodules):
            # then the package itself defines it
            assert export == "__version__" or value.__module__ == name, (
                name, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_and_dir_list_every_exported_name(name):
    package = importlib.import_module(name)
    namespace = {}
    exec("from %s import *" % name, namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("name", PACKAGES)
def test_a_fresh_package_lists_its_names_and_reads_its_submodules(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import importlib, json, sys\n"
            "package = importlib.import_module(sys.argv[1])\n"
            "listed = set(package.__all__) <= set(dir(package))\n"
            "print(json.dumps([listed] + [\n"
            "    getattr(package, sub) is sys.modules[sys.argv[1] + '.' + sub]\n"
            "    for sub in json.loads(sys.argv[2])]))")
    out = subprocess.run(
        [sys.executable, "-c", code, name, json.dumps(SUBMODULES[name])],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
        stdout=subprocess.PIPE).stdout
    assert json.loads(out) == [True] * (1 + len(SUBMODULES[name]))
