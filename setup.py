"""Setuptools shim so `pip install -e .` works without the `wheel` package
(this environment is offline and cannot fetch PEP 517 build dependencies).

Optional accelerated build: set ``REPRO_ACCEL=1`` to compile the three
hot modules (``sim.kernel``, ``sim.events``, ``pairedmsg.segments``)
with mypyc::

    REPRO_ACCEL=1 pip install -e .[accel]

When mypy[c] or a C toolchain is missing the build falls back to
pure-Python with a warning — the interpreted modules are always the
source of truth, and virtual time is byte-identical under both builds
(CI runs tier-1, whose ``tests/test_bench_gated.py`` holds the work
tables to ``BENCH_BASELINE.json`` exactly, under each).
"""

import os

from setuptools import setup

#: the hot modules the accel build compiles (mirrored in repro.accel).
ACCEL_MODULES = [
    "src/repro/sim/kernel.py",
    "src/repro/sim/events.py",
    "src/repro/pairedmsg/segments.py",
]


def _accel_ext_modules():
    if os.environ.get("REPRO_ACCEL") != "1":
        return []
    try:
        from mypyc.build import mypycify
    except ImportError:
        import warnings

        warnings.warn(
            "REPRO_ACCEL=1 but mypyc is not installed; building "
            "pure-Python instead (install the accel extra: "
            "pip install -e .[accel])")
        return []
    return mypycify(ACCEL_MODULES, opt_level="3")


setup(ext_modules=_accel_ext_modules())
