"""pytest integration for the fault-schedule explorer.

Registered from the repository-root ``conftest.py``::

    pytest_plugins = ("repro.explore.pytest_plugin",)

provides:

- the ``fuzz`` fixture — run seeds against scenarios; on a violation it
  writes the repro script (and post-mortem) under ``--fuzz-artifacts``
  and fails the test with the exact ``repro fuzz --replay`` command, and
- works with :func:`repro.explore.schedules` to parameterize a test over
  a block of seeds::

      @explore.schedules(n=50)
      def test_echo_fuzz(fault_seed, fuzz):
          fuzz.check("echo", fault_seed)
"""

from __future__ import annotations

import pytest

from repro import explore


def pytest_addoption(parser):
    group = parser.getgroup("fuzz", "fault-schedule explorer")
    group.addoption(
        "--fuzz-artifacts", action="store", default="fuzz-failures",
        metavar="DIR",
        help="directory for repro scripts and post-mortems of failing "
             "fuzz seeds (default: %(default)s)")


class Fuzzer:
    """What the ``fuzz`` fixture yields."""

    def __init__(self, artifacts_dir: str):
        self.artifacts_dir = artifacts_dir

    def run(self, scenario, seed: int, **kwargs) -> "explore.ExploreResult":
        """Run one seed; returns the result without judging it."""
        return explore.run(scenario, seed, **kwargs)

    def check(self, scenario, seed: int, shrink: bool = True,
              shrink_attempts: int = 150,
              **kwargs) -> "explore.ExploreResult":
        """Run one seed and fail the test on any oracle violation or
        crash, after writing the (shrunken) repro script."""
        result = explore.run(scenario, seed, **kwargs)
        if result.ok:
            return result
        schedule = result.schedule
        attempts = 0
        if shrink:
            try:
                schedule, attempts = explore.shrink_failure(
                    result, max_attempts=shrink_attempts)
            except Exception:   # never let the shrinker mask the failure
                schedule = result.schedule
        paths = explore.write_failure(result, self.artifacts_dir, schedule)
        pytest.fail(
            "fuzz seed %d violated %s on scenario %r "
            "(schedule shrunk to %d action(s) in %d re-runs)\n"
            "  repro script: %s\n  post-mortem:  %s\n"
            "  replay with:  repro fuzz --replay %s"
            % (seed, result.invariants() or [result.crash],
               result.scenario, len(schedule.actions), attempts,
               paths["schedule"], paths.get("postmortem", "-"),
               paths["schedule"]))


@pytest.fixture
def fuzz(request) -> Fuzzer:
    """The fault-schedule explorer, wired to ``--fuzz-artifacts``."""
    return Fuzzer(str(request.config.getoption("--fuzz-artifacts")))
