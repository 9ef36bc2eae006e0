"""Figure 6.3 / Equations 6.1-6.2 — troupe availability.

The birth-death model: n members, exponential lifetimes (mean 1/lambda),
exponential repairs (mean 1/mu), failing and repaired independently.

    A = 1 - (lambda / (lambda + mu))^n                (Eq 6.1)
    1/mu = (1/lambda) (1-A)^(1/n) / (1-(1-A)^(1/n))   (Eq 6.2)

The experiment drives real machine crash/repair cycles and measures the
fraction of time at least one member was up, against the closed form;
it also reproduces the paper's worked example (3 members, one-hour
lifetime, 99.9% availability => replacement within 6 minutes 40 seconds).
"""

import pytest

from repro.analysis import availability, required_repair_time
from repro.bench.report import Table, register_table
from repro.harness import World
from repro.host import FailureModel


def measure_availability(n: int, failure_rate: float, repair_rate: float,
                         horizon: float = 600000.0, seed: int = 5) -> float:
    world = World(machines=n, seed=seed)
    model = FailureModel(world.sim, world.machines, failure_rate,
                         repair_rate, seed=seed)
    model.start()
    world.sim.run(until=horizon)
    return model.measured_availability()


def test_equation_6_1_availability():
    table = Table(
        "Eq 6.1 / Fig 6.3: troupe availability, birth-death simulation",
        ["n", "lifetime 1/λ", "repair 1/μ", "analytic A", "measured A"],
        notes="Measured over a long crash/repair simulation of real "
              "machines; troupe availability = P[not all members down].")
    cases = [
        (1, 50.0, 25.0),
        (2, 50.0, 25.0),
        (3, 50.0, 25.0),
        (5, 50.0, 25.0),
        (3, 50.0, 50.0),
    ]
    for n, lifetime, repair in cases:
        analytic = availability(n, 1.0 / lifetime, 1.0 / repair)
        measured = measure_availability(n, 1.0 / lifetime, 1.0 / repair)
        table.add_row(n, lifetime, repair, analytic, measured)
        assert measured == pytest.approx(analytic, abs=0.05), (n, lifetime)
    register_table(table)

    # Replication helps: availability strictly improves with n.
    series = [availability(n, 1 / 50.0, 1 / 25.0) for n in (1, 2, 3, 5)]
    assert series == sorted(series)


def test_equation_6_2_worked_example():
    table = Table(
        "Eq 6.2: replacement time for a target availability "
        "(the paper's worked example)",
        ["n", "lifetime", "target A", "required repair time",
         "paper's value"],
        notes="'If each troupe member has an average lifetime of one "
              "hour, the average replacement time must be no longer than "
              "6 minutes 40 seconds' (n=3); with n=5 it may be 20 minutes.")
    # Lifetimes in minutes; the paper's example: one hour = 60 min.
    repair3 = required_repair_time(3, 60.0, 0.999)
    repair5 = required_repair_time(5, 60.0, 0.999)
    table.add_row(3, "60 min", 0.999, "%.2f min" % repair3, "6 min 40 s")
    table.add_row(5, "60 min", 0.999, "%.2f min" % repair5, "20 min")
    register_table(table)
    assert repair3 == pytest.approx(60.0 / 9.0)        # 6:40
    assert repair5 == pytest.approx(20.0, rel=0.01)    # 20 minutes

    # Close the loop in simulation at a measurable target: pick A = 0.9,
    # derive the repair time from Eq 6.2, measure availability near 0.9.
    target = 0.90
    lifetime = 40.0
    repair = required_repair_time(3, lifetime, target)
    measured = measure_availability(3, 1.0 / lifetime, 1.0 / repair,
                                    horizon=1200000.0)
    assert measured == pytest.approx(target, abs=0.05)
