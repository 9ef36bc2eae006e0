"""Table 4.2 — CPU time for the Berkeley 4.2BSD system calls used in Circus.

The simulation charges these costs by construction (they are the
calibration), so this bench *measures them back* through the accounting
machinery — a self-check that the cost model, the per-syscall profile,
and the clock all agree — and prints them against the paper's column.
"""

import pytest

from repro.bench.echo import PAPER_TABLE_4_2
from repro.bench.report import Table, register_table
from repro.harness import World


def measure_syscall(name: str, repetitions: int = 100) -> float:
    world = World(machines=1)
    proc = world.machines[0].spawn_process("measure")

    def body():
        start = world.sim.now
        for _ in range(repetitions):
            yield from proc.syscall(name)
        return (world.sim.now - start) / repetitions

    elapsed = world.run(body())
    # Clock advance, kernel accounting, and the profile must agree.
    assert elapsed == pytest.approx(proc.kernel_time / repetitions)
    assert proc.syscall_times[name] == pytest.approx(proc.kernel_time)
    assert proc.syscall_counts[name] == repetitions
    return elapsed


def test_table_4_2():
    table = Table(
        "Table 4.2: CPU time for 4.2BSD system calls used in Circus (ms)",
        ["syscall", "paper", "simulated"],
        notes="These costs are the calibration inputs of the whole "
              "reproduction (see DESIGN.md).")
    measured = {}
    for name, paper_cost in PAPER_TABLE_4_2.items():
        cost = measure_syscall(name)
        measured[name] = cost
        table.add_row(name, paper_cost, cost)
        assert cost == pytest.approx(paper_cost), name
    register_table(table)
    # The paper's ordering: sendmsg is by far the most expensive.
    assert measured["sendmsg"] == max(measured.values())
    assert measured["sendmsg"] > 2.5 * measured["recvmsg"]
