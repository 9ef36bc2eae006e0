"""Benchmark workloads and reporting for the paper's evaluation (§4.4).

- :mod:`repro.bench.echo` — the UDP / TCP / Circus echo tests of
  Figures 4.5-4.7, producing the rows of Table 4.1, the profile of
  Table 4.3, and the series of Figure 4.8, plus the paper's reference
  values for side-by-side comparison;
- :mod:`repro.bench.report` — registered paper-vs-measured tables,
  printed in the benchmark run's terminal summary;
- :mod:`repro.bench.scenarios` — the canned scenarios the CLI and the
  gated tables run;
- :mod:`repro.bench.gated` — the deterministic work tables CI gates
  against ``BENCH_PERF.json``, one spec each.

The experiment drivers for Eq 5.1, Eq 6.1/6.2, the §4.4.2 multicast
analysis, and the ablations live in the ``benchmarks/`` suite itself.
"""

from repro.bench.echo import (
    EchoResult,
    run_circus_echo,
    run_tcp_echo,
    run_udp_echo,
    PAPER_TABLE_4_1,
    PAPER_TABLE_4_2,
    PAPER_TABLE_4_3,
)
from repro.bench.report import Table, register_table, registered_tables

__all__ = [
    "EchoResult",
    "PAPER_TABLE_4_1",
    "PAPER_TABLE_4_2",
    "PAPER_TABLE_4_3",
    "Table",
    "register_table",
    "registered_tables",
    "run_circus_echo",
    "run_tcp_echo",
    "run_udp_echo",
]
