"""Benchmark workloads and reporting for the paper's evaluation (§4.4).

- :mod:`repro.bench.echo` — the UDP / TCP / Circus echo tests of
  Figures 4.5-4.7 and the Table 4.1-4.3 / Figure 4.8 builders over them;
- :mod:`repro.bench.report` — registered paper-vs-measured tables;
- :mod:`repro.bench.scenarios` — the canned scenarios of the CLI;
- :mod:`repro.bench.workloads` — open-loop and sharded capacity load;
- :mod:`repro.bench.gated` — the deterministic work tables.

The experiment drivers for Eq 5.1, Eq 6.1/6.2, the §4.4.2 multicast
analysis, and the ablations live in the ``benchmarks/`` suite itself.
"""

from repro import _namespace

# A submodule loads when one of its names is first read: ``repro check``
# reads ``scenarios`` and loads no echo workload and no TCP stack.
__getattr__, __dir__ = _namespace(__name__, {
    "EchoResult": "echo",
    "PAPER_TABLE_4_1": "echo",
    "PAPER_TABLE_4_2": "echo",
    "PAPER_TABLE_4_3": "echo",
    "run_circus_echo": "echo",
    "run_tcp_echo": "echo",
    "run_udp_echo": "echo",
    "Table": "report",
    "register_table": "report",
    "registered_tables": "report",
    **{module: module for module in (
        "echo", "gated", "report", "scenarios", "workloads")},
})

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
