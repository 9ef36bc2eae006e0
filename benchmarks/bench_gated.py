"""The deterministic work tables CI gates against ``BENCH_PERF.json``.

Every other benchmark in this suite reports the paper's virtual-time
results; this one reports work per call (kernel callbacks, segment
encodes, bytes copied, bus events, cross-shard envelopes) for the
tables described in ``repro.bench.gated``.  The CI perf job runs

    PYTHONPATH=src python -m pytest benchmarks/bench_gated.py -q \
        --bench-json perf_results.json
    PYTHONPATH=src python benchmarks/compare.py perf_results.json \
        --baseline BENCH_PERF.json --threshold 5 --require-all

or, in one command, ``PYTHONPATH=src python -m repro perf --compare``.
"""

import pytest

from repro.bench.gated import GATED_TABLES
from repro.bench.report import register_table


@pytest.mark.parametrize("spec", GATED_TABLES, ids=lambda spec: spec.title)
def test_gated_table(spec):
    table = spec.build()
    assert spec.build().rows == table.rows, "rows must be deterministic"
    spec.check(table.rows)
    register_table(table)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
