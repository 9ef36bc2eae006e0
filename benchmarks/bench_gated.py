"""The deterministic work tables described in ``repro.bench.gated``.

Every other benchmark in this suite reports the paper's virtual-time
results; this one reports work per call (kernel callbacks, segment
encodes, bytes copied, bus events, cross-shard envelopes).  Its tables
land in ``--bench-json`` with the rest, and ``benchmarks/compare.py``
holds every cell to ``BENCH_BASELINE.json`` exactly.
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
