"""Compare a --bench-json run against the committed baseline.

    PYTHONPATH=src python benchmarks/compare.py BENCH_RESULTS.json
    PYTHONPATH=src python benchmarks/compare.py results.json \
        --baseline BENCH_BASELINE.json --threshold 25

Thin CLI wrapper: the comparison logic lives in
``repro.bench.compare`` so that ``repro perf --compare`` runs the exact
same gate locally in one command.  See that module for the semantics
(table/row matching, --require-all).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.bench.compare import (  # noqa: E402  (path bootstrap above)
    compare,
    load_tables,
    main,
    percent_delta,
)

__all__ = ["compare", "load_tables", "main", "percent_delta"]


if __name__ == "__main__":
    sys.exit(main())
