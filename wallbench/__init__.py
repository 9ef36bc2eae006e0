"""``wallbench`` — the wall-clock benchmark of the simulator itself.

The paper measures Circus end to end and layer by layer (§4.4.1, Tables
4.1-4.3); the repo reproduces those tables in *virtual* time.  This
package applies the same method to our own simulator in *host* time:
six workloads, six end-to-end metrics on each, and a per-layer ledger
(profiled self time, deterministic work counts, single-layer drivers).

    python3 -m wallbench --seed 7                 # all six, both phases
    python3 -m wallbench --workload circus-seq --seed 7 --seconds 8 --trace 0

``BENCHMARK.json`` at the repository root is the machine-readable
contract; ``wallbench/README.md`` says what every number means.

Everything is measured from outside ``src/repro``: timed calls into
public functions, public counters, and a profiler the benchmark
attaches.  The package is self-contained — it owns its input
generators, its echo module and its capacity builder — so a
performance PR cannot change the workload it is measured on.
"""

import os
import sys

#: the checkout this package sits in, and the program under test in it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The benchmark measures the ``repro`` of *this* checkout, whatever else
# is installed: its source directory goes first on the path, before any
# module of the package imports it.
if SRC not in sys.path:
    sys.path.insert(0, SRC)
