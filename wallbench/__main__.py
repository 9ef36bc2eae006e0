import os
import sys

from wallbench import SRC

if not os.path.isdir(os.path.join(SRC, "repro")):
    # e.g. a directory holding only BENCHMARK.json and wallbench/
    sys.exit("wallbench: nothing to measure, %s does not exist"
             % os.path.join(SRC, "repro"))

from wallbench.cli import main  # noqa: E402 — after the check above

sys.exit(main())
