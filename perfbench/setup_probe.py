"""Time one workload's set-up in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` from the
checkout root. Prints one JSON line: ``numpy_s`` (importing numpy, which
is done first), ``import_s`` (then importing ``repro`` through the
benchmark's workload module) and ``build_s`` (building the config,
workload and simulation and simulating the first cycle). Only the
standard library is imported before the clock starts. The program's
set-up is ``import_s + build_s``; numpy is a dependency, and its import
time varies with the host far more than the program's own set-up does.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    name, seed = argv[0], int(argv[1])
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    start = time.perf_counter()
    import numpy  # noqa: F401  (first, so that its import is timed on its own)

    numpy_done = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workloads.first_cycle(name, seed)
    built = time.perf_counter()
    print(json.dumps({
        "numpy_s": numpy_done - start,
        "import_s": imported - numpy_done,
        "build_s": built - imported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
