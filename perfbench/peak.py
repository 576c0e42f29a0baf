"""Measure the peak memory of one call in a process of its own.

    python3 perfbench/peak.py <workload> <case>

Run inside the working directory of a traced run, with ``src`` on
PYTHONPATH.  The case's inputs are loaded first; then the tracemalloc peak
of the call alone (numpy buffers included) is printed as one JSON line.
"""

import json
import sys
import tracemalloc

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    workload, case = argv
    fn, args, symbols = WORKLOADS[workload].peak_cases[case]()
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"peak_bytes": peak, "symbols": symbols}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
