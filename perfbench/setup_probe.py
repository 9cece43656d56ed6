"""Set a workload up in a fresh interpreter, print ``ready``, and exit.

``setup_s`` is the wall time from spawning this script to its ``ready``
line: interpreter start, imports, input generation (synthetic traces, the
metro city, fuzz scenarios), spec expansion and, for the metro workload,
the persistent pool's start.  That is everything a user pays before the
first job is submitted.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(workload: str, seed: int) -> None:
    from perfbench.workloads import WORKLOADS

    bench = WORKLOADS[workload](seed)
    bench.setup()
    executor = bench.make_executor()
    try:
        bench.start(executor)
        print("ready", flush=True)
    finally:
        executor.close()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
