"""The repository benchmark: one workload, end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_figs --seed 1 --trace 0
    python3 perfbench/run.py --workload metro_churn --seed 7 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's cells in-process under ``REPRO_TELEMETRY=1`` with spans
and reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
details (seed, knob snapshot, results sha256, failure messages).  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_figs", "metro_churn", "fuzz_small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the cold passes measure; at least "
                        "three passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the simulator sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark

    outcome = run_benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    result, details = outcome["result"], outcome["details"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:36s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    for message, passes in details["failures"].items():
        print(f"check failed in {passes} pass(es): {message}",
              file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
