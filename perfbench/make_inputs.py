#!/usr/bin/env python3
"""Write one workload's inputs for a seed; run.py times this as the set-up.

    python3 perfbench/make_inputs.py --workload NAME --seed N --scale full --out DIR

Set-up runs in its own process, so the peak memory run.py reports for the
timed stages does not include it.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workloads.make_inputs(args.workload, args.seed, args.out, workloads.SCALES[args.scale])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
