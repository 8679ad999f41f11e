"""Record the exit code and stdout digest of every op the shipped seeds make.

    python3 perfbench/record.py --seeds 0-19

Run from the root of a checkout whose outputs are known to be right; it
rewrites expected.json in this directory.  The benchmark then checks any
op found there against its digest, whatever the seed, and checks other
ops by identities (see harness.check_outputs).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import heckealg.cli  # noqa: E402,F401  (children run it cold)

from harness import EXPECTED_PATH, op_key, run_op  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    ops: dict[str, list] = {}
    for workload in WORKLOADS:
        for seed in range(lo, hi + 1):
            for op in make_ops(workload, seed):
                key = op_key(op)
                if key in ops:
                    continue
                res = run_op(op)
                if res.rc != 0:
                    print(f"error: {key} exited {res.rc}", file=sys.stderr)
                    return 1
                ops[key] = [res.rc, res.digest]
        print(f"{workload}: {len(ops)} ops so far", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seeds": [lo, hi], "ops": dict(sorted(ops.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
