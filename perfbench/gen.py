"""Generate a workload's inputs for one seed, in an interpreter of its own.

    python3 perfbench/gen.py --workload lift-battery --seed 0 --size full --out IN.json
"""

from __future__ import annotations

import argparse

import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    text = workloads.generate(args.workload, args.seed, args.size)
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
