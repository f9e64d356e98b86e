"""Seeded lifting battery over a parameter grid.

Samples random flags of the requested kind, lifts each one level, and
verifies the postconditions (relator exactness upstairs, entrywise
reduction to the input, predicate preservation). Prints a per-cell table,
a summary and one "memo:" line (the hits and misses of the run's split
verdict, Kummer verdict, relator walk and one-level lift memos); exits
nonzero if any instance fails.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field

from flaglift.flags import is_kummer, is_wound_kummer
from flaglift.lifting import lift_kummer, lift_wound_kummer, relator_defect
from flaglift.oracle import gen_random_flag
from flaglift.stats import session
from flaglift.zmod import RingSpec


PRIMES = (2, 3)
GENERA = (1, 2)
LEVELS = (1, 2)


@dataclass
class BatteryConfig:
    mode: str = "kummer"
    dims: tuple[int, ...] = (2, 3, 4)
    seeds: int = 5
    failures: list[str] = field(default_factory=list)


def run_cell(cfg: BatteryConfig, p: int, genus: int, d: int, r: int) -> tuple[int, int]:
    adjusted = 0
    for seed in range(cfg.seeds):
        tag = f"p={p} g={genus} d={d} r={r} seed={seed}"
        try:
            f = gen_random_flag(p, r, d, genus, kind=cfg.mode, seed=seed)
            if cfg.mode == "kummer":
                out = lift_kummer(f)
                ok_kind = is_kummer(out).ok
            else:
                result = lift_wound_kummer(f)
                out = result.flag
                ok_kind = is_wound_kummer(out)
                adjusted += result.adjusted
            up = RingSpec(p, r + 1)
            if not relator_defect(up, genus, out.mats).is_zero():
                cfg.failures.append(f"{tag}: relator defect nonzero")
            if out.reduce_to(r) != f:
                cfg.failures.append(f"{tag}: no reduction to input")
            if not ok_kind:
                cfg.failures.append(f"{tag}: output kind predicate fails")
        except Exception as exc:
            cfg.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
    return cfg.seeds, adjusted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=["kummer", "wound-kummer"], default="kummer")
    ap.add_argument("--seeds", type=int, default=5, help="instances per grid cell")
    ap.add_argument("--max-dim", type=int, default=4)
    args = ap.parse_args()

    cfg = BatteryConfig(mode=args.mode, seeds=args.seeds,
                        dims=tuple(d for d in (2, 3, 4, 5) if d <= args.max_dim))
    t0 = time.monotonic()
    total = adj_total = 0
    print(f"{'p':>3} {'genus':>5} {'dim':>3} {'level':>5} {'lifts':>5} {'adjusted':>8}")
    with session() as s:
        for p in PRIMES:
            for genus in GENERA:
                for d in cfg.dims:
                    for r in LEVELS:
                        n, adjusted = run_cell(cfg, p, genus, d, r)
                        total += n
                        adj_total += adjusted
                        print(f"{p:>3} {genus:>5} {d:>3} {r:>5} {n:>5} {adjusted:>8}")
    dt = time.monotonic() - t0
    print(f"\n{total} lifts in {dt:.2f}s, {adj_total} adjustment-path, "
          f"{len(cfg.failures)} failures")
    print("memo: " + ", ".join(
        f"{name} {t['hits']} hits / {t['misses']} misses" for name, t in s.summary().items()
    ))
    for line in cfg.failures:
        print(f"  FAIL {line}")
    return 1 if cfg.failures else 0


if __name__ == "__main__":
    sys.exit(main())
