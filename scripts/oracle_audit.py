"""Cross-validate the closed-form engines against brute-force search.

Three audits: degree-1 cohomology shapes on random modules, one-level
lifting verdicts on the exhaustive mod-2, genus-1 unipotent pools
(``oracle.unipotent_pool``), and gluing verdicts on all compatible pairs
from those pools. A random module whose cocycle search would exceed
``oracle.MAX_CANDIDATES`` is drawn again. Exits nonzero on any
disagreement.
"""

import argparse
import itertools
import random
import sys
import time

from flaglift.cohomology import h_groups
from flaglift.lifting import glue, least_char_lift, lift_rep
from flaglift.oracle import MAX_CANDIDATES, brute_glue, brute_h1, brute_lift, unipotent_pool
from flaglift.surface import GModule, char_module, trivial_module
from flaglift.zmod import RingSpec, RMatrix


def random_module(rng: random.Random) -> GModule:
    p = rng.choice([2, 3])
    r = rng.choice([1, 2])
    ring = RingSpec(p, r)
    genus = rng.choice([1, 2])
    style = rng.randrange(3)
    if style == 0:
        vals = [rng.choice([v for v in range(1, p**r) if v % p]) for _ in range(2 * genus)]
        return char_module(ring, genus, vals)
    if style == 1:
        return trivial_module(ring, genus, rng.choice([1, 2]))
    rank = rng.choice([1, 2])

    def tri() -> RMatrix:
        ent = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            ent[i][i] = rng.choice([v for v in range(1, p**r) if v % p])
            for j in range(i + 1, rank):
                ent[i][j] = rng.randrange(p**r)
        return RMatrix.from_rows(ring, ent)

    x = tri()
    if genus == 1:
        return GModule(ring, 1, (x, x @ x))
    y = tri()
    return GModule(ring, 2, (x, y, y, x))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modules", type=int, default=40, help="random cohomology audits")
    ap.add_argument("--max-dim", type=int, default=3, help="pool bound for lift/glue audits")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    bad = 0
    t0 = time.monotonic()

    checked = 0
    while checked < args.modules:
        mod = random_module(rng)
        if (mod.ring.p ** mod.ring.r) ** (2 * mod.genus * mod.rank) > MAX_CANDIDATES:
            continue
        checked += 1
        brute = brute_h1(mod)
        engine = h_groups(mod).h1
        if brute.invariants != engine.invariants:
            bad += 1
            print(f"H1 mismatch: p={mod.ring.p} r={mod.ring.r} g={mod.genus} "
                  f"rank={mod.rank}: brute {brute.invariants} engine {engine.invariants}")
    print(f"cohomology: {checked} random modules, {bad} mismatches")

    pools = {d: unipotent_pool(RingSpec(2, 1), 1, d) for d in range(1, args.max_dim + 1)}
    n_lift = 0
    for pool in pools.values():
        for f in pool:
            n_lift += 1
            if lift_rep(f, least_char_lift(f, 2)).lifted != bool(brute_lift(f)):
                bad += 1
                print(f"lift mismatch on {[m.to_lists() for m in f.mats]}")
    print(f"lifting: {n_lift} exhaustive instances")

    n_glue = 0
    for pool in pools.values():
        for e, f in itertools.product(pool, pool):
            if e.quotient_by_first() != f.truncate():
                continue
            n_glue += 1
            if glue(e, f).glued != bool(brute_glue(e, f)):
                bad += 1
                print(f"glue mismatch on {[m.to_lists() for m in e.mats]} | "
                      f"{[m.to_lists() for m in f.mats]}")
    print(f"gluing: {n_glue} compatible pairs")

    print(f"\n{bad} disagreements in {time.monotonic() - t0:.2f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
