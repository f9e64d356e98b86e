"""Census of Kummer lifts over the exhaustive mod-2, genus-1 unipotent pool.

Every flag of the pool of dimension --dim (``oracle.unipotent_pool``) is
lifted to Z/4 in every relator-exact way (``brute_lift``), and each of
those Z/4 flags that passes ``is_kummer`` is lifted to Z/8 by
``lift_kummer``.  Everything runs in one session.  Prints the counts of
relator-exact Z/4 flags, Kummer flags, Kummer lifts, no-Kummer-lift
verdicts and inconclusive verdicts, then the runtime; any other exception
fails the script.
"""

import argparse
import sys
import time

from flaglift.flags import KummerInconclusive, is_kummer
from flaglift.lifting import NoKummerLift, lift_kummer
from flaglift.oracle import brute_lift, unipotent_pool
from flaglift.stats import session
from flaglift.zmod import RingSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=4, help="dimension of the pool's flags")
    args = ap.parse_args()

    t0 = time.monotonic()
    exact = kummer = lifted = no_lift = inconclusive = 0
    with session():
        pool = unipotent_pool(RingSpec(2, 1), 1, args.dim)
        enumeration = time.monotonic() - t0
        for base in pool:
            t1 = time.monotonic()
            lifts = brute_lift(base)
            enumeration += time.monotonic() - t1
            exact += len(lifts)
            for f in lifts:
                if not is_kummer(f).ok:
                    continue
                kummer += 1
                try:
                    lift_kummer(f)
                except NoKummerLift:
                    no_lift += 1
                except KummerInconclusive:
                    inconclusive += 1
                else:
                    lifted += 1
    print(f"dim {args.dim}: {exact} relator-exact flags over Z/4, {kummer} Kummer")
    print(f"kummer lifts: {lifted}, no kummer lift: {no_lift}, inconclusive: {inconclusive}")
    print(f"runtime {time.monotonic() - t0:.2f}s (enumeration {enumeration:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
