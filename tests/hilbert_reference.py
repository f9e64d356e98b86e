"""The Hilbert symbol by brute force, to check ``localfield.hilbert`` against.

No program path needs it: ``hilbert`` is computed in closed form, and the
tests compare it with this finite solubility search on every pair of
canonical classes.
"""

import numpy as np

from flaglift.localfield import SquareClass


def hilbert_oracle(a: SquareClass, b: SquareClass) -> int:
    """Brute-force the symbol: primitive solubility at finite precision.

    Searches a x^2 + b y^2 = z^2 over residues modulo 2^6 (resp. ell^3)
    requiring a unit among x, y, z; enough precision for ternary quadratic
    forms by the usual smoothness bound.
    """
    if a.prime != b.prime:
        raise ValueError("hilbert symbol needs both classes over the same field")
    p = a.prime
    mod = 2**6 if p == 2 else p**3
    res = np.arange(mod, dtype=np.int64)
    sq = (res * res) % mod
    square_any = np.zeros(mod, dtype=bool)
    square_any[sq] = True
    square_of_unit = np.zeros(mod, dtype=bool)
    square_of_unit[sq[res % p != 0]] = True
    x = res[:, None]
    y = res[None, :]
    t = (a.rep * x * x + b.rep * y * y) % mod
    xy_unit = (x % p != 0) | (y % p != 0)
    ok = np.where(xy_unit, square_any[t], square_of_unit[t])
    return 1 if bool(ok.any()) else -1
