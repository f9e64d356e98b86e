"""Splitting and the Kummer predicate by enumeration, to check ``flags`` against.

``extension_splits(flag, i, j, k)`` decides whether
0 -> V_j/V_i -> V_k/V_i -> V_k/V_j -> 0 splits equivariantly without any
cohomology.  Write generator g on the segment V_k/V_i as
[[A_g, X_g], [0, C_g]], with A_g acting on A = V_j/V_i and C_g on
B = V_k/V_j.  A section b -> (m b, b) is equivariant exactly when
A_g m + X_g = m C_g for every g, so the extension splits iff some
m: B -> A solves all of them; every m is tried at once in numpy.
``is_kummer_reference`` is the Kummer predicate on top of it: trivial
characters, and every such extension that splits mod p splits mod p^r.
Only numpy and the flag's ``ring``, ``d`` and ``mats`` entries are used.
"""

import itertools

import numpy as np


def _stack(flag) -> np.ndarray:
    """The generators as one (2g, d, d) int64 array of least residues."""
    d = flag.d
    return np.array([m.entries for m in flag.mats], dtype=np.int64).reshape(len(flag.mats), d, d)


def _splits(mats: np.ndarray, i: int, j: int, k: int, modulus: int) -> bool:
    """Whether some m: V_k/V_j -> V_j/V_i has A_g m + X_g = m C_g mod ``modulus`` for all g."""
    mats = mats % modulus
    a, b = j - i, k - j
    cands = np.array(list(itertools.product(range(modulus), repeat=a * b)), dtype=np.int64)
    cands = cands.reshape(-1, a, b)
    ok = np.ones(len(cands), dtype=bool)
    for g in mats:
        lhs = np.einsum("xy,nyz->nxz", g[i:j, i:j], cands) + g[i:j, j:k]
        rhs = np.einsum("nxy,yz->nxz", cands, g[j:k, j:k])
        ok &= ((lhs - rhs) % modulus == 0).all(axis=(1, 2))
    return bool(ok.any())


def extension_splits(flag, i: int, j: int, k: int) -> bool:
    """Whether 0 -> V_j/V_i -> V_k/V_i -> V_k/V_j -> 0 splits over the flag's ring."""
    return _splits(_stack(flag), i, j, k, flag.ring.modulus)


def is_kummer_reference(flag) -> bool:
    """Trivial characters, and each extension (i, j, k) that splits mod p splits mod p^r."""
    mats = _stack(flag)
    if (np.diagonal(mats, axis1=1, axis2=2) != 1).any():
        return False
    p, m = flag.ring.p, flag.ring.modulus
    return all(
        _splits(mats, i, j, k, m) or not _splits(mats, i, j, k, p)
        for i, j, k in itertools.combinations(range(flag.d + 1), 3)
    )
