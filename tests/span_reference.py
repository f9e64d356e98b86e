"""Howell-form coset representatives, to check the Smith-based class questions against.

``CohClass`` decides equality and reads its printed representative off the
Smith solvers that each ``CochainComplex`` caches.  This module keeps the
second algorithm it replaced: greedy reduction against the Howell staircase
of ``zmod.echelonize``, which maps each coset of a row span to one
canonical vector.
"""

from typing import Sequence

from flaglift.zmod import RingSpec, RMatrix, echelonize, vec_mod


class SpanReducer:
    """Greedy canonical coset representatives modulo a row span.

    Built on the Howell pivots of ``echelonize``; ``reduce`` maps each coset
    of the span to one canonical vector (entries at pivot columns lie below
    the pivot), and ``contains`` decides membership.
    """

    def __init__(self, ring: RingSpec, vectors: Sequence[Sequence[int]], width: int | None = None):
        self.ring = ring
        if vectors:
            mat = RMatrix.from_rows(ring, [list(v) for v in vectors])
            self.width = mat.cols
        else:
            if width is None:
                raise ValueError("need width when there are no generators")
            mat = RMatrix.zeros(ring, 0, width)
            self.width = width
        ech = echelonize(mat)
        self.pivot_rows = [
            (pv.col, ring.p**pv.exponent, ech.h.row(pv.row)) for pv in ech.pivots
        ]

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.width:
            raise ValueError("vector width mismatch")
        out = list(vec_mod(self.ring, v))
        m = self.ring.modulus
        for col, pval, row in self.pivot_rows:
            q = out[col] // pval
            if q:
                out = [(x - q * y) % m for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(v))
