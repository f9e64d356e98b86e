"""An independent walk along a word, to check the Fox matrix ``d1`` against.

``crossed_value`` extends generator values letter by letter; the package
itself reads every relator value off ``CochainComplex.d1``.  Its
matrix-vector products go through ``times``, a dense ``RMatrix`` product,
so the reference shares no code with ``SparseMatrix.apply``, the product
that ``d1`` uses.
"""

from typing import Sequence

from flaglift.surface import GModule
from flaglift.zmod import RMatrix


def times(a: RMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """a v, as the dense product of ``a`` with the one-column matrix v."""
    return (a @ RMatrix(a.ring, len(v), 1, tuple(v))).entries


def crossed_value(
    module: GModule, values: Sequence[Sequence[int]], word: Sequence[int]
) -> tuple[int, ...]:
    """Extend generator values to a word by c(uv) = c(u) + u.c(v).

    ``values[k]`` is c(generator k+1); inverses follow from
    c(s^-1) = -s^-1.c(s).
    """
    ring = module.ring
    acc = module.zero()
    pref = RMatrix.identity(ring, module.rank)
    for t in word:
        k = abs(t) - 1
        if t > 0:
            step = times(pref, values[k])
            pref = pref @ module.acts[k]
        else:
            inv = module.inverses[k]
            step = times(pref, times(inv, [-x for x in values[k]]))
            pref = pref @ inv
        acc = tuple((x + y) % ring.modulus for x, y in zip(acc, step, strict=True))
    return acc
