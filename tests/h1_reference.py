"""H^1 = ker d1 / im d0 the long way, to check ``h_groups`` against.

``h1_reference`` takes ker d1's generators from ``CochainComplex.d1_solver``,
sweeps the matrix of those generators once more and solves for every column
of d0 in that basis.  ``h_groups`` presents H^1 on the same generator
matrix, but with Smith factors read off d1's sweep (``on_kernel``).  The
two solvers need not pick the same solutions, so only the invariants must
agree; on the modules the tests use, the representatives agree as well.
Both matrices are built densely and handed to ``smithify`` by
``RMatrix.sparse``, and the representatives are carried into the ambient
space by a dense product (``relator_walk.times``).
"""

from flaglift.cohomology import complex_of
from flaglift.surface import GModule
from flaglift.zmod import ModuleShape, RMatrix, smithify
from relator_walk import times


def h1_reference(module: GModule) -> ModuleShape:
    """Invariants and representatives of H^1, presented on d1_solver's kernel generators."""
    cx = complex_of(module)
    ring = module.ring
    gens = [vec for vec, _ in cx.d1_solver.kernel()]
    if not gens:
        return ModuleShape((), ())
    g = RMatrix.from_rows(ring, [list(v) for v in gens]).transpose()
    solver = smithify(g.sparse())
    rel_cols = [vec for vec, _ in solver.kernel()]
    for j in range(cx.d0.cols):
        lam = solver.solve(cx.d0.col(j))
        if lam is None:
            raise AssertionError("a coboundary outside ker d1")
        rel_cols.append(lam)
    # gens is nonempty, so the rank and the number of d0 columns are positive
    rel = RMatrix.from_rows(ring, [list(c) for c in rel_cols]).transpose()
    q = smithify(rel.sparse()).cokernel()
    return ModuleShape(q.invariants, tuple(times(g, v) for v in q.reps))
