"""Group cohomology of surface groups over Z/p^s coefficient modules.

Everything is computed from the presentation 2-complex of the one-relator
presentation: for a module M of rank n the cochain spaces are

    C^0 = M,   C^1 = M^(2g)  (one value per generator),   C^2 = M,

d0 sends m to the cochain g -> g.m - m, and d1 sends a cochain c to the
value of its crossed extension on the relator (a stacked matrix of Fox
derivative evaluations).  H^0 = ker d0, H^1 = ker d1 / im d0 and
H^2 = coker d1.  Each differential is built once, as a ``SparseMatrix``,
and its solver keeps that matrix's own columns, so the complex holds one
copy of each.  One sweep of each differential serves everything read
from it: ``d1_solver`` solves, gives ker d1 and coker d1, and hands out the
solver on ker d1's generators (``on_kernel``) that presents H^1.  Class
equality, cup products, extension classes and the connecting map of a
short exact sequence of modules all reduce to the Z/p^r solvers in zmod.
``d1`` reads the constructor's walk: its columns are differences of the
prefix products that ``surface._relator_product`` kept when the module's
generators were checked, so it walks the relator again only for a module
no constructor checked (a derived one).  Every other relator value is read
off ``d1``: the connecting map applies the middle module's cached ``d1``,
and a cup product is a connecting image (see ``cup``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .surface import (
    GModule,
    Presentation,
    _diagonal_block,
    _relator_product,
    column_extension,
    hom_mat,
    hom_module,
    hom_vec,
    tensor_module,
    trivial_module,
)
from .zmod import (
    LinearSolver,
    ModuleShape,
    RingSpec,
    RMatrix,
    SparseMatrix,
    _sparse,
    quotient_data,
    smithify,
    vec_mod,
)


class LiftConsistencyError(RuntimeError):
    """An internally guaranteed linear system turned out unsolvable."""


def unstack(vec: Sequence[int], rank: int, count: int) -> list[tuple[int, ...]]:
    """Split a concatenated degree-1 cochain into per-generator values."""
    if len(vec) != rank * count:
        raise ValueError("cochain vector length mismatch")
    return [tuple(vec[i * rank : (i + 1) * rank]) for i in range(count)]


def stack(values: Sequence[Sequence[int]]) -> tuple[int, ...]:
    out: list[int] = []
    for v in values:
        out.extend(v)
    return tuple(out)


@dataclass(frozen=True)
class CochainComplex:
    """The three-term cochain complex of a surface group module."""

    module: GModule

    @property
    def ring(self) -> RingSpec:
        return self.module.ring

    @property
    def n_gens(self) -> int:
        return 2 * self.module.genus

    @cached_property
    def d0(self) -> SparseMatrix:
        mod = self.module
        eye = RMatrix.identity(mod.ring, mod.rank)
        return RMatrix.vstack([a - eye for a in mod.acts]).sparse()

    @cached_property
    def d1(self) -> SparseMatrix:
        """Fox derivative blocks of the relator, one n x n block per generator.

        Read off the prefix products of the module's relator walk, with the
        empty prefix I first.  Every generator k occurs once as +k and once
        as -k in the relator, so column c of block k is column c of the
        prefix before the letter +k minus column c of the prefix after -k.
        """
        mod = self.module
        n, m = mod.rank, mod.ring.modulus
        _, _, walked = _relator_product(mod.genus, mod.acts, mod.inverses)
        prefixes = (RMatrix.identity(mod.ring, n).entries, *walked)
        before, after = {}, {}
        for j, t in enumerate(Presentation(mod.genus).relator()):
            if t > 0:
                before[t] = prefixes[j]
            else:
                after[-t] = prefixes[j + 1]
        columns = [
            _sparse([(x - y) % m for x, y in zip(before[k][c::n], after[k][c::n])])
            for k in range(1, self.n_gens + 1)
            for c in range(n)
        ]
        d1, d0 = SparseMatrix(mod.ring, n, columns), self.d0
        if any(any(d1.apply(d0.col(j))) for j in range(d0.cols)):
            raise AssertionError("d1 . d0 != 0; relator check should prevent this")
        return d1

    @cached_property
    def d0_solver(self) -> LinearSolver:
        return smithify(self.d0)

    @cached_property
    def d1_solver(self) -> LinearSolver:
        return smithify(self.d1)

    def is_cocycle(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.d1.apply(vec))


# Complexes kept by ``complex_of``; a traced lift-battery pass holds at
# most 255 of them, so this bound evicts nothing on any benchmark workload.
COMPLEX_CACHE_BOUND = 1024


@lru_cache(maxsize=COMPLEX_CACHE_BOUND)
def complex_of(module: GModule) -> CochainComplex:
    return CochainComplex(module)


class CohClass:
    """A cohomology class in degree 1 or 2, held as one cochain vector.

    Degree-1 vectors are cocycles (checked).  A class is zero when it has a
    ``witness``, a cochain one degree down that the lower differential maps
    onto its vector.  Two classes are equal when they share complex and
    degree and the difference of their vectors has a witness.
    """

    __slots__ = ("cx", "degree", "vector")

    def __init__(self, cx: CochainComplex, degree: int, vector: Sequence[int]):
        if degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        vec = vec_mod(cx.ring, vector)
        n = cx.module.rank
        want = n * cx.n_gens if degree == 1 else n
        if len(vec) != want:
            raise ValueError(f"degree-{degree} cochain needs length {want}, got {len(vec)}")
        if degree == 1 and not cx.is_cocycle(vec):
            raise ValueError("degree-1 vector is not a cocycle")
        self.cx = cx
        self.degree = degree
        self.vector = vec

    def canonical(self) -> tuple[int, ...]:
        """The least representative (v mod p^e,) of a rank-1 class in degree 2.

        Here d1 is 1 x 2g with Smith entry p^e, so its image is p^e Z/p^r.
        Any other class raises ValueError.
        """
        if self.degree != 2 or len(self.vector) != 1:
            raise ValueError("canonical representatives exist only for rank-1 classes in degree 2")
        return (self.vector[0] % self.cx.ring.p ** self.cx.d1_solver.exponents[0],)

    def witness(self) -> tuple[int, ...] | None:
        """A cochain one degree down hitting this vector, if one exists."""
        solver = self.cx.d0_solver if self.degree == 1 else self.cx.d1_solver
        return solver.solve(self.vector)

    def values(self) -> list[tuple[int, ...]]:
        if self.degree != 1:
            raise ValueError("per-generator values only make sense in degree 1")
        return unstack(self.vector, self.cx.module.rank, self.cx.n_gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        if self.cx != other.cx or self.degree != other.degree:
            return False
        solver = self.cx.d0_solver if self.degree == 1 else self.cx.d1_solver
        return solver.solve([a - b for a, b in zip(self.vector, other.vector)]) is not None


@dataclass(frozen=True)
class CohomologyReport:
    module: GModule
    h0: ModuleShape
    h1: ModuleShape
    h2: ModuleShape


def h_groups(module: GModule) -> CohomologyReport:
    """Invariants and representative generators of H^0, H^1, H^2.

    The sweeps and solves run at once, and the invariants are read off
    them; each group's representatives are written out as vectors only
    when its ``reps`` is first read (see ``ModuleShape``).
    """
    cx = complex_of(module)
    # H^0 = ker d0: the kernel generators, stably sorted by annihilator
    # exponent, whose Smith entries on on_kernel()'s matrix are p^(r - e)
    d0_solver, r = cx.d0_solver, module.ring.r
    h0 = ModuleShape(
        tuple(sorted(r - e for e in d0_solver.on_kernel().exponents)),
        lambda: tuple(v for v, _ in sorted(d0_solver.kernel(), key=lambda ge: ge[1])),
    )
    # H^1 = ker d1 / im d0 on ker d1's generators; H^2 = coker d1
    h1 = quotient_data(cx.d1_solver.on_kernel(), [cx.d0.col(j) for j in range(cx.d0.cols)])
    return CohomologyReport(module, h0, h1, cx.d1_solver.cokernel())


# ---------------------------------------------------------------------------
# cup products


def cup(u: CohClass, v: CohClass) -> CohClass:
    """Cup product of two degree-1 classes, valued in the tensor module.

    u is the class of the extension E_u of the trivial line by A on which g
    acts by [[A_g, u(g)], [0, 1]] (``column_extension``, so its relator is
    checked), and u cup v is the connecting image of v in
    0 -> A (x) B -> E_u (x) B -> B -> 0, read off the ``d1`` of E_u (x) B.
    """
    if u.degree != 1 or v.degree != 1:
        raise ValueError("cup is defined on degree-1 classes")
    a, b = u.cx.module, v.cx.module
    if (a.ring, a.genus) != (b.ring, b.genus):
        raise ValueError("cup factors must share ring and genus")
    e_u = column_extension(GModule, a, u.values())
    return connecting(coordinate_extension(tensor_module(e_u, b), a.rank * b.rank), v)


@dataclass(frozen=True)
class DemushkinReport:
    p: int
    genus: int
    h2_invariants: tuple[int, ...]
    gram: RMatrix
    gram_invertible: bool

    @property
    def ok(self) -> bool:
        return self.h2_invariants == (1,) and self.gram_invertible


def demushkin_report(p: int, genus: int) -> DemushkinReport:
    """One-dimensional H^2 and a nondegenerate cup pairing on H^1, mod p."""
    ring = RingSpec(p, 1)
    mod = trivial_module(ring, genus, 1)
    cx = complex_of(mod)
    n = 2 * genus
    basis = [CohClass(cx, 1, tuple(1 if i == j else 0 for j in range(n))) for i in range(n)]
    gram_rows = []
    for ui in basis:
        row = []
        for vj in basis:
            val = cup(ui, vj).canonical()
            row.append(val[0])
        gram_rows.append(row)
    gram = RMatrix.from_rows(ring, gram_rows)
    h2 = cx.d1_solver.cokernel()
    return DemushkinReport(p, genus, h2.invariants, gram, gram.is_invertible())


# ---------------------------------------------------------------------------
# extensions of modules


@dataclass(frozen=True)
class ExtensionData:
    """A coordinate extension 0 -> sub -> total -> quotient -> 0.

    ``total`` acts by block upper triangular matrices [[A, X], [0, C]], and
    ``sub`` and ``quotient`` act by the diagonal blocks A and C.  Inclusion,
    projection and the linear section onto the trailing coordinates are
    index slices, and the section's defect X_g C_g^-1 is the class at g.
    Built only by ``coordinate_extension``.
    """

    sub: GModule
    total: GModule
    quotient: GModule

    @property
    def ring(self) -> RingSpec:
        return self.sub.ring


def coordinate_extension(total: GModule, n_sub: int) -> ExtensionData:
    """Extension from a block upper-triangular module, split by coordinates."""
    n = total.rank
    if not 0 <= n_sub <= n:
        raise ValueError("sub rank out of range")
    lo, hi = range(n_sub), range(n_sub, n)
    for g, m in enumerate(total.acts):
        if not m.submatrix(hi, lo).is_zero():
            raise ValueError(f"generator {g + 1} does not preserve the leading block")
    return ExtensionData(_diagonal_block(total, lo), total, _diagonal_block(total, hi))


def extension_class(ext: ExtensionData) -> CohClass:
    """The degree-1 class of the extension in hom(quotient, sub): g -> X_g C_g^-1."""
    a, b, c = ext.sub, ext.total, ext.quotient
    lo, hi = range(a.rank), range(a.rank, b.rank)
    vals = [hom_vec(b.acts[g].submatrix(lo, hi) @ c.inverses[g]) for g in range(2 * b.genus)]
    return CohClass(complex_of(hom_module(c, a)), 1, stack(vals))


def split_section(ext: ExtensionData) -> RMatrix | None:
    """An equivariant section of the projection when the extension splits, else None.

    The section is [[-m], [I]] for the canonical witness m of the class.
    """
    w = extension_class(ext).witness()
    if w is None:
        return None
    m = hom_mat(ext.ring, w, ext.sub.rank, ext.quotient.rank)
    s2 = RMatrix.vstack([m.scale(-1), RMatrix.identity(ext.ring, ext.quotient.rank)])
    for g in range(2 * ext.sub.genus):
        if ext.total.acts[g] @ s2 != s2 @ ext.quotient.acts[g]:
            raise AssertionError("corrected section is not equivariant")
    return s2


def connecting(ext: ExtensionData, v: CohClass) -> CohClass:
    """H^1(quotient) -> H^2(sub): lift by the section, apply the total's d1."""
    if v.degree != 1 or v.cx.module != ext.quotient:
        raise ValueError("need a degree-1 class in the quotient module")
    lifted = [ext.sub.zero() + val for val in v.values()]
    w = complex_of(ext.total).d1.apply(stack(lifted))
    n_sub = ext.sub.rank
    if any(w[n_sub:]):
        raise AssertionError("relator value must land in the sub")
    return CohClass(complex_of(ext.sub), 2, w[:n_sub])


def solve_cup(ext: ExtensionData, target: CohClass) -> CohClass:
    """Find a degree-1 class in the quotient whose connecting image is target.

    Mod-p coefficients only.  The solution is the deterministic canonical
    one of the underlying solver.  Raises LiftConsistencyError when no
    solution exists (the callers only invoke this in situations where one
    is guaranteed).
    """
    ring = ext.ring
    if ring.r != 1:
        raise ValueError("solve_cup expects mod-p coefficient modules")
    if target.degree != 2 or target.cx.module != ext.sub:
        raise ValueError("target must be a degree-2 class in the sub module")
    cx_c = complex_of(ext.quotient)
    cx_a = complex_of(ext.sub)
    kgens = cx_c.d1_solver.on_kernel()
    cols = [_sparse(connecting(ext, CohClass(cx_c, 1, kgens.col(t))).vector) for t in range(kgens.cols)]
    sol = smithify(SparseMatrix(ring, cx_a.d1.rows, cols + cx_a.d1.columns)).solve(target.vector)
    if sol is None:
        raise LiftConsistencyError("no cocycle maps onto the target obstruction")
    return CohClass(cx_c, 1, kgens.apply(sol[: len(cols)]))
