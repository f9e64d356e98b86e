"""Gluing and lifting engines for triangular flags.

Every engine takes the same step.  It assembles candidate matrices, reads
their relator defect on a strictly upper support, divided by a scale (1
for ``glue``, p^r for the one-level lifts), as a degree-2 cochain of a
small mod-p^s coefficient module, and, when that class vanishes, corrects
candidate g by the twist I + scale * N_g, where N_g holds generator g's
part of a solution x of d1 x = -cochain along the support.  The corrected
candidates form a torsor under these twists.  ``_torsor_step`` is that
step: it returns a ``LiftOutcome``, the corrected flag (built, and its
relator walked, once) or the obstruction class.  ``_twist`` applies a
twist as row operations, and ``_corner_step`` is the step in the corner
(0, d) that both glues take.  The engines:

* ``glue``: extend two overlapping d-flags to a (d+1)-flag (same level),
  obstruction in the rank-1 corner module,
* ``lift_rep``: lift a flag from Z/p^r to Z/p^(r+1) with prescribed
  diagonal characters, obstruction in the strictly-upper endomorphisms,
* ``gluift``: glue two already-lifted flags over a base one level down,
  obstruction in the rank-1 corner module mod p,
* ``lift_wound_kummer``: obstruction-free lifting of wound flags with
  Teichmuller characters, pinning the truncation, with the cup-solving
  corner adjustment,
* ``lift_kummer``: obstruction-free lifting of Kummer flags
  (``lift_kummer_truncation``: pinning the truncation, through duality),
* ``lift_h1_class``: lift a mod-p degree-1 class through the tower of a
  Kummer flag.

The obstruction-free engines check their input predicate, their pinned
truncation (``_check_pinned``) and their output predicate once, then run
a private recursion that trusts every part it derives.  Its d <= 1 base
case is the Teichmuller lift of the diagonal.  The Kummer recursion
``_lift_kummer`` pins the quotient by the first line; every public pin is
a truncation, so ``lift_kummer_truncation`` makes its checks on its own
input and truncation before it dualizes.

``_lift_kummer`` keeps split steps split with one linear system over
Z/p^(r+1) per grid point of mod-p sections s (``_kummerize_pinned``).
Per split step (0,j,k) and generator g it has two bands of matrix blocks:
p ((A_g E) (x) I - E (x) B_g^T) tau = s B_g - A_g s keeps the corrected
section t = s + p E tau equivariant, and p (phi_g[:j-1] (x) I) tau +
p^r (s^T L_g) mu_g + (I - H_g) w = -phi_g s makes the step cochain pulled
back through t a coboundary.  ``_solve_bands`` stacks the bands into
sparse columns for one ``smithify`` solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .cohomology import (
    CohClass,
    LiftConsistencyError,
    complex_of,
    coordinate_extension,
    extension_class,
    solve_cup,
    split_section,
    stack,
    unstack,
)
from .flags import Flag, KummerInconclusive, is_kummer, is_wound_kummer, segment_extension_splits
from .surface import (
    GModule,
    _relator_product,
    char_module,
    column_extension,
    dual_module,
    hom_mat,
    hom_module,
    tensor_module,
)
from .zmod import (
    RingSpec,
    RMatrix,
    SparseMatrix,
    smithify,
    teichmuller,
)


# ---------------------------------------------------------------------------
# relator defects and the twist step shared by the engines


def relator_defect(ring: RingSpec, genus: int, mats: Sequence[RMatrix]) -> RMatrix:
    """Product of the candidate matrices along the relator, minus identity."""
    acc, _, _ = _relator_product(genus, mats)
    return acc - RMatrix.identity(ring, mats[0].rows)


def _twist(
    mats: Sequence[RMatrix], support: Sequence[tuple[int, int]], scale: int, vecs: Sequence[Sequence[int]]
) -> tuple[RMatrix, ...]:
    """(I + scale * N_g) @ mats[g], where N_g holds vecs[g] along ``support``.

    Applied as row operations: row i gains scale * v times the original
    row j, for each support entry (i, j) with a nonzero value v.
    """
    out = []
    for m, vec in zip(mats, vecs, strict=True):
        rows = [m.row(i) for i in range(m.rows)]
        for (i, j), v in zip(support, vec, strict=True):
            if v:
                c = scale * v
                rows[i] = [a + c * b for a, b in zip(rows[i], m.row(j))]
        out.append(RMatrix.from_rows(m.ring, rows))
    return tuple(out)


@dataclass(frozen=True)
class LiftOutcome:
    """A lifted flag, or the degree-2 obstruction class that no twist removes."""

    flag: Flag | None
    obstruction: CohClass | None

    @property
    def lifted(self) -> bool:
        return self.flag is not None


def _torsor_step(
    cand: Sequence[RMatrix], genus: int, support: Sequence[tuple[int, int]], scale: int, module: GModule
) -> LiftOutcome:
    """The flag of the twisted relator-exact candidates, or the obstruction class in ``module``.

    The defect of ``cand`` must vanish off ``support`` and be divisible by
    ``scale`` on it; (defect // scale) along the support, mod the module's
    ring, is the degree-2 cochain.
    """
    defect = relator_defect(cand[0].ring, genus, cand)
    on = set(support)
    for k, v in enumerate(defect.entries):
        if v % scale if divmod(k, defect.cols) in on else v:
            raise AssertionError("relator defect must sit on the support, divisible by the scale")
    q = module.ring.modulus
    vec = tuple((defect.entry(i, j) // scale) % q for (i, j) in support)
    cx = complex_of(module)
    sol = cx.d1_solver.solve(tuple(-x % q for x in vec))
    if sol is None:
        return LiftOutcome(None, CohClass(cx, 2, vec))
    mats = _twist(cand, support, scale, unstack(sol, len(support), len(cand)))
    return LiftOutcome(Flag(cand[0].ring, genus, mats), None)


def _seeded(ring: RingSpec, seed: Sequence[RMatrix], blocks: Sequence[tuple[int, Flag]]) -> list[RMatrix]:
    """Candidates over ``ring``: the least residues of each seed matrix, blocks written over them.

    Each (offset, flag) block replaces the diagonal block of generator g
    starting at (offset, offset) by the flag's matrix g.  Where two blocks
    overlap they must agree; the engines check that.
    """
    out = []
    for g, m in enumerate(seed):
        rows = m.to_lists()
        for offset, part in blocks:
            pm = part.mats[g]
            for i in range(pm.rows):
                rows[offset + i][offset : offset + pm.cols] = pm.row(i)
        out.append(RMatrix.from_rows(ring, rows))
    return out


def _corner_step(e: Flag, f: Flag, seed: Sequence[RMatrix], scale: int, corner_ring: RingSpec) -> LiftOutcome:
    """The (d+1)-flag with truncation ``e`` and quotient ``f`` over ``seed``, or the obstruction.

    Both parts are written over ``seed`` (``_seeded``); the candidate's
    defect sits in the corner (0, d), and is read at ``scale`` in the
    rank-1 module over ``corner_ring`` acting by chi_1(e) * chi_d(f)^-1.
    """
    d = e.d
    chars = zip(e.char(1), f.char(d))
    corner = char_module(corner_ring, e.genus, tuple(a * corner_ring.inv(b) for a, b in chars))
    out = _torsor_step(_seeded(e.ring, seed, [(0, e), (1, f)]), e.genus, [(0, d)], scale, corner)
    if out.lifted and (out.flag.truncate() != e or out.flag.quotient_by_first() != f):
        raise AssertionError("glued flag must contain both parts verbatim")
    return out


# ---------------------------------------------------------------------------
# glue at a fixed level


class GlueOutcome(LiftOutcome):
    """Either a glued flag with identity overlap witness, or an obstruction."""

    @property
    def glued(self) -> bool:
        return self.lifted


def glue(e: Flag, f: Flag) -> GlueOutcome:
    """Glue d-flags overlapping in dimension d-1 into a (d+1)-flag.

    Precondition: e.quotient_by_first() == f.truncate() as matrices.  The
    obstruction is the class of the zero-top candidate's relator corner in
    H^2 of the rank-1 module chi_1(e) * chi_last(f)^-1.
    """
    ring = e.ring
    if (f.ring, f.genus, f.d) != (ring, e.genus, e.d):
        raise ValueError("glue parts must share ring, genus and dimension")
    if e.d < 1:
        raise ValueError("glue parts must have dimension at least 1")
    if e.quotient_by_first() != f.truncate():
        raise ValueError("overlap mismatch: quotient of e differs from truncation of f")
    out = _corner_step(e, f, [RMatrix.zeros(ring, e.d + 1, e.d + 1)] * (2 * e.genus), 1, ring)
    return GlueOutcome(out.flag, out.obstruction)


# ---------------------------------------------------------------------------
# one-level lift of a full flag


def upper_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def strict_upper_module(bar: Flag) -> GModule:
    """Strictly upper endomorphisms mod p under conjugation by the flag.

    The coordinates j*d + i of hom_module(V, V), for (i, j) in
    upper_pairs(d), span a submodule because the flag is upper triangular.
    """
    if bar.ring.r != 1:
        raise ValueError("the endomorphism module is built mod p")
    v = bar.as_module()
    idx = [j * bar.d + i for (i, j) in upper_pairs(bar.d)]
    return GModule(bar.ring, bar.genus, tuple(a.submatrix(idx, idx) for a in hom_module(v, v).acts))


def least_char_lift(f: Flag, target_r: int) -> tuple[tuple[int, ...], ...]:
    """f's own diagonal characters, as least residues: the ``lift_rep`` seed.

    ``target_r`` is ignored; the benchmark and the scripts pass it.
    """
    return f.chars()


def lift_rep(f: Flag, chars_next: Sequence[Sequence[int]]) -> LiftOutcome:
    """Lift a flag one level, keeping off-diagonal least residues as seed.

    ``chars_next`` prescribes the diagonal mod p^(r+1), one value per
    generator for each piece; each must reduce to the current character.
    The obstruction is the class of (relator defect)/p^r in H^2 of the
    strictly-upper endomorphism module mod p; when it vanishes the
    candidate is corrected by I + p^r N factors on the left.
    """
    ring = f.ring
    up = RingSpec(ring.p, ring.r + 1)
    d = f.d
    n_gens = 2 * f.genus
    if len(chars_next) != d or any(len(c) != n_gens for c in chars_next):
        raise ValueError("need one character value per piece per generator")
    for i in range(d):
        for g in range(n_gens):
            if chars_next[i][g] % ring.modulus != f.char(i + 1)[g]:
                raise ValueError(f"character lift at piece {i + 1} does not reduce correctly")
            if chars_next[i][g] % up.p == 0:
                raise ValueError("character values must be units")
    cand = []
    for g, m in enumerate(f.mats):
        rows = [[(chars_next[i][g] if i == j else m.entry(i, j)) % up.modulus for j in range(d)]
                for i in range(d)]
        cand.append(RMatrix.from_rows(up, rows))
    endo = strict_upper_module(f.reduce_to(1))
    out = _torsor_step(cand, f.genus, upper_pairs(d), ring.modulus, endo)
    if out.lifted and out.flag.reduce_to(ring.r) != f:
        raise AssertionError("lift must reduce to the input")
    if out.lifted and out.flag.chars() != tuple(tuple(v % up.modulus for v in c) for c in chars_next):
        raise AssertionError("lift must carry the prescribed characters")
    return out


# ---------------------------------------------------------------------------
# glue one level up (gluift)


def gluift(e_up: Flag, f_up: Flag, base: Flag) -> LiftOutcome:
    """Extend lifts of truncation and quotient of ``base`` one level up.

    e_up and f_up are d-flags over Z/p^(r+1) lifting base.truncate() and
    base.quotient_by_first(); they must overlap exactly.  The corner column
    is seeded with the least residues of base's corner; the obstruction is
    (corner defect)/p^r in H^2 of the mod-p corner character module.
    """
    ring = base.ring
    up = e_up.ring
    if up != f_up.ring or (up.p, up.r) != (ring.p, ring.r + 1):
        raise ValueError("glue parts must live one level above the base")
    d = base.d - 1
    if e_up.d != d or f_up.d != d:
        raise ValueError("glue parts must have dimension one below the base")
    if d < 1:
        raise ValueError("glue parts must have dimension at least 1")
    if e_up.reduce_to(ring.r) != base.truncate():
        raise ValueError("e_up does not lift the truncation of the base")
    if f_up.reduce_to(ring.r) != base.quotient_by_first():
        raise ValueError("f_up does not lift the quotient of the base")
    if e_up.quotient_by_first() != f_up.truncate():
        raise ValueError("overlap mismatch between the lifted parts")
    out = _corner_step(e_up, f_up, base.mats, ring.modulus, RingSpec(ring.p, 1))
    if out.lifted and out.flag.reduce_to(ring.r) != base:
        raise AssertionError("gluift output must reduce to the base")
    return out


# ---------------------------------------------------------------------------
# obstruction-free lifting of wound flags with Teichmuller characters

# Sign of the p^r corner adjustment applied when the first glue attempt is
# obstructed; fixed by the requirement that the adjusted obstruction vanish.
CORNER_TWIST_SIGN = -1


@dataclass(frozen=True)
class WoundLiftResult:
    flag: Flag
    adjusted: bool


def _check_pinned(pinned: Flag, f: Flag) -> None:
    """Reject a pinned truncation that does not lift the truncation of ``f`` one level up.

    The dimension is checked first, so a 0-flag, which has no truncation,
    rejects every pinned part here.
    """
    if pinned.ring != RingSpec(f.ring.p, f.ring.r + 1) or pinned.d != f.d - 1:
        raise ValueError("truncation part must live one level above with dimension d-1")
    if pinned.reduce_to(f.ring.r) != f.truncate():
        raise ValueError("truncation part must lift the truncation of the input")


def _teichmuller_diagonal(f: Flag) -> Flag:
    """The one-level lift of a flag with d <= 1: Teichmuller lifts of its characters.

    This is the identity for the trivial characters of a Kummer flag, and
    0 x 0 matrices at d = 0.
    """
    up = RingSpec(f.ring.p, f.ring.r + 1)
    mats = tuple(RMatrix.from_rows(up, [[teichmuller(up, m.entry(0, 0))]] if f.d else []) for m in f.mats)
    out = Flag(up, f.genus, mats)
    if out.reduce_to(f.ring.r) != f:
        raise AssertionError("the Teichmuller diagonal must lift the input")
    return out


def lift_wound_kummer(f: Flag, flat: Flag | None = None) -> WoundLiftResult:
    """Lift a wound flag with Teichmuller characters one level.

    When supplied, ``flat`` pins the truncation of the output and must be a
    wound-Kummer lift of f.truncate(); otherwise the truncation is lifted
    recursively.  If the seeded glue is obstructed the quotient part is
    twisted in its upper-right corner by p^r times a solution of the cup
    equation in the leading 2-step subquotient, after which the glue is
    guaranteed to succeed.
    """
    if not is_wound_kummer(f):
        raise ValueError("input flag is not wound with Teichmuller characters")
    if flat is not None:
        _check_pinned(flat, f)
        if not is_wound_kummer(flat):
            raise ValueError("truncation part is not wound with Teichmuller characters")
    res = _lift_wound(f, flat)
    if not is_wound_kummer(res.flag):
        raise AssertionError("lift must stay wound with Teichmuller characters")
    return res


def _lift_wound(f: Flag, flat: Flag | None) -> WoundLiftResult:
    """``lift_wound_kummer`` past its boundary checks: trusts f, ``flat`` and what it derives."""
    if f.d <= 1:
        return WoundLiftResult(_teichmuller_diagonal(f), False)
    ring = f.ring
    if flat is None:
        flat = _lift_wound(f.truncate(), None).flag
    sharp = _lift_wound(f.quotient_by_first(), flat.quotient_by_first()).flag
    res = gluift(flat, sharp, f)
    if res.lifted:
        return WoundLiftResult(res.flag, False)
    if f.d == 2:
        raise LiftConsistencyError("rank-2 wound glue must be unobstructed")
    ring1 = RingSpec(ring.p, 1)
    seg = f.reduce_to(1).segment(0, 2).as_module()
    chi_bot_inv = tuple(ring1.inv(v % ring.p) for v in f.char(f.d))
    twisted = tensor_module(seg, char_module(ring1, f.genus, chi_bot_inv))
    ext = coordinate_extension(twisted, 1)
    if split_section(ext) is not None:
        raise AssertionError("woundness should make the leading 2-step twist nonsplit")
    target = CohClass(complex_of(ext.sub), 2, res.obstruction.vector)
    eps = solve_cup(ext, target)
    # the corner of sharp's last column moves by sign * p^r * eps * chi_last
    signed = [(CORNER_TWIST_SIGN * v[0],) for v in eps.values()]
    mats = _twist(sharp.mats, [(0, sharp.d - 1)], ring.modulus, signed)
    sharp_adj = Flag(sharp.ring, f.genus, mats)
    if sharp_adj.truncate() != flat.quotient_by_first():
        raise AssertionError("corner twist must not disturb the overlap")
    res = gluift(flat, sharp_adj, f)
    if not res.lifted:
        raise LiftConsistencyError("corner twist failed to kill the glue obstruction")
    return WoundLiftResult(res.flag, True)


# ---------------------------------------------------------------------------
# obstruction-free lifting of Kummer flags (trivial characters)


def _pinned_torsor_module(f: Flag) -> GModule:
    """Mod-p coefficients of the first-row twists I + sum_c v[c-1] E_(0,c).

    Lifts with a pinned quotient block form a torsor under such twists at
    scale p^r, and moving inside the torsor changes the relator defect by
    p^r times the degree-1 differential of the twist vectors in this
    module, the dual of the mod-p quotient block.
    """
    return dual_module(f.quotient_by_first().reduce_to(1).as_module())


def _first_row(d: int) -> list[tuple[int, int]]:
    """Support of the first-row twists: entries (0, 1) .. (0, d-1)."""
    return [(0, c) for c in range(1, d)]


def _pinned_relator_lift(f: Flag, sharp: Flag, torsor: GModule) -> Flag:
    """Some relator-exact lift of ``f`` with quotient block exactly ``sharp``.

    The candidate keeps the least residues of f's first row over the sharp
    block (its (0, 0) entry is 1, the trivial character of a Kummer flag);
    its defect is supported on the first row and vanishes mod p^r, and a
    first-row twist kills it iff one mod-p cochain equation is solvable
    in ``torsor``, f's ``_pinned_torsor_module``.  Unsolvable means no lift
    pins this quotient part at all.
    """
    cand = _seeded(sharp.ring, f.mats, [(1, sharp)])
    out = _torsor_step(cand, f.genus, _first_row(f.d), f.ring.modulus, torsor)
    if not out.lifted:
        raise LiftConsistencyError("no relator-exact lift pins the given quotient part")
    return out.flag


def _row_class_matrix(bar: Flag, k: int, g: int) -> RMatrix:
    """First-row twist response of the (0,1,k) step cochain, mod p.

    Entry (c, m-1) is the coefficient of twist coordinate m in the movement
    of the cochain at quotient coordinate c: the twisted lift moves the
    cochain of generator g by p^r * (this matrix @ twist vector of g).
    """
    rows = bar.mats[g].submatrix(range(1, bar.d), range(1, k))
    return (rows @ bar.segment(1, k).inverses[g]).transpose()


_SPLITTING_GRID_CAP = 2048


class NoKummerLift(LiftConsistencyError):
    """No pinned lift of a Kummer flag is Kummer, though relator-exact lifts may exist."""


def _solve_bands(
    ring: RingSpec, width: int, bands: Sequence[tuple[Sequence[int], Sequence[tuple[int, RMatrix]]]]
) -> tuple[int, ...] | None:
    """Solve the rows of ``bands``, stacked in order, for ``width`` unknowns over ``ring``.

    A band (rhs, [(first column, block), ...]) says that its blocks, each
    applied to the unknowns from its first column on, sum to rhs.
    """
    columns: list[dict[int, int]] = [{} for _ in range(width)]
    rhs: list[int] = []
    for values, blocks in bands:
        for start, block in blocks:
            rows = range(len(rhs), len(rhs) + block.rows)
            cells = itertools.product(rows, range(start, start + block.cols))
            for (i, c), x in zip(cells, block.entries):
                if x:
                    columns[c][i] = x
        rhs.extend(values)
    return smithify(SparseMatrix(ring, len(rhs), columns)).solve(rhs)


def _kummerize_pinned(f: Flag, o0: Flag, torsor: GModule) -> Flag:
    """Twist a pinned relator-exact lift ``o0`` until split steps stay split.

    Every step (0,j,k) split mod p gives one condition: the lift's (0,1,k)
    step cochain phi, pulled back through an equivariant section of V_k/V_j
    -> V_k/V_1, must be a coboundary one level up.  For j = 1 the section
    is the identity; for j >= 2 (only where (0,1,k) is not split) it is
    t = s + p E tau, where s is the mod-p section at a point of its torsor
    grid, tau is a (j-1) x (k-j) correction and E the (k-1) x (j-1)
    inclusion.  The unknowns are the first-row twists mu (d-1 per
    generator), then per condition tau (row-major) and a witness w (k-j).
    With A_g, B_g the pinned blocks V_k/V_1, V_k/V_j of generator g, H_g
    its action on the dual of V_k/V_j (Hom into the trivial line L_1), L_g
    its ``_row_class_matrix`` and d1 that of ``torsor`` (f's
    ``_pinned_torsor_module``), the rows are
    p^r d1 mu = 0 (the twisted lift stays relator-exact), then per
    condition and generator

        A_g t = t B_g (j > 1):  p ((A_g E) (x) I - E (x) B_g^T) tau = s B_g - A_g s,
        phi_g t + p^r (s^T L_g) mu_g = (H_g - 1) w:
            p (phi_g[:j-1] (x) I) tau + p^r (s^T L_g) mu_g + (I - H_g) w = -phi_g s.

    Remaining split steps sit inside the pinned quotient or are implied, so
    solvability at some grid point is equivalent to the existence of a
    pinned Kummer lift.  A grid cut short by ``_SPLITTING_GRID_CAP``
    without a solution decides nothing and raises KummerInconclusive.
    """
    ring = f.ring
    up = o0.ring
    d = f.d
    n_gens = 2 * f.genus
    p, pr = ring.p, ring.modulus
    bar = f.reduce_to(1)

    def over_up(m: RMatrix) -> RMatrix:
        return RMatrix(up, m.rows, m.cols, m.entries)

    split1 = [k for k in range(2, d + 1) if segment_extension_splits(bar, 0, 1, k)]
    sigma_pairs = [
        (j, k)
        for k in range(3, d + 1)
        if k not in split1
        for j in range(2, k)
        if segment_extension_splits(bar, 0, j, k)
    ]

    d1 = complex_of(torsor).d1
    d1_up = RMatrix.from_rows(up, [d1.col(c) for c in range(d1.cols)]).transpose()
    exact = (0,) * (d - 1), [(0, d1_up.scale(pr))]
    width = n_gens * (d - 1)
    conds, exps = [], []
    for j, k in [(1, k) for k in split1] + sigma_pairs:
        eye = RMatrix.identity(up, k - j)
        incl = RMatrix.identity(up, k - 1).submatrix(range(k - 1), range(j - 1))
        tau, w = width, width + (j - 1) * (k - j)
        width = w + k - j
        grid = None
        if j > 1:
            base = split_section(coordinate_extension(bar.segment(1, k).as_module(), j - 1))
            if base is None:
                raise AssertionError("projection of a split extension must split")
            hom = hom_module(bar.segment(j, k).as_module(), bar.segment(1, j).as_module())
            gens = complex_of(hom).d0_solver.on_kernel()
            exps += [bar.ring.r - e for e in gens.exponents]
            grid = base, gens
        phi = extension_class(coordinate_extension(o0.segment(0, k).as_module(), 1)).values()
        hom_acts = dual_module(o0.segment(j, k).as_module()).acts
        blocks = []
        for g, (a, b) in enumerate(zip(o0.segment(1, k).mats, o0.segment(j, k).mats)):
            phi_g = RMatrix.from_rows(up, [phi[g]])
            equi = ((a @ incl).kron(eye) - incl.kron(b.transpose())).scale(p)
            pulled = [(tau, (phi_g @ incl).kron(eye).scale(p)), (w, eye - hom_acts[g])]
            blocks.append((a, b, phi_g, over_up(_row_class_matrix(bar, k, g)), equi, pulled))
        conds.append((j, k, tau, grid, blocks))

    for point in itertools.islice(itertools.product(*(range(p**e) for e in exps)), _SPLITTING_GRID_CAP):
        coeffs = iter(point)
        bands = [exact]
        for j, k, tau, grid, blocks in conds:
            s = RMatrix.identity(up, k - 1)
            if grid is not None:
                base, gens = grid
                top = hom_mat(bar.ring, gens.apply(tuple(itertools.islice(coeffs, gens.cols))), j - 1, k - j)
                s = over_up(base + RMatrix.vstack([top, RMatrix.zeros(bar.ring, k - j, k - j)]))
            for g, (a, b, phi_g, l_g, equi, pulled) in enumerate(blocks):
                if j > 1:
                    bands.append(((s @ b - a @ s).entries, [(tau, equi)]))
                mu = g * (d - 1), (s.transpose() @ l_g).scale(pr)
                bands.append(((phi_g @ s).scale(-1).entries, [mu, *pulled]))
        sol = _solve_bands(up, width, bands)
        if sol is not None:
            twists = unstack(sol[: n_gens * (d - 1)], d - 1, n_gens)
            return Flag(up, f.genus, _twist(o0.mats, _first_row(d), pr, twists))
    if p ** sum(exps) > _SPLITTING_GRID_CAP:
        raise KummerInconclusive(
            f"splitting grid truncated at {_SPLITTING_GRID_CAP} attempts "
            "before a pinned lift kept the split steps split"
        )
    raise NoKummerLift("no pinned lift keeps the split steps split one level up")


def lift_kummer(f: Flag) -> Flag:
    """Lift a Kummer flag one level.

    Output o satisfies o.reduce_to(r) == f and is itself Kummer; that much
    is proven and checked.  Its quotient by the first line is lifted first,
    recursively, and then pinned.  To pin a given Kummer lift ``sharp`` of
    f.quotient_by_first() instead, pin its dual as the truncation of the
    dual flag: ``lift_kummer_truncation(f.dual(), sharp.dual()).dual()``
    (dual is an involution).  At r >= 2 a flag that passes ``is_kummer``
    may have no Kummer lift at all, as ``gen_random_flag(2, 2, 4, 1,
    kind="kummer", seed=25003)`` has none; then NoKummerLift is raised.

    The pinned lifts form a torsor under first-row twists at scale p^r and
    every split-stability condition on the output is linear over the torsor
    once a mod-p splitting of each relevant lower step is fixed, so the
    engine is one relator solve plus one joint solve per splitting choice.
    Raises KummerInconclusive when the choices run past their budget.
    """
    return _checked_kummer_lift(f, None, lambda: _lift_kummer(f, None))


def lift_kummer_truncation(f: Flag, flat: Flag | None = None) -> Flag:
    """Lift a Kummer flag one level, pinning the truncation part exactly.

    Carried out through the duality involution: dualize, lift with the
    dual of ``flat`` as the pinned quotient part, dualize back.  The input
    and ``flat`` are checked before dualizing, so errors name the truncation.
    The output is Kummer, reduces to f and has truncation ``flat``; as for
    ``lift_kummer``, a flag with no Kummer lift raises NoKummerLift.
    """
    dual_lift = lambda: _lift_kummer(f.dual(), None if flat is None else flat.dual()).dual()
    return _checked_kummer_lift(f, flat, dual_lift)


def _checked_kummer_lift(f: Flag, flat: Flag | None, lift: Callable[[], Flag]) -> Flag:
    """Both Kummer lifts: check f and the pinned truncation ``flat`` once, ``lift``, check the output."""
    v = is_kummer(f)
    if not v.ok:
        raise ValueError(f"input flag is not Kummer: {v.reason}")
    if flat is not None:
        _check_pinned(flat, f)
        vp = is_kummer(flat)
        if not vp.ok:
            raise ValueError(f"truncation part is not Kummer: {vp.reason}")
    out = lift()
    if out.reduce_to(f.ring.r) != f or (flat is not None and out.truncate() != flat):
        raise AssertionError("Kummer lift must reduce to the input and pin the truncation part")
    vv = is_kummer(out)
    if not vv.ok:
        raise LiftConsistencyError(f"lifted flag lost the Kummer property: {vv.reason}")
    return out


def _lift_kummer(f: Flag, sharp: Flag | None) -> Flag:
    """``lift_kummer`` past its boundary checks: trusts f, ``sharp`` and what it derives."""
    if f.d <= 1:
        return _teichmuller_diagonal(f)
    if sharp is None:
        sharp = _lift_kummer(f.quotient_by_first(), None)
    torsor = _pinned_torsor_module(f)
    return _kummerize_pinned(f, _pinned_relator_lift(f, sharp, torsor), torsor)


def lift_h1_class(f: Flag, cls: CohClass) -> CohClass:
    """Lift a mod-p degree-1 class to the full level of a Kummer flag.

    The class is packed into the last column of a (d+1)-dimensional mod-p
    flag, which is lifted up the tower with its truncation pinned to the
    reductions of ``f``; the lifted column is the output cocycle.  A flag
    that fails ``is_kummer`` is refused with the engines' message.
    """
    ring = f.ring
    d = f.d
    n_gens = 2 * f.genus
    verdict = is_kummer(f)
    if not verdict.ok:
        raise ValueError(f"input flag is not Kummer: {verdict.reason}")
    bar = f.reduce_to(1)
    if cls.degree != 1 or cls.cx.module != bar.as_module():
        raise ValueError("class must be a degree-1 class of the mod-p flag module")
    vals = cls.values()
    cur = column_extension(Flag, bar, vals)
    for s in range(1, ring.r):
        cur = lift_kummer_truncation(cur, f.reduce_to(s + 1))
    out_vals = [tuple(cur.mats[g].entry(i, d) for i in range(d)) for g in range(n_gens)]
    for g in range(n_gens):
        if tuple(v % ring.p for v in out_vals[g]) != tuple(vals[g]):
            raise AssertionError("lifted cocycle must reduce to the input values")
    return CohClass(complex_of(f.as_module()), 1, stack(out_vals))
