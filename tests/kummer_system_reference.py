"""The Kummer engine's joint systems assembled row by row, to check the block engine against.

``lifting._kummerize_pinned`` states each split condition as a few matrix
blocks.  This module keeps the row-by-row assembly it replaced: every
equation is written one row and one column index at a time into a
``_JointSystem``, from the data a ``_SplitCondition`` holds.
``reference_systems`` yields the system of each grid point in the engine's
order, without solving it, so a test can assert that the engine solves
exactly these systems, in this order, and stops at the first solvable one.
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from flaglift.cohomology import complex_of, coordinate_extension, extension_class, split_section
from flaglift.flags import Flag, segment_extension_splits
from flaglift.lifting import _SPLITTING_GRID_CAP, _pinned_torsor_module, _row_class_matrix
from flaglift.surface import char_module, hom_mat, hom_module
from flaglift.zmod import RingSpec, RMatrix


def _splitting_grid(bar: Flag, j: int, k: int) -> tuple[RMatrix, list[tuple[tuple[int, ...], int]]]:
    """Base mod-p splitting of V_k/V_j -> V_k/V_1 plus its torsor generators.

    For j = 1 the splitting is the identity and the torsor is trivial.
    """
    if j == 1:
        return RMatrix.identity(bar.ring, k - 1), []
    section = split_section(coordinate_extension(bar.segment(1, k).as_module(), j - 1))
    if section is None:
        raise AssertionError("projection of a split extension must split")
    hom = hom_module(bar.segment(j, k).as_module(), bar.segment(1, j).as_module())
    return section, complex_of(hom).d0_solver.kernel()


@dataclass
class _JointSystem:
    """A linear system over Z/p^(r+1) whose unknowns come in column blocks.

    ``block`` hands out fresh columns in order; rows are sparse
    {column: nonzero coefficient} maps, which ``columns`` writes into
    sparse columns.
    """

    ring: RingSpec
    width: int = 0
    rows: list[tuple[dict[int, int], int]] = field(default_factory=list)

    def block(self, size: int) -> int:
        """Reserve ``size`` fresh columns and return the first."""
        start = self.width
        self.width += size
        return start

    def add(self, coeffs: dict[int, int], rhs: int) -> None:
        m = self.ring.modulus
        self.rows.append(({c: x for c, v in coeffs.items() if (x := v % m)}, rhs % m))

    def fork(self) -> "_JointSystem":
        """A copy that takes further rows without touching this one."""
        return replace(self, rows=list(self.rows))

    def columns(self) -> tuple[int, list[dict[int, int]], tuple[int, ...]]:
        """(row count, sparse columns, right-hand side), as ``SparseMatrix`` holds them."""
        columns: list[dict[int, int]] = [{} for _ in range(self.width)]
        for i, (row, _) in enumerate(self.rows):
            for c, x in row.items():
                columns[c][i] = x
        return len(self.rows), columns, tuple(rhs for _, rhs in self.rows)


@dataclass(frozen=True)
class _SplitCondition:
    """A step (0,j,k) split mod p, with the unknowns that keep it split.

    The (0,1,k) step cochain of the lift, pulled back through an equivariant
    section of V_k/V_j -> V_k/V_1, must be a coboundary one level up.  The
    section is ``base`` plus a point of the torsor grid mod p, corrected at
    scale p by a (j-1) x (k-j) block.  For j = 1 the section is the identity
    with a one-point grid and no correction block.
    """

    j: int
    k: int
    cochain: Sequence[tuple[int, ...]]  # step cochain of the pinned lift, per generator
    row_class: Sequence[RMatrix]  # _row_class_matrix, per generator
    a_mats: Sequence[RMatrix]  # pinned block V_k/V_1
    b_mats: Sequence[RMatrix]  # pinned block V_k/V_j
    hom_acts: Sequence[RMatrix]  # Hom(V_k/V_j, L_1) over the pinned block
    base: RMatrix
    torsor: Sequence[tuple[tuple[int, ...], int]]
    section_col: int  # (j-1)(k-j) columns
    witness_col: int  # k-j columns

    def section(self, coeffs: Sequence[int], up: RingSpec) -> RMatrix:
        """Mod-p section at a torsor grid point, as a matrix over ``up``."""
        j, k, p = self.j, self.k, up.p
        nh = (j - 1) * (k - j)
        hvec = [0] * nh
        for c_val, (gvec, _) in zip(coeffs, self.torsor):
            for i in range(nh):
                hvec[i] = (hvec[i] + c_val * gvec[i]) % p
        hmat = hom_mat(self.base.ring, hvec, j - 1, k - j)
        return RMatrix.from_rows(up, [
            [
                (self.base.entry(a, b) + (hmat.entry(a, b) if a < j - 1 else 0)) % p
                for b in range(k - j)
            ]
            for a in range(k - 1)
        ])


def reference_systems(
    f: Flag, o0: Flag
) -> Iterator[tuple[int, list[dict[int, int]], tuple[int, ...]]]:
    """The joint system of every grid point the engine tries on (f, o0), in its order.

    Each system is (row count, sparse columns, right-hand side).
    """
    ring = f.ring
    up = o0.ring
    d = f.d
    n_gens = 2 * f.genus
    p, pr = ring.p, ring.modulus
    bar = f.reduce_to(1)
    l1 = char_module(up, f.genus, (1,) * n_gens)

    split1 = [k for k in range(2, d + 1) if segment_extension_splits(bar, 0, 1, k)]
    sigma_pairs = [
        (j, k)
        for k in range(3, d + 1)
        if k not in split1
        for j in range(2, k)
        if segment_extension_splits(bar, 0, j, k)
    ]

    system = _JointSystem(up)
    mu = system.block(n_gens * (d - 1))  # the first-row twist, d-1 per generator
    conds = []
    for (j, k) in [(1, k) for k in split1] + sigma_pairs:
        base, torsor = _splitting_grid(bar, j, k)
        ext = coordinate_extension(o0.segment(0, k).as_module(), 1)
        conds.append(_SplitCondition(
            j,
            k,
            extension_class(ext).values(),
            [_row_class_matrix(bar, k, g) for g in range(n_gens)],
            o0.segment(1, k).mats,
            o0.segment(j, k).mats,
            hom_module(o0.segment(j, k).as_module(), l1).acts,
            base,
            torsor,
            system.block((j - 1) * (k - j)),
            system.block(k - j),
        ))

    def twist(g: int, weights: Sequence[int]) -> dict[int, int]:
        """Columns of generator g's twist, moving a cochain by p^r * weights."""
        return {mu + g * (d - 1) + m: pr * w for m, w in enumerate(weights)}

    def witness(col: int, hom_act: RMatrix, i: int) -> dict[int, int]:
        """Columns of -(g.w - w) at coordinate i, for a witness w at ``col``."""
        return {
            col + c: -(hom_act.entry(i, c) - (1 if c == i else 0)) for c in range(hom_act.cols)
        }

    # twists must preserve relator exactness: d1 of the twist vector is 0
    dmat = complex_of(_pinned_torsor_module(f)).d1
    for i in range(d - 1):
        system.add({mu + c: pr * dmat.columns[c].get(i, 0) for c in range(dmat.cols)}, 0)

    grids = []
    for sc in conds:
        ranges = [range(p**e) for _, e in sc.torsor]
        grids.append(list(itertools.islice(itertools.product(*ranges), _SPLITTING_GRID_CAP)))

    for combo in itertools.islice(itertools.product(*grids), _SPLITTING_GRID_CAP):
        trial = system.fork()
        for sc, coeffs in zip(conds, combo):
            j, k = sc.j, sc.k
            sig0 = sc.section(coeffs, up)
            for g in range(n_gens):
                if j > 1:
                    # the section stays equivariant after its p-scaled
                    # correction; for the identity section these rows read 0 = 0
                    am, bm = sc.a_mats[g], sc.b_mats[g]
                    const = am @ sig0 - sig0 @ bm
                    for a in range(k - 1):
                        for b in range(k - j):
                            # entry (a, b) of am @ tau - tau @ bm, where tau is the
                            # correction block (row-major) padded to k-1 rows
                            row = {
                                sc.section_col + ta * (k - j) + b: p * am.entry(a, ta)
                                for ta in range(j - 1)
                            }
                            if a < j - 1:
                                for tb in range(k - j):
                                    col = sc.section_col + a * (k - j) + tb
                                    row[col] = row.get(col, 0) - p * bm.entry(tb, b)
                            trial.add(row, -const.entry(a, b))
                # the cochain pulled back through the section is a coboundary
                phi0, lm = sc.cochain[g], sc.row_class[g]
                for b in range(k - j):
                    row = {sc.section_col + ta * (k - j) + b: p * phi0[ta] for ta in range(j - 1)}
                    row.update(twist(g, [
                        sum(lm.entry(cp, m) * sig0.entry(cp, b) for cp in range(k - 1))
                        for m in range(d - 1)
                    ]))
                    row.update(witness(sc.witness_col, sc.hom_acts[g], b))
                    trial.add(row, -sum(phi0[c] * sig0.entry(c, b) for c in range(k - 1)))
        yield trial.columns()
