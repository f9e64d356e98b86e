"""Exact linear algebra over the local rings Z/p^r.

All arithmetic is plain Python integer arithmetic on residues in the range
[0, p^r).  Z/p^r is a local ring: every element is a unit times a power of
p, so elimination with valuation-minimal pivots reaches a canonical
staircase form without any general PID machinery.  The module provides:

* ``RingSpec`` / ``RMatrix``: immutable ring descriptors and matrices,
* ``echelonize``: Howell-style staircase form.  Extra "shadow" rows
  (p-multiples of pivot rows) are woven in so that row-span membership and
  canonical coset representatives can be read off by greedy reduction,
  which a plain staircase cannot do over Z/p^r (example: the row (0, p)
  lies in the span of (p, 1) over Z/p^2),
* ``smithify``: two-sided diagonalization P @ A @ Q = diag(p^e),
* ``LinearSolver``: one solution of A x = b plus an independent kernel
  basis with annihilator exponents,
* ``SpanReducer``: canonical coset representatives modulo a row span,
* ``teichmuller``: the multiplicative lift of a unit mod p.

Vectors are plain tuples of ints; matrices are ``RMatrix``.  ``apply``
walks only the nonzero entries of the vector and of the matching matrix
columns, so its cost scales with the nonzeros of both, not with the shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence


# Miller-Rabin with the first 13 primes as bases is exact below
# _PRIME_TEST_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015; Jaeschke, Math. Comp. 61, 1993, for smaller base sets).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; larger n raise ValueError."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(
            f"{n} is too large: primality is decided only below {_PRIME_TEST_BOUND}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ring Z/p^r for a prime p and exponent r >= 1."""

    p: int
    r: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 1:
            raise ValueError(f"exponent r = {self.r} must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.r

    def val(self, a: int) -> int:
        """p-adic valuation of the residue of a; val(0) = r by convention."""
        a %= self.modulus
        if a == 0:
            return self.r
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def unit_part(self, a: int) -> int:
        """The unit u with a = u * p^val(a); unit_part(0) = 1."""
        a %= self.modulus
        if a == 0:
            return 1
        return a // self.p ** self.val(a)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        a %= self.modulus
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit mod {self.p}^{self.r}")
        return pow(a, -1, self.modulus)

    def shrink(self, s: int) -> "RingSpec":
        if not 1 <= s <= self.r:
            raise ValueError(f"cannot shrink Z/{self.p}^{self.r} to exponent {s}")
        return RingSpec(self.p, s)


def teichmuller(ring: RingSpec, a: int) -> int:
    """Multiplicative (Teichmuller) lift of the unit a mod p to Z/p^r.

    The unique (p-1)-st root of unity congruent to a mod p, computed as
    a^(p^(r-1)) mod p^r.
    """
    a %= ring.modulus
    if not ring.is_unit(a):
        raise ValueError(f"{a} is not a unit mod {ring.p}")
    return pow(a, ring.p ** (ring.r - 1), ring.modulus)


# ---------------------------------------------------------------------------
# vectors: plain tuples of least non-negative residues


def vec_mod(ring: RingSpec, v: Iterable[int]) -> tuple[int, ...]:
    m = ring.modulus
    return tuple(x % m for x in v)


def vec_add(ring: RingSpec, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    m = ring.modulus
    return tuple((a + b) % m for a, b in zip(u, v, strict=True))


def vec_scale(ring: RingSpec, c: int, v: Sequence[int]) -> tuple[int, ...]:
    m = ring.modulus
    return tuple((c * a) % m for a in v)


def tensor_vec(ring: RingSpec, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Kronecker pairing (u tensor v)[i*len(v) + j] = u[i] * v[j]."""
    m = ring.modulus
    return tuple((a * b) % m for a in u for b in v)


@dataclass(frozen=True)
class RMatrix:
    """Immutable matrix over Z/p^r with row-major tuple storage."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        m = self.ring.modulus
        ents = self.entries
        if ents and (min(ents) < 0 or max(ents) >= m):
            object.__setattr__(
                self, "entries", tuple(x % m for x in ents)
            )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, rows: Sequence[Sequence[int]]) -> "RMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return RMatrix(ring, nrows, ncols, tuple(flat))

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "RMatrix":
        ents = [0] * (n * n)
        ents[:: n + 1] = [1] * n
        return RMatrix(ring, n, n, tuple(ents))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "RMatrix":
        return RMatrix(ring, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def diagonal(ring: RingSpec, diag: Sequence[int]) -> "RMatrix":
        n = len(diag)
        return RMatrix(
            ring,
            n,
            n,
            tuple(diag[i] % ring.modulus if i == j else 0 for i in range(n) for j in range(n)),
        )

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RMatrix.identity(self.ring, self.rows)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "RMatrix") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        m = self.ring.modulus
        return RMatrix(
            self.ring,
            self.rows,
            self.cols,
            tuple((a + b) % m for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        m = self.ring.modulus
        return RMatrix(
            self.ring,
            self.rows,
            self.cols,
            tuple((a - b) % m for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, c: int) -> "RMatrix":
        m = self.ring.modulus
        c %= m
        return RMatrix(self.ring, self.rows, self.cols, tuple((c * a) % m for a in self.entries))

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in @: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        m = self.ring.modulus
        n, k, q = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * q)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * q
            for t in range(k):
                av = arow[t]
                if av == 0:
                    continue
                brow = b[t * q : (t + 1) * q]
                for j in range(q):
                    out[base + j] += av * brow[j]
        return RMatrix(self.ring, n, q, tuple(x % m for x in out))

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector, as a tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        cols, ents = self.cols, self.entries
        out = [0] * self.rows
        for j, x in enumerate(v):
            if x:
                for i, a in enumerate(ents[j::cols]):
                    if a:
                        out[i] += x * a
        m = self.ring.modulus
        return tuple(y % m for y in out)

    def transpose(self) -> "RMatrix":
        cols, ents = self.cols, self.entries
        return RMatrix(
            self.ring,
            cols,
            self.rows,
            tuple(itertools.chain.from_iterable(ents[j::cols] for j in range(cols))),
        )

    def kron(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        m = self.ring.modulus
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [0] * (rows * cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entry(i, j)
                if a == 0:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        out[(i * other.rows + k) * cols + (j * other.cols + l)] = (
                            a * other.entry(k, l)
                        ) % m
        return RMatrix(self.ring, rows, cols, tuple(out))

    # -- structure ----------------------------------------------------------

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RMatrix":
        return RMatrix(
            self.ring,
            len(row_idx),
            len(col_idx),
            tuple(self.entry(i, j) for i in row_idx for j in col_idx),
        )

    @staticmethod
    def hstack(blocks: Sequence["RMatrix"]) -> "RMatrix":
        if not blocks:
            raise ValueError("hstack of nothing")
        ring, rows = blocks[0].ring, blocks[0].rows
        if any(b.rows != rows or b.ring != ring for b in blocks):
            raise ValueError("hstack shape/ring mismatch")
        out = []
        for i in range(rows):
            for b in blocks:
                out.extend(b.row(i))
        return RMatrix(ring, rows, sum(b.cols for b in blocks), tuple(out))

    @staticmethod
    def vstack(blocks: Sequence["RMatrix"]) -> "RMatrix":
        if not blocks:
            raise ValueError("vstack of nothing")
        ring, cols = blocks[0].ring, blocks[0].cols
        if any(b.cols != cols or b.ring != ring for b in blocks):
            raise ValueError("vstack shape/ring mismatch")
        out = []
        for b in blocks:
            out.extend(b.entries)
        return RMatrix(ring, sum(b.rows for b in blocks), cols, tuple(out))

    def reduce_to(self, s: int) -> "RMatrix":
        """Entrywise reduction to Z/p^s for s <= r."""
        target = self.ring.shrink(s)
        m = target.modulus
        return RMatrix(target, self.rows, self.cols, tuple(x % m for x in self.entries))

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            return False
        # invertible over the local ring iff invertible mod p
        return _det_mod_p(self) != 0

    def inverse(self) -> "RMatrix":
        """Inverse by Gauss-Jordan; a unit pivot exists in every column."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        ring = self.ring
        m = ring.modulus
        n = self.rows
        a = self.to_lists()
        b = RMatrix.identity(ring, n).to_lists()
        for c in range(n):
            piv = next((i for i in range(c, n) if ring.is_unit(a[i][c])), None)
            if piv is None:
                raise ZeroDivisionError("matrix is not invertible")
            a[c], a[piv] = a[piv], a[c]
            b[c], b[piv] = b[piv], b[c]
            u = ring.inv(a[c][c])
            a[c] = [(u * x) % m for x in a[c]]
            b[c] = [(u * x) % m for x in b[c]]
            for i in range(n):
                if i == c or a[i][c] == 0:
                    continue
                f = a[i][c]
                a[i] = [(x - f * y) % m for x, y in zip(a[i], a[c])]
                b[i] = [(x - f * y) % m for x, y in zip(b[i], b[c])]
        return RMatrix.from_rows(ring, b)


def _det_mod_p(a: RMatrix) -> int:
    p = a.ring.p
    n = a.rows
    rows = [[x % p for x in a.row(i)] for i in range(n)]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = (det * rows[c][c]) % p
        inv = pow(rows[c][c], -1, p)
        for i in range(c + 1, n):
            if rows[i][c]:
                f = (rows[i][c] * inv) % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


# ---------------------------------------------------------------------------
# echelon / Howell form


@dataclass(frozen=True)
class Pivot:
    row: int
    col: int
    exponent: int  # pivot value is p^exponent


@dataclass(frozen=True)
class EchelonResult:
    """Howell staircase H of a matrix, with its pivots.

    H has the row span of the input, with one row per input row plus one
    per shadow row woven in during the sweep.  Pivot entries are exact
    powers of p, entries below a pivot are zero, entries above are reduced
    modulo the pivot value, and every element of the row span of the input
    reduces to zero greedily against the pivot rows (Howell property).
    """

    h: RMatrix
    pivots: tuple[Pivot, ...]


def echelonize(a: RMatrix) -> EchelonResult:
    """Canonical staircase (Howell) form over Z/p^r.

    Sweeps columns left to right; in each column the pivot is the entry of
    minimal p-valuation among the unused rows (ties to the smallest row
    index), normalized to an exact power of p by a unit.  After eliminating
    the column, a pivot p^v with v > 0 contributes the shadow row
    p^(r-v) * (pivot row) to the working pool, which keeps the span data
    complete in later columns.
    """
    ring = a.ring
    p, r, m = ring.p, ring.r, ring.modulus
    work = [list(a.row(i)) for i in range(a.rows)]
    pivots: list[Pivot] = []
    cur = 0
    for col in range(a.cols):
        cand = [(ring.val(work[i][col]), i) for i in range(cur, len(work)) if work[i][col]]
        if not cand:
            continue
        v, piv = min(cand)
        work[cur], work[piv] = work[piv], work[cur]
        u = ring.inv(ring.unit_part(work[cur][col]))
        work[cur] = [(u * x) % m for x in work[cur]]
        pval = p**v
        # eliminate below: every lower entry in the column has valuation >= v
        for i in range(cur + 1, len(work)):
            e = work[i][col]
            if e:
                f = e // pval
                work[i] = [(x - f * y) % m for x, y in zip(work[i], work[cur])]
        if v > 0:
            mult = p ** (r - v)
            shadow = [(mult * x) % m for x in work[cur]]
            if any(shadow):
                work.append(shadow)
        pivots.append(Pivot(cur, col, v))
        cur += 1
    # back-substitution: entries above each pivot reduced modulo the pivot
    for pv_ in pivots:
        i, c, v = pv_.row, pv_.col, pv_.exponent
        pval = p**v
        for j in range(i):
            q = work[j][c] // pval
            if q:
                work[j] = [(x - q * y) % m for x, y in zip(work[j], work[i])]
    h = RMatrix.from_rows(ring, work) if work else RMatrix.zeros(ring, 0, a.cols)
    return EchelonResult(h, tuple(pivots))


# ---------------------------------------------------------------------------
# two-sided diagonalization and linear solving


@dataclass(frozen=True)
class SmithResult:
    """Invertible P, Q with P @ A @ Q = diag(p^e) (exponents nondecreasing).

    ``exponents`` has one entry per diagonal slot min(rows, cols); a zero
    diagonal entry is recorded as exponent r.
    """

    left: RMatrix
    right: RMatrix
    diag: RMatrix
    exponents: tuple[int, ...]


def smithify(a: RMatrix) -> SmithResult:
    """Diagonalize over Z/p^r by global minimal-valuation full pivoting.

    One sweep suffices over the local ring: after moving a minimal-valuation
    entry p^v to the corner, every entry in its row and column is an exact
    multiple of p^v, so a single round of eliminations clears both.  Ties
    are broken towards the smallest (row, col) lexicographically.
    """
    ring = a.ring
    p, r, m = ring.p, ring.r, ring.modulus
    nr, nc = a.rows, a.cols
    mat = a.to_lists()
    pmat = RMatrix.identity(ring, nr).to_lists()
    qmat = RMatrix.identity(ring, nc).to_lists()
    lim = min(nr, nc)
    exps: list[int] = []
    for k in range(lim):
        best: tuple[int, int, int] | None = None
        for i in range(k, nr):
            for j in range(k, nc):
                e = mat[i][j]
                if e:
                    v = ring.val(e)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            exps.extend([r] * (lim - k))
            break
        v, bi, bj = best
        if bi != k:
            mat[k], mat[bi] = mat[bi], mat[k]
            pmat[k], pmat[bi] = pmat[bi], pmat[k]
        if bj != k:
            for row in mat:
                row[k], row[bj] = row[bj], row[k]
            for row in qmat:
                row[k], row[bj] = row[bj], row[k]
        u = ring.inv(ring.unit_part(mat[k][k]))
        mat[k] = [(u * x) % m for x in mat[k]]
        pmat[k] = [(u * x) % m for x in pmat[k]]
        pval = p**v
        for i in range(nr):
            if i != k and mat[i][k]:
                f = mat[i][k] // pval
                mat[i] = [(x - f * y) % m for x, y in zip(mat[i], mat[k])]
                pmat[i] = [(x - f * y) % m for x, y in zip(pmat[i], pmat[k])]
        # column k of mat is now zero off the pivot, and every mat[k][j] is
        # an exact multiple of pval, so a column operation only turns
        # mat[k][j] into 0 and leaves qmat rows with row[k] == 0 unchanged
        for j in range(nc):
            if j != k and mat[k][j]:
                f = mat[k][j] // pval
                mat[k][j] = 0
                for row in qmat:
                    if row[k]:
                        row[j] = (row[j] - f * row[k]) % m
        exps.append(v)
    left = RMatrix.from_rows(ring, pmat) if nr else RMatrix.zeros(ring, 0, 0)
    right = RMatrix.from_rows(ring, qmat) if nc else RMatrix.zeros(ring, 0, 0)
    diag = RMatrix.from_rows(ring, mat) if nr else RMatrix.zeros(ring, 0, nc)
    return SmithResult(left, right, diag, tuple(exps))


class LinearSolver:
    """Solve A x = b repeatedly and enumerate ker A, from one smithify call."""

    def __init__(self, a: RMatrix):
        self.a = a
        self.ring = a.ring
        self.smith = smithify(a)
        self._kernel: list[tuple[tuple[int, ...], int]] | None = None

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of A x = b, or None.  Deterministic."""
        ring = self.ring
        p, r = ring.p, ring.r
        if len(b) != self.a.rows:
            raise ValueError("rhs length mismatch")
        c = self.smith.left.apply(tuple(b))
        lim = min(self.a.rows, self.a.cols)
        y = [0] * self.a.cols
        for i in range(self.a.rows):
            if i >= lim:
                if c[i] != 0:
                    return None
                continue
            e = self.smith.exponents[i]
            if c[i] == 0:
                continue
            if ring.val(c[i]) < e:
                return None
            y[i] = c[i] // p**e
        x = self.smith.right.apply(tuple(y))
        if self.a.apply(x) != vec_mod(ring, b):
            raise AssertionError("smith solve postcondition failed")
        return x

    def kernel(self) -> list[tuple[tuple[int, ...], int]]:
        """Independent generators of ker A as (vector, annihilator exponent).

        The span of the generators is the whole kernel; generator i has
        order p^exponent_i and the coefficient tuples
        (t_i in range(p^exponent_i)) hit each kernel element exactly once.
        """
        if self._kernel is not None:
            return self._kernel
        ring = self.ring
        p, r = ring.p, ring.r
        lim = min(self.a.rows, self.a.cols)
        gens: list[tuple[tuple[int, ...], int]] = []
        for j in range(self.a.cols):
            e = self.smith.exponents[j] if j < lim else r
            if e > 0:
                col = self.smith.right.col(j)
                gens.append((vec_scale(ring, p ** (r - e), col), e))
        self._kernel = gens
        return gens

    def kernel_size(self) -> int:
        return (self.ring.p ** sum(e for _, e in self.kernel()))


def span_coefficients(p: int, exps: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All tuples t with t[i] in range(p**exps[i]), the zero tuple first.

    Matched to ``LinearSolver.kernel``: applying the tuples to the kernel
    generators walks the kernel span without repetition.
    """
    ranges = [range(p**e) for e in exps]
    return itertools.product(*ranges)


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


# ---------------------------------------------------------------------------
# module invariants: cokernels, subquotients


@dataclass(frozen=True)
class QuotientData:
    """Invariants and lifted generators of span(gens) / span(rels)."""

    invariants: tuple[int, ...]  # ascending exponents e, group = + Z/p^e
    reps: tuple[tuple[int, ...], ...]  # ambient representatives, one per invariant


def quotient_data(
    ring: RingSpec,
    gens: Sequence[Sequence[int]],
    rels: Sequence[Sequence[int]],
) -> QuotientData:
    """Structure of span(gens)/span(rels); rels must lie in span(gens).

    Presents the subquotient on the given generators: relations are the
    kernel of the generator matrix plus the coordinates of each rel vector,
    then one smithify of the relation matrix reads off the invariants and
    a generator change of basis gives ambient representatives.
    """
    if not gens:
        if any(any(x % ring.modulus for x in v) for v in rels):
            raise ValueError("relations outside the zero span")
        return QuotientData((), ())
    g = RMatrix.from_rows(ring, [list(v) for v in gens]).transpose()
    solver = LinearSolver(g)
    rel_cols: list[tuple[int, ...]] = [vec for vec, _ in solver.kernel()]
    for v in rels:
        lam = solver.solve(v)
        if lam is None:
            raise ValueError("relation vector outside the generator span")
        rel_cols.append(lam)
    k = len(gens)
    if rel_cols:
        rel = RMatrix.from_rows(ring, [list(c) for c in rel_cols]).transpose()
    else:
        rel = RMatrix.zeros(ring, k, 0)
    sm = smithify(rel)
    lim = min(rel.rows, rel.cols)
    exps = [sm.exponents[i] if i < lim else ring.r for i in range(k)]
    p_inv = sm.left.inverse()
    invariants: list[int] = []
    reps: list[tuple[int, ...]] = []
    order = sorted(range(k), key=lambda i: exps[i])
    for i in order:
        if exps[i] > 0:
            invariants.append(exps[i])
            reps.append(g.apply(p_inv.col(i)))
    return QuotientData(tuple(invariants), tuple(reps))


def cokernel_data(a: RMatrix) -> QuotientData:
    """Invariants and representatives of R^rows / column-span(A)."""
    ring = a.ring
    basis = [tuple(1 if i == j else 0 for j in range(a.rows)) for i in range(a.rows)]
    rels = [a.col(j) for j in range(a.cols)]
    return quotient_data(ring, basis, rels)
