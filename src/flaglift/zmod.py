"""Exact linear algebra over the local rings Z/p^r.

All arithmetic is plain Python integer arithmetic on residues in the range
[0, p^r).  Z/p^r is a local ring: every element is a unit times a power of
p, so elimination with valuation-minimal pivots reaches a canonical
staircase form without any general PID machinery.  The module provides:

* ``RingSpec`` / ``RMatrix``: immutable ring descriptors and matrices,
* ``echelonize``: Howell-style staircase form, with extra "shadow" rows
  (p-multiples of pivot rows) woven in.  No program path calls it; it stays
  because the benchmark's tracer wraps it,
* ``SparseMatrix``: a matrix as one dict of nonzeros per column, with the
  package's one matrix-vector product (``apply``),
* ``smithify``: two-sided diagonalization P @ A @ Q = diag(p^e) of a
  ``SparseMatrix``, with Q^-1 carried through the same sweep.  It returns
  the ``LinearSolver`` on A, which keeps A's own columns, uncopied, and
  owns the three factors as the sweep's own sparse lines, never as
  matrices,
* ``LinearSolver``: a ``SparseMatrix`` with everything read off its one
  sweep: one solution of A x = b, an independent kernel basis with
  annihilator exponents, the cokernel (``cokernel``), and the solver on the
  matrix G of kernel generators (``on_kernel``), whose columns and Smith
  factors are read off A's sweep, so G is neither swept nor built densely,
* ``ModuleShape``: the invariants of a finite abelian p-group and its
  representatives, which ``cokernel`` and ``quotient_data`` work out only
  when ``reps`` is first read,
* ``quotient_data``: invariants and representatives of a subquotient
  colspan(G) / span(rels), presented on a solver of G by a relation matrix
  built as sparse columns, and carried into the ambient space by that
  solver's ``apply``,
* ``teichmuller``: the multiplicative lift of a unit mod p.

``RMatrix(...)`` and ``from_rows`` check the shape and reduce entries to
least residues.  ``+``, ``-``, ``scale``, ``@``, ``vstack``,
``submatrix``, ``transpose``, ``kron``, ``reduce_to``, ``inverse``,
``identity`` and ``zeros`` build least residues of the right count, so they
skip that scan (``_trusted_matrix``).  Likewise ``RingSpec(p, r)`` tests p
for primality, and ``shrink`` builds a smaller ring of the same, already
tested, prime without a second test (``_trusted_ring``).

Vectors are plain tuples of ints, reduced by ``vec_mod``; a linear
combination of vectors is ``SparseMatrix.apply`` on the matrix that holds
them as columns.  Dense matrices are ``RMatrix``, read by ``entry`` and
``row``, and ``RMatrix.sparse`` gives the ``SparseMatrix`` that
``smithify`` takes and whose ``col`` reads a column.
``SparseMatrix.apply`` walks only the nonzero entries of the vector and of
the matching columns, and sums them into a sparse line (``_axpy``), so
apart from writing out the result its cost scales with the nonzeros of
both, not with the shape.  ``smithify`` likewise sweeps over sparse rows
and columns (dicts of nonzeros): a pivot search walks only nonzero
entries, and an elimination touches only the rows that are nonzero in the
pivot column and only the nonzeros of the pivot row.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


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

    @functools.cached_property
    def modulus(self) -> int:
        # kept in the instance __dict__, which a frozen dataclass without
        # slots has (``_trusted_ring`` writes it there at once); fields
        # alone still decide == and hash
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
        return self if s == self.r else _trusted_ring(self.p, s)


def _trusted_ring(p: int, r: int) -> RingSpec:
    """A RingSpec built without ``__post_init__``; ``p`` must be a checked prime and r >= 1."""
    obj = object.__new__(RingSpec)
    obj.__dict__.update(p=p, r=r, modulus=p**r)
    return obj


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
        return _trusted_matrix(ring, n, n, tuple(ents))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "RMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return _trusted_matrix(ring, rows, cols, (0,) * (rows * cols))

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_identity(self) -> bool:
        # least residues: n ones on the diagonal and an entry sum of n leave only zeros off it
        n, ents = self.rows, self.entries
        return n == self.cols and ents[:: n + 1].count(1) == n == sum(ents)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "RMatrix") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        m = self.ring.modulus
        return _trusted_matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple([(a + b) % m for a, b in zip(self.entries, other.entries)]),
        )

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        m = self.ring.modulus
        return _trusted_matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple([(a - b) % m for a, b in zip(self.entries, other.entries)]),
        )

    def scale(self, c: int) -> "RMatrix":
        m = self.ring.modulus
        c %= m
        return _trusted_matrix(
            self.ring, self.rows, self.cols, tuple([(c * a) % m for a in self.entries])
        )

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
        return _trusted_matrix(self.ring, n, q, tuple([x % m for x in out]))

    def sparse(self) -> "SparseMatrix":
        """The same matrix as sparse columns of its nonzero entries."""
        cols, ents = self.cols, self.entries
        return SparseMatrix(self.ring, self.rows, [_sparse(ents[j::cols]) for j in range(cols)])

    def transpose(self) -> "RMatrix":
        cols, ents = self.cols, self.entries
        ents = tuple(itertools.chain.from_iterable(ents[j::cols] for j in range(cols)))
        return _trusted_matrix(self.ring, cols, self.rows, ents)

    def kron(self, other: "RMatrix") -> "RMatrix":
        self._check_ring(other)
        m = self.ring.modulus
        orows, ocols, b = other.rows, other.cols, other.entries
        rows, cols = self.rows * orows, self.cols * ocols
        out = [0] * (rows * cols)
        for i in range(self.rows):
            for j, a in enumerate(self.row(i)):
                if a == 0:
                    continue
                for k in range(orows):
                    base = (i * orows + k) * cols + j * ocols
                    out[base : base + ocols] = [(a * y) % m for y in b[k * ocols : (k + 1) * ocols]]
        return _trusted_matrix(self.ring, rows, cols, tuple(out))

    # -- structure ----------------------------------------------------------

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RMatrix":
        cols, ents = self.cols, self.entries
        ents = tuple([ents[i * cols + j] for i in row_idx for j in col_idx])
        return _trusted_matrix(self.ring, len(row_idx), len(col_idx), ents)

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
        return _trusted_matrix(ring, sum(b.rows for b in blocks), cols, tuple(out))

    def reduce_to(self, s: int) -> "RMatrix":
        """Entrywise reduction to Z/p^s for s <= r."""
        target = self.ring.shrink(s)
        m = target.modulus
        return _trusted_matrix(target, self.rows, self.cols, tuple([x % m for x in self.entries]))

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            return False
        try:
            self.inverse()
        except ZeroDivisionError:
            return False
        return True

    def inverse(self) -> "RMatrix":
        """Inverse by forward elimination on unit pivots, then back substitution.

        Forward: in column c keep a[c][c] if it is a unit, else swap in the
        first row below with a unit there (none: not invertible), and clear
        the column below the pivot; on upper triangular input this reads
        only zeros.  Back, last row first, in place of the right-hand side:
        row_i(X) = a_ii^-1 (b_i - sum_{k>i} a_ik row_k(X)).
        """
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        p, m, n = self.ring.p, self.ring.modulus, self.rows
        ents = self.entries
        a = [ents[i * n : (i + 1) * n] for i in range(n)]
        b = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        units = []
        for c in range(n):
            if a[c][c] % p == 0:
                piv = next((i for i in range(c + 1, n) if a[i][c] % p), None)
                if piv is None:
                    raise ZeroDivisionError("matrix is not invertible")
                a[c], a[piv], b[c], b[piv] = a[piv], a[c], b[piv], b[c]
            units.append(u := pow(a[c][c], -1, m))
            for i in range(c + 1, n):
                if f := a[i][c]:
                    f = f * u % m
                    a[i] = [(x - f * y) % m for x, y in zip(a[i], a[c])]
                    b[i] = [(x - f * y) % m for x, y in zip(b[i], b[c])]
        for i in reversed(range(n)):
            row, u = b[i], units[i]
            for k in range(i + 1, n):
                if f := a[i][k]:
                    row = [x - f * y for x, y in zip(row, b[k])]
            b[i] = [u * x % m for x in row]
        return _trusted_matrix(self.ring, n, n, tuple(itertools.chain.from_iterable(b)))


def _trusted_matrix(ring: RingSpec, rows: int, cols: int, entries: tuple[int, ...]) -> RMatrix:
    """An RMatrix built without ``__post_init__``; ``entries`` must be rows * cols least residues."""
    obj = object.__new__(RMatrix)
    obj.__dict__.update(ring=ring, rows=rows, cols=cols, entries=entries)
    return obj


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
# sparse matrices, two-sided diagonalization and linear solving


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A rows x cols matrix over Z/p^r as sparse columns, the format ``smithify`` sweeps.

    ``columns[j]`` is column j, a dict from row index to nonzero least
    residue.  The entries are not checked: ``RMatrix.sparse`` and the
    callers that already hold sparse columns build them.
    """

    ring: RingSpec
    rows: int
    columns: list[dict[int, int]]

    @property
    def cols(self) -> int:
        return len(self.columns)

    def col(self, j: int) -> tuple[int, ...]:
        return _dense(self.columns[j], self.rows)

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        """A x, as a tuple: sums c_j * column j over the nonzero x_j = c_j, on a sparse line."""
        if len(x) != len(self.columns):
            raise ValueError("vector length mismatch")
        out: dict[int, int] = {}
        m = self.ring.modulus
        for c, col in zip(x, self.columns):
            if c:
                _axpy(out, c, col.items(), m)
        return _dense(out, self.rows)


def smithify(a: SparseMatrix) -> "LinearSolver":
    """Diagonalize over Z/p^r by global minimal-valuation full pivoting.

    One sweep suffices over the local ring: after moving a minimal-valuation
    entry p^v to the corner, every entry in its row and column is an exact
    multiple of p^v, so a single round of eliminations clears both.  Ties
    are broken towards the smallest (row, col) lexicographically, and the
    search stops at the first row holding a unit.

    The sweep works on sparse lines: A, P and Q^-1 as one dict of nonzeros
    per row, Q as one dict per column.  Every column operation on Q is
    mirrored by the inverse row operation on Q^-1, so the result carries
    Q^-1 without a separate inversion; P^-1 is not carried, as only
    ``cokernel``'s representatives read it.  A's columns are swapped by
    relabelling: a row dict is keyed by column label, and ``pos`` maps a
    label to its current column.  Returns the solver on A, which owns the
    three factors and keeps ``a.columns`` itself: the sweep works on row
    dicts copied from it.
    """
    ring = a.ring
    p, r, m = ring.p, ring.r, ring.modulus
    nr, nc = a.rows, a.cols
    mat: list[dict[int, int]] = [{} for _ in range(nr)]
    for j, col in enumerate(a.columns):
        for i, x in col.items():
            mat[i][j] = x
    label = list(range(nc))  # label[j]: the label of column j
    pos = list(range(nc))  # pos[c]: the column of label c
    pmat = [{i: 1} for i in range(nr)]
    qmat = [{j: 1} for j in range(nc)]
    qinv = [{j: 1} for j in range(nc)]
    lim = min(nr, nc)
    exps: list[int] = []
    for k in range(lim):
        # rows above k are finished, and rows from k on have no entries
        # left of column k, so the search walks rows k.. in full
        bv, bi, bj = r, -1, -1
        for i in range(k, nr):
            for c, e in mat[i].items():
                v = 0 if e % p else ring.val(e)
                if v < bv or (v == bv and i == bi and pos[c] < bj):
                    bv, bi, bj = v, i, pos[c]
            if bv == 0:
                break
        if bi < 0:
            exps.extend([r] * (lim - k))
            break
        v = bv
        if bi != k:
            mat[k], mat[bi] = mat[bi], mat[k]
            pmat[k], pmat[bi] = pmat[bi], pmat[k]
        if bj != k:
            ck, cj = label[k], label[bj]
            label[k], label[bj] = cj, ck
            pos[ck], pos[cj] = bj, k
            qmat[k], qmat[bj] = qmat[bj], qmat[k]
            qinv[k], qinv[bj] = qinv[bj], qinv[k]
        ck = label[k]
        u = ring.inv(ring.unit_part(mat[k][ck]))
        prow = {c: (u * x) % m for c, x in mat[k].items()}
        pk = pmat[k] = {c: (u * x) % m for c, x in pmat[k].items()}
        pval = p**v
        prow_items, pk_items = list(prow.items()), list(pk.items())
        for i in range(k + 1, nr):
            x = mat[i].get(ck)
            if x is None:
                continue
            f = x // pval
            _axpy(mat[i], -f, prow_items, m)
            _axpy(pmat[i], -f, pk_items, m)
        # column k of mat is now zero off the pivot, and every mat[k][j] is
        # an exact multiple of pval, so a column operation only turns
        # mat[k][j] into 0 and changes Q where column k of Q is nonzero
        qk_items, qinv_k = list(qmat[k].items()), qinv[k]
        for c, x in prow.items():
            if c != ck:
                j, f = pos[c], x // pval
                _axpy(qmat[j], -f, qk_items, m)
                # Q gained col_j -= f col_k, so Q^-1 gains row_k += f row_j
                _axpy(qinv_k, f, qinv[j].items(), m)
        exps.append(v)
    return LinearSolver(ring, nr, a.columns, pmat, qmat, tuple(exps), qinv)


def _axpy(dst: dict[int, int], f: int, src: Iterable[tuple[int, int]], m: int) -> None:
    """dst += f * src over Z/m, on sparse lines; entries that reach 0 are dropped."""
    for key, y in src:
        x = (dst.get(key, 0) + f * y) % m
        if x:
            dst[key] = x
        else:
            dst.pop(key, None)


def _sparse(v: Sequence[int]) -> dict[int, int]:
    """The nonzero entries of a vector of least residues, as a sparse line."""
    return {i: x for i, x in enumerate(v) if x}


def _dense(line: dict[int, int], n: int) -> tuple[int, ...]:
    """A sparse line as a length-n tuple: its nonzeros written into zeros."""
    out = [0] * n
    for key, x in line.items():
        out[key] = x
    return tuple(out)


@dataclass(frozen=True, eq=False)
class LinearSolver(SparseMatrix):
    """A ``SparseMatrix`` A with everything read off one Smith form P @ A @ Q = diag(p^e).

    Solves A x = b, enumerates ker A, presents coker A, and hands out the
    solver on a generator matrix of ker A.  Built by ``smithify``, or by
    ``on_kernel`` from factors known without a sweep.  The factors are
    sparse lines, as A's columns are: ``left_rows[i]`` is row i of P,
    ``right_cols[j]`` is column j of Q and ``right_inverse_rows[j]`` is row
    j of Q^-1; ``cokernel`` inverts P itself.  The diagonal is not stored:
    ``exponents`` has one entry per diagonal slot min(rows, cols), a zero
    diagonal entry recorded as exponent r.
    """

    left_rows: list[dict[int, int]]
    right_cols: list[dict[int, int]]
    exponents: tuple[int, ...]
    right_inverse_rows: list[dict[int, int]]

    def __post_init__(self) -> None:
        # slots past min(rows, cols) count as zero diagonal entries, exponent r
        pad = (self.ring.r,) * (max(self.rows, self.cols) - len(self.exponents))
        object.__setattr__(self, "_slots", self.exponents + pad)

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of A x = b, or None.  Deterministic."""
        ring = self.ring
        p, m = ring.p, ring.modulus
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        # x = Q y with y_i = (P b)_i / p^e_i, which must divide exactly
        x: dict[int, int] = {}
        for i, row in enumerate(self.left_rows):
            c = 0
            for k, f in row.items():
                c += f * b[k]
            c %= m
            if c == 0:
                continue
            e = self._slots[i]
            if ring.val(c) < e:
                return None
            _axpy(x, c // p**e, self.right_cols[i].items(), m)
        x = _dense(x, len(self.columns))
        if self.apply(x) != vec_mod(ring, b):
            raise AssertionError("smith solve postcondition failed")
        return x

    def kernel(self) -> list[tuple[tuple[int, ...], int]]:
        """Independent generators of ker A as (vector, annihilator exponent).

        The span of the generators is the whole kernel; generator i has
        order p^exponent_i, so ``on_kernel().apply`` maps the coefficient
        tuples of ``itertools.product(*(range(p**e) for e in exponents))``
        onto the kernel, each element exactly once; the Kummer engine
        walks its section grids this way.
        The generators are the columns of ``on_kernel()``'s matrix G, and
        column t has order p^e where p^(r - e) is G's Smith entry t.
        """
        g = self.on_kernel()
        r = self.ring.r
        return [(_dense(col, g.rows), r - e) for col, e in zip(g.columns, g.exponents)]

    def on_kernel(self) -> "LinearSolver":
        """The solver on G, a matrix whose columns generate ker A, with no sweep of G.

        With x = Q y, A x = 0 exactly when p^e_j y_j = 0 for every slot j,
        so the columns p^(r - e_j) Q e_j of G, one per slot j with e_j > 0,
        generate ker A; each is read off Q's sparse column j, so G is never
        dense.  Q^-1 G has the one entry p^(r - e_j) in row j of column t,
        for the t-th such slot j.  Taking those rows of Q^-1 first, in
        order, and the others after them gives Smith factors of G: P is
        Q^-1 with its rows so ordered, Q = Q^-1 = I, and the exponents are
        r - e_j.
        """
        ring = self.ring
        p, r, m = ring.p, ring.r, ring.modulus
        n = len(self.columns)
        slots = [j for j in range(n) if self._slots[j] > 0]
        order = slots + [j for j in range(n) if self._slots[j] == 0]
        columns = []
        for j in slots:
            scale = p ** (r - self._slots[j])
            columns.append({i: y for i, x in self.right_cols[j].items() if (y := scale * x % m)})
        eye = [{t: 1} for t in range(len(slots))]
        return LinearSolver(
            ring,
            n,
            columns,
            [self.right_inverse_rows[j] for j in order],
            eye,
            tuple(r - self._slots[j] for j in slots),
            eye,
        )

    def cokernel(self) -> "ModuleShape":
        """Invariants and representatives of R^rows / column-span(A).

        The quotient is the sum of Z/p^e_i over the rows (e_i = r past
        min(rows, cols)), and column i of P^-1 represents summand i.  The
        invariants are read at once; P is written out densely and inverted
        (``inverse``) only when ``reps`` is first read.
        """
        ring, rows, k = self.ring, self.left_rows, self.rows
        exps = self._slots[:k]
        order = sorted((i for i in range(k) if exps[i] > 0), key=exps.__getitem__)

        def reps() -> _Reps:
            ents = tuple(itertools.chain.from_iterable(_dense(row, k) for row in rows))
            inverse = _trusted_matrix(ring, k, k, ents).inverse()
            return tuple(inverse.entries[i::k] for i in order)

        return ModuleShape(tuple(exps[i] for i in order), reps)


# ---------------------------------------------------------------------------
# module invariants: cokernels, subquotients


_Reps = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, repr=False, eq=False)
class ModuleShape:
    """A finite abelian p-group: ascending exponents plus representatives.

    ``invariants`` are the ascending exponents e, the group being the sum
    of the Z/p^e.  The second field holds the ambient representatives, one
    per invariant (``brute_h1``: none), or a function of no arguments that
    works them out; ``reps`` calls it on first read and keeps the tuple.
    ``repr``, ``==`` and ``hash`` read ``reps``, as they would a field.
    """

    invariants: tuple[int, ...]
    _reps: _Reps | Callable[[], _Reps]

    @property
    def reps(self) -> _Reps:
        """The representatives, worked out on first read."""
        reps = self._reps
        if callable(reps):
            reps = reps()
            object.__setattr__(self, "_reps", reps)
        return reps

    def __repr__(self) -> str:
        return f"ModuleShape(invariants={self.invariants!r}, reps={self.reps!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.invariants, self.reps) == (other.invariants, other.reps)

    def __hash__(self) -> int:
        return hash((self.invariants, self.reps))


def quotient_data(solver: LinearSolver, rels: Sequence[Sequence[int]]) -> ModuleShape:
    """Structure of colspan(G)/span(rels) for G the solver's matrix; rels must lie in colspan(G).

    Presents the subquotient on the columns of G: the relation matrix has
    as sparse columns the generators of ker G (the columns of
    ``solver.on_kernel()``) and one solution of G x = v for each rel vector
    v.  The quotient is the cokernel of that relation matrix, carried into
    the ambient space as G v (``solver.apply``) when ``reps`` is first
    read; the solves and the sweep run at once.
    """
    rel_cols = list(solver.on_kernel().columns)
    for v in rels:
        lam = solver.solve(v)
        if lam is None:
            raise ValueError("relation vector outside the generator span")
        rel_cols.append(_sparse(lam))
    q = smithify(SparseMatrix(solver.ring, solver.cols, rel_cols)).cokernel()
    return ModuleShape(q.invariants, lambda: tuple(solver.apply(v) for v in q.reps))
