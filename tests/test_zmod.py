"""Tests for the exact Z/p^r linear algebra core."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaglift import zmod
from flaglift.zmod import (
    RingSpec,
    RMatrix,
    _is_prime,
    echelonize,
    quotient_data,
    smithify,
    teichmuller,
    vec_mod,
)
from span_reference import SpanReducer

RINGS = [RingSpec(2, 1), RingSpec(2, 2), RingSpec(2, 3), RingSpec(3, 2), RingSpec(5, 2)]


def rand_matrix(ring, rows, cols, rng):
    return RMatrix(
        ring, rows, cols, tuple(rng.randrange(ring.modulus) for _ in range(rows * cols))
    )


def sparse_matrix(ring, rows, cols, rng, density=0.1):
    return RMatrix(
        ring,
        rows,
        cols,
        tuple(
            rng.randrange(1, ring.modulus) if rng.random() < density else 0
            for _ in range(rows * cols)
        ),
    )


def enumerate_span(ring, vectors, width):
    """All Z/p^r combinations of the given vectors, as a set of tuples."""
    m = ring.modulus
    out = set()
    for coeffs in itertools.product(range(m), repeat=len(vectors)):
        out.add(
            tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % m for i in range(width))
        )
    return out


# -- primality ----------------------------------------------------------------


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    for n in range(20000):
        assert _is_prime(n) == is_prime_by_trial_division(n), n


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 41041,  # Carmichael numbers
        2047, 1373653, 3215031751,  # strong pseudoprimes to the smallest base sets
        3825123056546413051,  # strong pseudoprime to every base from 2 to 23
    ],
)
def test_ring_rejects_pseudoprimes(n):
    with pytest.raises(ValueError, match="not prime"):
        RingSpec(n, 1)


def test_ring_accepts_large_primes_quickly():
    for p in (2**61 - 1, 100000000000031):
        t0 = time.perf_counter()
        assert RingSpec(p, 1).p == p
        assert time.perf_counter() - t0 < 0.1


def test_ring_rejects_p_beyond_the_primality_bound():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        RingSpec(2**89 - 1, 1)


# -- teichmuller -------------------------------------------------------------


def test_teichmuller_frozen_values():
    assert teichmuller(RingSpec(3, 2), 2) == 8
    assert teichmuller(RingSpec(5, 2), 2) == 7
    assert teichmuller(RingSpec(2, 3), 3) == 1
    assert teichmuller(RingSpec(3, 3), 2) == 26  # -1 mod 27


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]),
       st.integers(min_value=1, max_value=200))
def test_teichmuller_properties(pr, a):
    ring = RingSpec(*pr)
    if a % ring.p == 0:
        a += 1
    t = teichmuller(ring, a)
    assert t % ring.p == a % ring.p, "must reduce to a mod p"
    assert pow(t, ring.p - 1, ring.modulus) == 1 % ring.modulus, "(p-1)-st root of unity"
    b = a + 1 if (a + 1) % ring.p else a + 2
    tb = teichmuller(ring, b)
    assert teichmuller(ring, a * b) == (t * tb) % ring.modulus, "multiplicative"


# -- matrix basics -----------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS)
def test_matmul_and_inverse(ring):
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = rand_matrix(ring, n, n, rng)
        if not a.is_invertible():
            continue
        ai = a.inverse()
        assert (a @ ai).is_identity() and (ai @ a).is_identity()


def unit_upper(ring, n, rng, unipotent=False):
    """A random upper triangular matrix with unit (or all-one) diagonal."""
    units = [x for x in range(1, ring.modulus) if x % ring.p]
    return RMatrix(ring, n, n, tuple(
        (1 if unipotent else rng.choice(units)) if i == j else rng.randrange(ring.modulus) * (j > i)
        for i in range(n) for j in range(n)
    ))


def permutation(ring, perm):
    """The matrix sending row perm[i] of a matrix to row i."""
    n = len(perm)
    return RMatrix(ring, n, n, tuple(int(j == perm[i]) for i in range(n) for j in range(n)))


def structured_inputs(ring, n, rng):
    """Invertible inputs of the shapes the inverse meets, and of the ones that force a row swap."""
    upper = unit_upper(ring, n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    if n >= 2 and perm == sorted(perm):
        perm[0], perm[1] = perm[1], perm[0]
    # rows c, c+1 mixed by [[p, 1], [1, 0]] (determinant -1): a[c][c] is p times a
    # unit and the unit a[c+1][c] lies below it
    mix = [[int(i == j) for j in range(n)] for i in range(n)]
    if n >= 2:
        c = rng.randrange(n - 1)
        mix[c][c], mix[c][c + 1], mix[c + 1][c], mix[c + 1][c + 1] = ring.p, 1, 1, 0
    lower, other = unit_upper(ring, n, rng).transpose(), unit_upper(ring, n, rng)
    return {
        "upper": upper,
        "unipotent": unit_upper(ring, n, rng, unipotent=True),
        "lower": lower,
        "row-permuted upper": permutation(ring, perm) @ upper,
        "non-unit diagonal, unit below": RMatrix.from_rows(ring, mix) @ upper,
        "dense": lower @ permutation(ring, perm) @ other,
    }


@pytest.mark.parametrize("ring", RINGS)
def test_inverse_of_structured_inputs(ring):
    rng = random.Random(131)
    for n in (0, 1, 2, 3, 4, 6, 9, 16):
        eye = RMatrix.identity(ring, n)
        for _ in range(3):
            for kind, a in structured_inputs(ring, n, rng).items():
                ai = a.inverse()
                assert a @ ai == eye and ai @ a == eye, (kind, n)
            if n == 0:
                continue
            # one non-unit diagonal entry makes a triangular matrix singular
            k, cut = rng.randrange(n), ring.p * rng.randrange(ring.modulus // ring.p)
            for tri in (unit_upper(ring, n, rng), unit_upper(ring, n, rng).transpose()):
                ents = list(tri.entries)
                ents[k * (n + 1)] = cut
                with pytest.raises(ZeroDivisionError):
                    RMatrix(ring, n, n, tuple(ents)).inverse()
            # row k a combination of the others plus a p-multiple: dependent mod p
            rows = structured_inputs(ring, n, rng)["dense"].to_lists()
            coeffs = [rng.randrange(ring.modulus) * (i != k) for i in range(n)]
            rows[k] = [
                sum(c * row[j] for c, row in zip(coeffs, rows)) + ring.p * rng.randrange(ring.modulus)
                for j in range(n)
            ]
            with pytest.raises(ZeroDivisionError):
                RMatrix.from_rows(ring, rows).inverse()


def leibniz_det(a):
    """det(a) mod p^r by the Leibniz sum over permutations."""
    n, total = a.rows, 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= a.entry(i, perm[i])
        total += term
    return total % a.ring.modulus


def test_is_invertible_matches_the_determinant():
    # over the local ring Z/p^r a square matrix is invertible iff det is a unit
    cases = [
        RMatrix(ring, 2, 2, ents)
        for ring in (RingSpec(2, 2), RingSpec(3, 2))
        for ents in itertools.product(range(ring.modulus), repeat=4)
    ]
    rng = random.Random(111)
    cases += [rand_matrix(ring, n, n, rng) for ring in RINGS for n in (3, 4) for _ in range(40)]
    for a in cases:
        assert a.is_invertible() == (leibniz_det(a) % a.ring.p != 0), a
    ring = RingSpec(3, 2)
    assert not RMatrix.identity(ring, 3).submatrix([0, 1], [0, 1, 2]).is_invertible()
    assert RMatrix.identity(ring, 0).is_invertible()


# dense entry-by-entry references for the kernels that skip zeros
def ref_apply(a, v):
    m = a.ring.modulus
    return tuple(sum(x * y for x, y in zip(a.row(i), v)) % m for i in range(a.rows))


def ref_transpose(a):
    return RMatrix(
        a.ring, a.cols, a.rows, tuple(a.entry(i, j) for j in range(a.cols) for i in range(a.rows))
    )


def ref_identity(ring, n):
    return RMatrix(ring, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


@pytest.mark.parametrize("ring", RINGS)
def test_kernels_match_dense_reference(ring):
    rng = random.Random(111)
    m = ring.modulus
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
        (rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(20)
    ]
    for rows, cols in shapes:
        for a in (rand_matrix(ring, rows, cols, rng), sparse_matrix(ring, rows, cols, rng)):
            assert a.transpose() == ref_transpose(a)
            for v in (
                tuple(rng.randrange(m) for _ in range(cols)),
                tuple(rng.randrange(m) if rng.random() < 0.1 else 0 for _ in range(cols)),
                tuple(rng.randrange(-3 * m, 3 * m) for _ in range(cols)),
            ):
                assert a.sparse().apply(v) == ref_apply(a, v)
    for n in range(6):
        assert RMatrix.identity(ring, n) == ref_identity(ring, n)


@pytest.mark.parametrize("ring", RINGS)
def test_sparse_keeps_the_shape_and_only_nonzero_residues(ring):
    rng = random.Random(112)
    m = ring.modulus
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
        (rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(10)
    ]
    for rows, cols in shapes:
        for a in (
            rand_matrix(ring, rows, cols, rng),
            sparse_matrix(ring, rows, cols, rng),
            RMatrix.zeros(ring, rows, cols),
        ):
            sm = a.sparse()
            assert (sm.ring, sm.rows, sm.cols) == (ring, rows, cols)
            assert all(0 < x < m for col in sm.columns for x in col.values())
            for j in range(cols):
                assert sm.columns[j] == {i: a.entry(i, j) for i in range(rows) if a.entry(i, j)}
                assert sm.col(j) == a.entries[j :: a.cols]


def test_rmatrix_stores_least_residues_and_checks_lengths():
    ring = RingSpec(3, 2)
    m = ring.modulus
    a = RMatrix(ring, 1, 3, (-1, m, m + 3))
    assert a.entries == (m - 1, 0, 3)
    assert RMatrix(ring, 1, 2, (1, m)).entries == (1, 0)
    with pytest.raises(ValueError):
        a.sparse().apply((1, 2))
    with pytest.raises(ValueError):
        a.sparse().apply((1, 2, 3, 4))


def test_kron_mixed_product():
    ring = RingSpec(3, 2)
    rng = random.Random(7)
    a, b = rand_matrix(ring, 2, 3, rng), rand_matrix(ring, 3, 2, rng)
    c, d = rand_matrix(ring, 2, 2, rng), rand_matrix(ring, 2, 3, rng)
    assert a.kron(c) @ b.kron(d) == (a @ b).kron(c @ d)


def test_matrix_shape_errors():
    ring = RingSpec(2, 2)
    a = RMatrix.zeros(ring, 2, 3)
    with pytest.raises(ValueError):
        a @ a
    with pytest.raises(ValueError):
        a + a.transpose()
    with pytest.raises(ZeroDivisionError):
        RMatrix.zeros(ring, 2, 2).inverse()


# -- echelonize --------------------------------------------------------------


def test_echelon_frozen_z4():
    # the staircase alone cannot decide membership over Z/4; the woven
    # shadow row (0, 2) makes greedy reduction complete
    ring = RingSpec(2, 2)
    a = RMatrix.from_rows(ring, [[2, 1]])
    res = echelonize(a)
    assert res.h.to_lists() == [[2, 1], [0, 2]]
    assert [(p.row, p.col, p.exponent) for p in res.pivots] == [(0, 0, 1), (1, 1, 1)]
    red = SpanReducer(ring, [[2, 1]])
    assert red.contains((0, 2)), "(0,2) = 2*(2,1) lies in the span"
    assert red.reduce((3, 0)) == (1, 1)
    assert red.reduce((1, 2)) == (1, 0)


def verify_echelon_structure(res, ring):
    h, pivots = res.h, res.pivots
    seen_cols = []
    for pv in pivots:
        val = h.entry(pv.row, pv.col)
        assert val == ring.p**pv.exponent, f"pivot {val} is not p^{pv.exponent}"
        for i in range(pv.row + 1, h.rows):
            assert h.entry(i, pv.col) == 0, "nonzero below pivot"
        for i in range(pv.row):
            assert h.entry(i, pv.col) < val, "entry above pivot not reduced"
        seen_cols.append(pv.col)
    assert seen_cols == sorted(seen_cols)
    for i in range(len(pivots), h.rows):
        assert all(x == 0 for x in h.row(i)), "nonzero row after the staircase"


@pytest.mark.parametrize("ring", RINGS)
def test_echelon_random(ring):
    rng = random.Random(202)
    for _ in range(40):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_matrix(ring, rows, cols, rng)
        res = echelonize(a)
        verify_echelon_structure(res, ring)
        # rows past the staircase are zero, so the pivot rows carry the span
        h_rows = [res.h.row(pv.row) for pv in res.pivots]
        rows = [a.row(i) for i in range(a.rows)]
        assert enumerate_span(ring, h_rows, cols) == enumerate_span(ring, rows, cols)


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(2, 3), RingSpec(3, 2)])
def test_span_reducer_is_canonical_and_complete(ring):
    rng = random.Random(303)
    for _ in range(25):
        k, width = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [tuple(rng.randrange(ring.modulus) for _ in range(width)) for _ in range(k)]
        span = enumerate_span(ring, gens, width)
        red = SpanReducer(ring, gens)
        for s in span:
            assert red.contains(s), f"span element {s} not recognized"
        for _ in range(10):
            v = tuple(rng.randrange(ring.modulus) for _ in range(width))
            s = rng.choice(sorted(span))
            shifted = tuple((a + b) % ring.modulus for a, b in zip(v, s))
            assert red.reduce(shifted) == red.reduce(v), "coset representative not canonical"
            if red.contains(v):
                assert v in span


# -- smithify and solving ----------------------------------------------------


def dense_matrix(sm):
    """The solver's matrix A as an RMatrix, written from its sparse ``columns``."""
    rows, cols = sm.rows, len(sm.columns)
    ents = [0] * (rows * cols)
    for j, col in enumerate(sm.columns):
        for i, x in col.items():
            ents[i * cols + j] = x
    return RMatrix(sm.ring, rows, cols, tuple(ents))


def dense_factors(sm, a):
    """P, Q, P^-1 and Q^-1 of a solver on ``a`` as matrices, built from its sparse lines."""
    ring, nr, nc = a.ring, a.rows, a.cols

    def dense(n, lines, by_column):
        ents = [0] * (n * n)
        for i, line in enumerate(lines):
            for j, x in line.items():
                ents[j * n + i if by_column else i * n + j] = x
        return RMatrix(ring, n, n, tuple(ents))

    return (
        dense(nr, sm.left_rows, False),
        dense(nc, sm.right_cols, True),
        dense(nr, sm.left_inverse_cols, True),
        dense(nc, sm.right_inverse_rows, False),
    )


@pytest.mark.parametrize("ring", RINGS)
def test_smithify_random(ring):
    rng = random.Random(404)
    cases = [rand_matrix(ring, rng.randrange(1, 5), rng.randrange(1, 5), rng) for _ in range(40)]
    # sparse inputs leave zeros in the pivot column of the right transform
    cases += [
        sparse_matrix(ring, rng.randrange(5, 9), rng.randrange(5, 9), rng, density=0.3)
        for _ in range(10)
    ]
    for a in cases:
        rows, cols = a.rows, a.cols
        sm = smithify(a.sparse())
        left, right, left_inverse, right_inverse = dense_factors(sm, a)
        diag = left @ a @ right
        assert left.is_invertible() and right.is_invertible()
        assert (left @ left_inverse).is_identity() and (right @ right_inverse).is_identity()
        exps = sm.exponents
        assert len(exps) == min(rows, cols)
        assert list(exps) == sorted(exps), "diagonal exponents must be nondecreasing"
        for i in range(diag.rows):
            for j in range(diag.cols):
                if i == j and i < len(exps) and exps[i] < ring.r:
                    assert diag.entry(i, j) == ring.p ** exps[i]
                else:
                    assert diag.entry(i, j) == 0


def ref_smithify(a):
    """The dense full-pivoting sweep that ``smithify`` must reproduce exactly."""
    ring = a.ring
    p, r, m = ring.p, ring.r, ring.modulus
    nr, nc = a.rows, a.cols
    mat = a.to_lists()
    pmat = ref_identity(ring, nr).to_lists()
    qmat = ref_identity(ring, nc).to_lists()
    lim = min(nr, nc)
    exps = []
    for k in range(lim):
        best = None
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
    return left, right, diag, tuple(exps)


def valuation_matrix(ring, rows, cols, rng, density, min_val):
    """Nonzero entries p^v * unit with v >= min_val, so valuations tie often."""
    p, r, m = ring.p, ring.r, ring.modulus

    def entry():
        v = rng.randrange(min_val, r)
        return (p**v * rng.choice([u for u in range(1, p**(r - v)) if u % p])) % m

    return RMatrix(
        ring,
        rows,
        cols,
        tuple(entry() if rng.random() < density else 0 for _ in range(rows * cols)),
    )


@pytest.mark.parametrize("ring", [RingSpec(p, r) for p in (2, 3) for r in (1, 2, 3)])
def test_smithify_matches_dense_reference(ring):
    rng = random.Random(707)
    r = ring.r
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (3, 3), (2, 7), (7, 2), (6, 6)]
    cases = [RMatrix.zeros(ring, rows, cols) for rows, cols in shapes]
    for rows, cols in shapes[3:]:
        cases.append(rand_matrix(ring, rows, cols, rng))
        if r > 1:
            cases.append(valuation_matrix(ring, rows, cols, rng, 0.7, 1))
    # 1-5% nonzero, wide and tall, including inputs with no unit entry
    for rows, cols in [(30, 45), (45, 30), (40, 40), (12, 60), (60, 12)]:
        for density in (0.01, 0.03, 0.05):
            cases.append(sparse_matrix(ring, rows, cols, rng, density=density))
            if r > 1:
                cases.append(valuation_matrix(ring, rows, cols, rng, density, 1))
    if r > 1:
        # minimal valuation 1, tied within row 0 (columns 1 and 2) and
        # across rows 0 and 1: the pivot is row 0, column 1
        p, m = ring.p, ring.modulus
        a = RMatrix.from_rows(ring, [[0, p, m - p], [p, 0, 0], [0, 0, 0]])
        left, right, _, _ = dense_factors(smithify(a.sparse()), a)
        assert left.row(0) == (1, 0, 0) and right.entries[0::3] == (0, 1, 0)
        cases.append(a)
    for a in cases:
        sm = smithify(a.sparse())
        left, right, left_inverse, right_inverse = dense_factors(sm, a)
        assert (left, right, left @ a @ right, sm.exponents) == ref_smithify(a)
        assert left_inverse == left.inverse() and right_inverse == right.inverse()
        assert (right @ right_inverse).is_identity()
        lines = sm.left_rows + sm.right_cols + sm.left_inverse_cols + sm.right_inverse_rows
        assert all(0 < x < ring.modulus for line in lines for x in line.values())


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2), RingSpec(2, 3)])
def test_solve_roundtrip_and_kernel(ring):
    rng = random.Random(505)
    for _ in range(30):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_matrix(ring, rows, cols, rng)
        solver = smithify(a.sparse())
        x = tuple(rng.randrange(ring.modulus) for _ in range(cols))
        b = ref_apply(a, x)
        got = solver.solve(b)
        assert got is not None and ref_apply(a, got) == b
        for vec, e in solver.kernel():
            assert all(v == 0 for v in ref_apply(a, vec)), "kernel generator not in kernel"
            assert any(ring.p ** (e - 1) * v % ring.modulus for v in vec), (
                "annihilator exponent overstated"
            )


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_solve_agrees_with_enumeration(ring):
    rng = random.Random(606)
    m = ring.modulus
    for _ in range(15):
        rows, cols = rng.randrange(1, 3), rng.randrange(1, 3)
        a = rand_matrix(ring, rows, cols, rng)
        solver = smithify(a.sparse())
        all_images = {}
        for x in itertools.product(range(m), repeat=cols):
            all_images.setdefault(ref_apply(a, x), set()).add(x)
        kernel_set = all_images.get((0,) * rows, {tuple([0] * cols)})
        gens = [vec for vec, _ in solver.kernel()]
        got_kernel = enumerate_span(ring, gens, cols) if gens else {(0,) * cols}
        assert got_kernel == kernel_set
        assert ring.p ** sum(e for _, e in solver.kernel()) == len(kernel_set)
        for b in itertools.product(range(m), repeat=rows):
            got = solver.solve(b)
            if b in all_images:
                assert got is not None and ref_apply(a, got) == b
            else:
                assert got is None


def same_span(ring, us, vs, width):
    """Whether two lists of length-width vectors generate the same subgroup."""
    return all(SpanReducer(ring, us, width=width).contains(v) for v in vs) and all(
        SpanReducer(ring, vs, width=width).contains(u) for u in us
    )


@pytest.mark.parametrize("ring", [RingSpec(p, r) for p in (2, 3) for r in (1, 2, 3)])
def test_kernel_solver_agrees_with_a_swept_solver(ring, monkeypatch):
    # on_kernel reads the Smith factors of G, whose columns are kernel()'s
    # vectors, off the sweep of A; a solver that sweeps G itself must give
    # the same answers
    rng = random.Random(1313)
    p, m = ring.p, ring.modulus
    cases = [RMatrix.zeros(ring, rows, cols) for rows, cols in [(0, 3), (3, 0), (0, 0), (2, 4)]]
    wide = rand_matrix(ring, 2, 3, rng)
    cases += [
        RMatrix.identity(ring, 3),  # ker A = 0: G has no columns
        RMatrix.from_rows(ring, [[1, 0, 0], [0, p, 0], [0, 0, p * p]]),
        RMatrix.hstack([RMatrix.identity(ring, 2), wide]),  # full row rank
    ]
    cases += [rand_matrix(ring, rng.randrange(1, 5), rng.randrange(1, 6), rng) for _ in range(12)]
    cases += [sparse_matrix(ring, 6, 12, rng, density=0.2)]
    solvers = [smithify(a.sparse()) for a in cases]
    with monkeypatch.context() as patch:
        patch.setattr(zmod, "smithify", None)  # a sweep would fail
        built_solvers = [solver.on_kernel() for solver in solvers]
    for a, solver, built in zip(cases, solvers, built_solvers):
        g = dense_matrix(built)
        assert g.rows == a.cols and (a @ g).is_zero()
        assert [g.entries[j :: g.cols] for j in range(g.cols)] == [vec for vec, _ in solver.kernel()]
        left, right, left_inverse, right_inverse = dense_factors(built, g)
        assert right.is_identity() and right_inverse.is_identity()
        assert (left @ left_inverse).is_identity()
        exps = built.exponents
        assert len(exps) == g.cols
        assert left @ g == RMatrix(
            ring, g.rows, g.cols,
            tuple(p ** exps[i] if i == j else 0 for i in range(g.rows) for j in range(g.cols)),
        )
        swept = smithify(g.sparse())
        rhs = [ref_apply(g, tuple(rng.randrange(m) for _ in range(g.cols))) for _ in range(4)]
        rhs += [tuple(rng.randrange(m) for _ in range(g.rows)) for _ in range(4)]
        rhs += [tuple(int(i == j) * p for j in range(g.rows)) for i in range(g.rows)]
        for b in rhs:
            x, y = built.solve(b), swept.solve(b)
            assert (x is None) == (y is None), "solvability differs"
            if x is not None:
                assert ref_apply(g, x) == vec_mod(ring, b)
        kb, ks = built.kernel(), swept.kernel()
        assert same_span(ring, [v for v, _ in kb], [v for v, _ in ks], g.cols), "kernels differ"
        assert sum(e for _, e in kb) == sum(e for _, e in ks)
        for vec, e in kb:
            assert not any(ref_apply(g, vec))
            assert any(p ** (e - 1) * v % ring.modulus for v in vec), "annihilator exponent overstated"
        assert built.cokernel().invariants == swept.cokernel().invariants


@pytest.mark.parametrize("ring", [RingSpec(p, r) for p in (2, 3) for r in (1, 2, 3)])
def test_solver_product_matches_dense_apply(ring):
    # the solver holds A as sparse columns: its A x must be the dense reference's,
    # and the solve postcondition must still see every entry of A
    rng = random.Random(1414)
    m = ring.modulus
    shapes = [(0, 4), (4, 0), (0, 0)]
    cases = [RMatrix.zeros(ring, rows, cols) for rows, cols in shapes + [(3, 5)]]
    cases += [rand_matrix(ring, rng.randrange(1, 6), rng.randrange(1, 6), rng) for _ in range(12)]
    cases += [sparse_matrix(ring, rows, cols, rng, 0.05) for rows, cols in [(30, 40), (40, 30)]]
    for a in cases:
        solver = smithify(a.sparse())
        assert dense_matrix(solver) == a
        kernel_solver = solver.on_kernel()
        for sm, dense in [(solver, a), (kernel_solver, dense_matrix(kernel_solver))]:
            assert all(0 < x < m for col in sm.columns for x in col.values())
            xs = [(0,) * dense.cols, tuple(rng.randrange(m) for _ in range(dense.cols))]
            xs += [tuple(rng.randrange(-2 * m, 2 * m) for _ in range(dense.cols))]
            xs += [tuple(int(i == j) for i in range(dense.cols)) for j in range(dense.cols)]
            for x in xs:
                assert sm.apply(x) == ref_apply(dense, x)
            with pytest.raises(ValueError, match="vector length mismatch"):
                sm.apply((0,) * (dense.cols + 1))
    # corrupt one entry of a column that a solution reaches: solve computes
    # the same x from the factors, and its postcondition must now fail
    corrupted = 0
    for a in cases:
        for sm in (smithify(a.sparse()), smithify(a.sparse()).on_kernel()):
            dense = dense_matrix(sm)
            if not dense.rows or not dense.cols:
                continue
            b = ref_apply(dense, tuple(rng.randrange(m) for _ in range(dense.cols)))
            x = sm.solve(b)
            j = next((j for j, c in enumerate(x) if c), None)
            if j is None:
                continue
            i = rng.randrange(dense.rows)
            sm.columns[j][i] = (sm.columns[j].get(i, 0) + 1) % m
            with pytest.raises(AssertionError, match="smith solve postcondition failed"):
                sm.solve(b)
            corrupted += 1
    assert corrupted >= 10


def test_on_kernel_builds_no_matrix(monkeypatch):
    # on_kernel writes G's sparse columns from Q's, and the solver on G
    # multiplies, solves and lists its kernel without building a matrix
    rng = random.Random(1515)
    cases = []
    for ring in (RingSpec(2, 3), RingSpec(3, 2)):
        cases += [rand_matrix(ring, rng.randrange(1, 5), rng.randrange(1, 6), rng) for _ in range(6)]
        cases += [sparse_matrix(ring, 12, 20, rng, density=0.1), RMatrix.zeros(ring, 2, 3)]
    solvers = [smithify(a.sparse()) for a in cases]
    solutions = []

    def build(*args, **kwargs):
        raise AssertionError("a matrix was built")

    with monkeypatch.context() as patch:
        patch.setattr(zmod, "smithify", None)  # a sweep would fail
        patch.setattr(zmod, "_trusted_matrix", build)
        patch.setattr(RMatrix, "__post_init__", build)
        built = [solver.on_kernel() for solver in solvers]
        kernels = [solver.kernel() for solver in solvers]
        for g in built:
            m = g.ring.modulus
            for _ in range(3):
                solutions.append(g.solve(g.apply(tuple(rng.randrange(m) for _ in g.columns))))
    for a, g, kernel in zip(cases, built, kernels):
        assert [vec for vec, _ in kernel] == [dense_matrix(g).entries[t :: g.cols] for t in range(g.cols)]
        assert all(not any(ref_apply(a, vec)) for vec, _ in kernel)
    assert None not in solutions


# -- invariants ---------------------------------------------------------------


def torsion_invariants_by_counting(ring, elements):
    """Reconstruct + Z/p^e exponents of a finite group from torsion counts."""
    p = ring.p
    counts = []
    prev = 1
    for k in range(1, ring.r + 1):
        nk = sum(
            1
            for x in elements
            if all((p**k * c) % ring.modulus == 0 for c in x)
        )
        counts.append(nk // prev)
        prev = nk
    # counts[k-1] = p^(#invariants with e >= k)
    exps = []
    for k, c in enumerate(counts, start=1):
        n = 0
        while c > 1:
            c //= p
            n += 1
        exps.append(n)
    out = []
    for k in range(len(exps)):
        mult = exps[k] - (exps[k + 1] if k + 1 < len(exps) else 0)
        out.extend([k + 1] * mult)
    return tuple(sorted(out))


def span_solver(ring, gens):
    """A swept solver on the matrix whose columns are the (nonempty) gens."""
    return smithify(RMatrix.from_rows(ring, [list(v) for v in gens]).transpose().sparse())


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2), RingSpec(2, 3)])
def test_span_invariants_vs_counting(ring):
    rng = random.Random(707)
    for _ in range(20):
        k, width = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [tuple(rng.randrange(ring.modulus) for _ in range(width)) for _ in range(k)]
        span = enumerate_span(ring, gens, width)
        got = quotient_data(span_solver(ring, gens), []).invariants  # span(gens) / 0
        assert got == torsion_invariants_by_counting(ring, span)


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_cokernel_data_vs_counting(ring):
    rng = random.Random(808)
    m = ring.modulus
    for _ in range(15):
        rows, cols = rng.randrange(1, 3), rng.randrange(0, 3)
        a = rand_matrix(ring, rows, cols, rng)
        data = smithify(a.sparse()).cokernel()
        columns = [a.sparse().col(j) for j in range(cols)]
        img = enumerate_span(ring, columns, rows) if cols else {(0,) * rows}
        red = SpanReducer(ring, columns, width=rows)
        cosets = {red.reduce(x) for x in itertools.product(range(m), repeat=rows)}
        assert ring.p ** sum(data.invariants) == len(cosets)
        # generator representatives must generate the quotient
        gen_span = enumerate_span(ring, list(data.reps), rows) if data.reps else {(0,) * rows}
        hit = {red.reduce(v) for v in gen_span}
        assert len(hit) == len(cosets), "representatives do not generate the cokernel"
        for rep, e in zip(data.reps, data.invariants):
            assert red.contains([ring.p**e * x for x in rep]), "rep order too small"
            assert not red.contains([ring.p ** (e - 1) * x for x in rep]), (
                "rep order overstated"
            )


@pytest.mark.parametrize("ring", [RingSpec(p, r) for p in (2, 3) for r in (1, 2, 3)])
def test_cokernel_data_is_the_quotient_of_the_identity_basis(ring, monkeypatch):
    # cokernel() reads the cokernel off the one sweep of A that built the
    # solver; quotient_data on the identity basis with A's columns as
    # relations is the same group
    rng = random.Random(1212)
    cases = [RMatrix.zeros(ring, rows, cols) for rows, cols in [(0, 3), (3, 0), (0, 0)]]
    cases += [rand_matrix(ring, rng.randrange(1, 6), rng.randrange(1, 6), rng) for _ in range(12)]
    cases += [sparse_matrix(ring, rows, cols, rng, 0.03) for rows, cols in [(30, 40), (40, 30)]]
    solvers = [smithify(a.sparse()) for a in cases]
    for a, solver in zip(cases, solvers):
        basis = smithify(RMatrix.identity(ring, a.rows).sparse())
        assert solver.cokernel() == quotient_data(basis, [a.sparse().col(j) for j in range(a.cols)])
    monkeypatch.setattr(zmod, "smithify", None)  # a sweep would fail
    for solver in solvers:
        solver.cokernel()


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_quotient_data_subspan(ring):
    rng = random.Random(909)
    m = ring.modulus
    for _ in range(15):
        k, width = rng.randrange(1, 3), rng.randrange(1, 3)
        gens = [tuple(rng.randrange(m) for _ in range(width)) for _ in range(k)]
        span = sorted(enumerate_span(ring, gens, width))
        rels = [rng.choice(span) for _ in range(rng.randrange(0, 3))]
        data = quotient_data(span_solver(ring, gens), rels)
        rel_span = enumerate_span(ring, rels, width) if rels else {(0,) * width}
        red = SpanReducer(ring, sorted(rel_span), width=width)
        cosets = {red.reduce(v) for v in span}
        assert ring.p ** sum(data.invariants) == len(cosets)
