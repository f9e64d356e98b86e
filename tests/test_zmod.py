"""Tests for the exact Z/p^r linear algebra core."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaglift.zmod import (
    LinearSolver,
    RingSpec,
    RMatrix,
    SpanReducer,
    _is_prime,
    cokernel_data,
    echelonize,
    quotient_data,
    smithify,
    teichmuller,
    vec_mod,
    vec_scale,
)

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
                assert a.apply(v) == ref_apply(a, v)
    for n in range(6):
        assert RMatrix.identity(ring, n) == ref_identity(ring, n)


def test_rmatrix_stores_least_residues_and_checks_lengths():
    ring = RingSpec(3, 2)
    m = ring.modulus
    a = RMatrix(ring, 1, 3, (-1, m, m + 3))
    assert a.entries == (m - 1, 0, 3)
    assert RMatrix(ring, 1, 2, (1, m)).entries == (1, 0)
    with pytest.raises(ValueError):
        a.apply((1, 2))
    with pytest.raises(ValueError):
        a.apply((1, 2, 3, 4))


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
        sm = smithify(a)
        assert sm.left @ a @ sm.right == sm.diag
        assert sm.left.is_invertible() and sm.right.is_invertible()
        exps = sm.exponents
        assert len(exps) == min(rows, cols)
        assert list(exps) == sorted(exps), "diagonal exponents must be nondecreasing"
        for i in range(sm.diag.rows):
            for j in range(sm.diag.cols):
                if i == j and i < len(exps) and exps[i] < ring.r:
                    assert sm.diag.entry(i, j) == ring.p ** exps[i]
                else:
                    assert sm.diag.entry(i, j) == 0


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2), RingSpec(2, 3)])
def test_solve_roundtrip_and_kernel(ring):
    rng = random.Random(505)
    for _ in range(30):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = rand_matrix(ring, rows, cols, rng)
        solver = LinearSolver(a)
        x = tuple(rng.randrange(ring.modulus) for _ in range(cols))
        b = a.apply(x)
        got = solver.solve(b)
        assert got is not None and a.apply(got) == b
        for vec, e in solver.kernel():
            assert all(v == 0 for v in a.apply(vec)), "kernel generator not in kernel"
            assert vec_scale(ring, ring.p ** (e - 1), vec) != (0,) * cols, (
                "annihilator exponent overstated"
            )


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_solve_agrees_with_enumeration(ring):
    rng = random.Random(606)
    m = ring.modulus
    for _ in range(15):
        rows, cols = rng.randrange(1, 3), rng.randrange(1, 3)
        a = rand_matrix(ring, rows, cols, rng)
        solver = LinearSolver(a)
        all_images = {}
        for x in itertools.product(range(m), repeat=cols):
            all_images.setdefault(a.apply(x), set()).add(x)
        kernel_set = all_images.get((0,) * rows, {tuple([0] * cols)})
        gens = [vec for vec, _ in solver.kernel()]
        got_kernel = enumerate_span(ring, gens, cols) if gens else {(0,) * cols}
        assert got_kernel == kernel_set
        assert solver.kernel_size() == len(kernel_set)
        for b in itertools.product(range(m), repeat=rows):
            got = solver.solve(b)
            if b in all_images:
                assert got is not None and a.apply(got) == b
            else:
                assert got is None


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


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2), RingSpec(2, 3)])
def test_span_invariants_vs_counting(ring):
    rng = random.Random(707)
    for _ in range(20):
        k, width = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [tuple(rng.randrange(ring.modulus) for _ in range(width)) for _ in range(k)]
        span = enumerate_span(ring, gens, width)
        got = quotient_data(ring, gens, []).invariants  # span(gens) / 0
        assert got == torsion_invariants_by_counting(ring, span)


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_cokernel_data_vs_counting(ring):
    rng = random.Random(808)
    m = ring.modulus
    for _ in range(15):
        rows, cols = rng.randrange(1, 3), rng.randrange(0, 3)
        a = rand_matrix(ring, rows, cols, rng)
        data = cokernel_data(a)
        img = enumerate_span(ring, [a.col(j) for j in range(cols)], rows) if cols else {
            (0,) * rows
        }
        red = SpanReducer(ring, [a.col(j) for j in range(cols)], width=rows)
        cosets = {red.reduce(x) for x in itertools.product(range(m), repeat=rows)}
        assert ring.p ** sum(data.invariants) == len(cosets)
        # generator representatives must generate the quotient
        gen_span = enumerate_span(ring, list(data.reps), rows) if data.reps else {(0,) * rows}
        hit = {red.reduce(v) for v in gen_span}
        assert len(hit) == len(cosets), "representatives do not generate the cokernel"
        for rep, e in zip(data.reps, data.invariants):
            assert red.contains(vec_scale(ring, ring.p**e, rep)), "rep order too small"
            assert not red.contains(vec_scale(ring, ring.p ** (e - 1), rep)), (
                "rep order overstated"
            )


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 2)])
def test_quotient_data_subspan(ring):
    rng = random.Random(909)
    m = ring.modulus
    for _ in range(15):
        k, width = rng.randrange(1, 3), rng.randrange(1, 3)
        gens = [tuple(rng.randrange(m) for _ in range(width)) for _ in range(k)]
        span = sorted(enumerate_span(ring, gens, width))
        rels = [rng.choice(span) for _ in range(rng.randrange(0, 3))]
        data = quotient_data(ring, gens, rels)
        rel_span = enumerate_span(ring, rels, width) if rels else {(0,) * width}
        red = SpanReducer(ring, sorted(rel_span), width=width)
        cosets = {red.reduce(v) for v in span}
        assert ring.p ** sum(data.invariants) == len(cosets)
