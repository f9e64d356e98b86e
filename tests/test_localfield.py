"""Tests for square classes, Hilbert symbols, and the parity obstruction."""

import pytest

from flaglift.localfield import (
    CyclotomicLiftReport,
    SquareClass,
    canonical_classes,
    check_no_cyclotomic_lift,
    hilbert,
    legendre,
    liftable_mod4,
    non_liftable_classes,
    shape_edges,
    square_class,
)
from hilbert_reference import hilbert_oracle


def test_canonical_class_sets():
    assert canonical_classes(2) == (1, -1, 2, -2, 5, -5, 10, -10)
    assert canonical_classes(3) == (1, 2, 3, 6)
    assert canonical_classes(7) == (1, 3, 7, 21)
    for bad in (4, 9, 15, 1):
        with pytest.raises(ValueError):
            canonical_classes(bad)


def test_square_class_canonicalization():
    assert square_class(2, 12).rep == -5  # 12 = 4*3, 3 = -5 mod 8
    assert square_class(2, -8).rep == -2
    assert square_class(2, 7).rep == -1
    assert square_class(3, -3).rep == 6  # -1 is a non-residue mod 3
    assert square_class(7, 2).rep == 1  # 2 is a residue mod 7
    with pytest.raises(ValueError):
        square_class(2, 0)
    with pytest.raises(ValueError):
        SquareClass(2, 3)  # not canonical


def test_square_class_product_group():
    one = square_class(2, 1)
    for rep in canonical_classes(2):
        c = SquareClass(2, rep)
        assert square_class(2, c.rep * c.rep).rep == 1
        assert square_class(2, c.rep * one.rep) == c


def test_hilbert_frozen_values():
    assert hilbert(square_class(2, 1), square_class(2, -10)) == 1
    assert hilbert(square_class(2, -2), square_class(2, -5)) == 1
    assert hilbert(square_class(2, -1), square_class(2, -1)) == -1
    for ell in (3, 7, 11):
        assert hilbert(square_class(ell, -ell), square_class(ell, ell)) == 1
    with pytest.raises(ValueError):
        hilbert(square_class(2, -1), square_class(3, 2))


def test_hilbert_symmetric_and_bimultiplicative():
    for p in (2, 3, 7):
        cs = [SquareClass(p, r) for r in canonical_classes(p)]
        for a in cs:
            for b in cs:
                assert hilbert(a, b) == hilbert(b, a)
                for c in cs:
                    assert hilbert(square_class(p, a.rep * c.rep), b) == hilbert(a, b) * hilbert(c, b)


def test_hilbert_formula_matches_oracle_everywhere():
    for p in (2, 3, 7, 11):
        for ra in canonical_classes(p):
            for rb in canonical_classes(p):
                a, b = SquareClass(p, ra), SquareClass(p, rb)
                assert hilbert(a, b) == hilbert_oracle(a, b), (p, ra, rb)


def test_liftable_mod4_sets():
    assert liftable_mod4(square_class(2, 1))
    nl2 = {c.rep for c in non_liftable_classes(2)}
    assert nl2 == {-1, -2, -5, -10}
    assert len(canonical_classes(2)) - len(nl2) == 4  # image is index-2 subgroup
    for ell in (3, 7, 11):
        got = {c for c in non_liftable_classes(ell)}
        assert got == {square_class(ell, -ell), square_class(ell, ell)}


def test_legendre_basics():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    with pytest.raises(ValueError):
        legendre(14, 7)


def test_shape_edges_match_declared_system():
    assert shape_edges() == ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))
    assert check_no_cyclotomic_lift().edges == shape_edges()


def test_parity_system_unsat_and_minimal():
    report = check_no_cyclotomic_lift()
    assert isinstance(report, CyclotomicLiftReport)
    assert report.assignments_checked == 32
    assert report.unsat and report.satisfying == ()
    assert report.derived_edges == report.edges
    assert report.minimal
    for edge, witness in report.removal_witnesses:
        assert witness[edge[0] - 1] == witness[edge[1] - 1]  # only that edge breaks
        assert all(witness[i - 1] != witness[j - 1] for i, j in report.edges if (i, j) != edge)
