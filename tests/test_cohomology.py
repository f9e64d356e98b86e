"""Tests for surface group cohomology, cup products and extensions."""

import hashlib
import itertools
import random

import pytest

from flaglift.cohomology import (
    CohClass,
    LiftConsistencyError,
    complex_of,
    connecting,
    coordinate_extension,
    cup,
    demushkin_report,
    extension_class,
    h_groups,
    solve_cup,
    split_section,
    stack,
    unstack,
)
from flaglift.oracle import gen_random_flag
from flaglift.surface import (
    GModule,
    SurfaceRep,
    char_module,
    crossed_value,
    hom_module,
    tensor_module,
    trivial_module,
)
from flaglift.zmod import RingSpec, RMatrix


def rand_invertible(ring, n, rng):
    while True:
        m = RMatrix(ring, n, n, tuple(rng.randrange(ring.modulus) for _ in range(n * n)))
        if m.is_invertible():
            return m


def rand_commuting_module(ring, genus, n, rng):
    """Module where each handle acts by powers of one matrix (relator-safe)."""
    acts = []
    for _ in range(genus):
        m = rand_invertible(ring, n, rng)
        k = rng.randrange(4)
        mk = RMatrix.identity(ring, n)
        for _ in range(k):
            mk = mk @ m
        acts.extend([m, mk])
    return GModule(ring, genus, tuple(acts))


def rand_cocycle(cx, rng):
    gens = cx.d1_solver.kernel()
    vec = [0] * (cx.module.rank * cx.n_gens)
    for g, e in gens:
        c = rng.randrange(cx.ring.p**e)
        vec = [(x + c * y) % cx.ring.modulus for x, y in zip(vec, g)]
    return CohClass(cx, 1, tuple(vec))


# -- differentials -------------------------------------------------------------


@pytest.mark.parametrize("ring,genus", [(RingSpec(2, 2), 1), (RingSpec(3, 2), 1), (RingSpec(2, 2), 2)])
def test_differentials_compose_to_zero_and_match_crossed_values(ring, genus):
    rng = random.Random(19)
    for _ in range(10):
        mod = rand_commuting_module(ring, genus, rng.randrange(1, 3), rng)
        cx = complex_of(mod)
        assert (cx.d1 @ cx.d0).is_zero()
        vals = [
            tuple(rng.randrange(ring.modulus) for _ in range(mod.rank))
            for _ in range(cx.n_gens)
        ]
        by_matrix = cx.d1.apply(stack(vals))
        by_walk = crossed_value(mod, vals, mod.presentation.relator())
        assert by_matrix == tuple(by_walk), "d1 must evaluate the relator"


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("rank", [1, 2])
def test_trivial_coefficients(p, genus, s, rank):
    # both differentials vanish, so H^1 = M^(2g) and H^2 = M on the nose
    ring = RingSpec(p, s)
    mod = trivial_module(ring, genus, rank)
    rep = h_groups(mod)
    assert rep.h0.invariants == (s,) * rank
    assert rep.h1.invariants == (s,) * (2 * genus * rank)
    assert rep.h2.invariants == (s,) * rank


def test_h1_reps_are_cocycles_not_coboundaries():
    ring = RingSpec(2, 2)
    rng = random.Random(73)
    for _ in range(10):
        mod = rand_commuting_module(ring, 1, 2, rng)
        cx = complex_of(mod)
        rep = h_groups(mod)
        for vec, e in zip(rep.h1.reps, rep.h1.invariants):
            cls = CohClass(cx, 1, vec)
            assert not cls.is_zero(), "representative of a nonzero invariant"
            killed = cls.scale(ring.p**e)
            assert killed.is_zero(), "order must divide the invariant"


# sha256 over repr((h0, h1, h2)) of every report below, invariants and
# representatives both; any change to the kernels' output changes it
H_GROUPS_DIGEST = "f022679a396699dc3d2ee6ec6cc39ad3afbbf8e2cbfd19dcdfa809bcebf4dd38"


def test_h_groups_full_report_digest():
    digest = hashlib.sha256()
    for p in (2, 3):
        for r in (1, 2):
            ring = RingSpec(p, r)
            for genus in (1, 2, 3):
                for d in (2, 3):
                    v = gen_random_flag(p, r, d, genus, seed=10 * genus + d).as_module()
                    for mod in (trivial_module(ring, genus, d * d), hom_module(v, v)):
                        rep = h_groups(mod)
                        digest.update(repr((rep.h0, rep.h1, rep.h2)).encode())
    assert digest.hexdigest() == H_GROUPS_DIGEST, "h_groups reports changed"


# -- cup products --------------------------------------------------------------


def test_cup_trivial_coefficients_is_symplectic():
    for p in (2, 3, 5):
        ring = RingSpec(p, 1)
        mod = trivial_module(ring, 1, 1)
        cx = complex_of(mod)
        u = lambda a, b: CohClass(cx, 1, (a, b))
        pair = lambda x, y: cup(x, y).canonical()[0]
        x, y = u(1, 0), u(0, 1)
        assert pair(x, y) == 1
        assert pair(y, x) == (-1) % p
        assert pair(x, x) == 0 and pair(y, y) == 0


@pytest.mark.parametrize("p,genus", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 3), (3, 3)])
def test_demushkin_report(p, genus):
    rep = demushkin_report(p, genus)
    assert rep.ok, f"H^2 invariants {rep.h2_invariants}, gram {rep.gram.to_lists()}"
    # standard symplectic block structure
    expect = [[0] * 2 * genus for _ in range(2 * genus)]
    for i in range(genus):
        expect[2 * i][2 * i + 1] = 1
        expect[2 * i + 1][2 * i] = (-1) % p
    assert rep.gram.to_lists() == expect


def test_cup_kills_coboundaries_and_is_bilinear():
    # the inverse-letter corrections are exactly what makes this pass
    ring = RingSpec(3, 2)
    rng = random.Random(91)
    for _ in range(8):
        a = rand_commuting_module(ring, 1, 2, rng)
        b = rand_commuting_module(ring, 1, rng.randrange(1, 3), rng)
        cxa, cxb = complex_of(a), complex_of(b)
        u, u2 = rand_cocycle(cxa, rng), rand_cocycle(cxa, rng)
        v = rand_cocycle(cxb, rng)
        m = tuple(rng.randrange(ring.modulus) for _ in range(a.rank))
        cob = CohClass(cxa, 1, cxa.d0.apply(m))
        assert cup(cob, v).is_zero(), "cup with a coboundary must vanish in H^2"
        assert cup(u + cob, v) == cup(u, v)
        assert cup(u + u2, v) == cup(u, v) + cup(u2, v)
        m2 = tuple(rng.randrange(ring.modulus) for _ in range(b.rank))
        cob2 = CohClass(cxb, 1, cxb.d0.apply(m2))
        assert cup(u, v + cob2) == cup(u, v)


def test_cup_graded_antisymmetry():
    ring = RingSpec(3, 1)
    rng = random.Random(17)
    for _ in range(6):
        a = rand_commuting_module(ring, 1, 2, rng)
        b = rand_commuting_module(ring, 1, 2, rng)
        u, v = rand_cocycle(complex_of(a), rng), rand_cocycle(complex_of(b), rng)
        uv = cup(u, v)
        vu = cup(v, u)
        # swap tensor factors of vu and compare classes in tensor(a, b)
        swapped = [0] * (a.rank * b.rank)
        for i in range(b.rank):
            for j in range(a.rank):
                swapped[j * b.rank + i] = vu.vector[i * a.rank + j]
        t_ab = complex_of(tensor_module(a, b))
        assert CohClass(t_ab, 2, tuple(swapped)) == uv.scale(-1)


# -- extensions ----------------------------------------------------------------


def unipotent_rep(ring, c_x=1, c_y=0):
    a = RMatrix.from_rows(ring, [[1, c_x], [0, 1]])
    b = RMatrix.from_rows(ring, [[1, c_y], [0, 1]])
    return GModule(ring, 1, (a, b))


def test_extension_class_detects_splitting():
    ring = RingSpec(2, 2)
    nonsplit = coordinate_extension(unipotent_rep(ring, 1, 0), 1)
    cls = extension_class(nonsplit)
    assert not cls.is_zero()
    assert split_section(nonsplit).splits is False

    split = coordinate_extension(unipotent_rep(ring, 0, 0), 1)
    assert extension_class(split).is_zero()
    res = split_section(split)
    assert res.splits and res.section is not None

    # a nonzero but exact section defect: conjugated direct sum
    u = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    mod = GModule(
        ring, 1, (u @ RMatrix.diagonal(ring, [1, 3]) @ u.inverse(), RMatrix.identity(ring, 2))
    )
    ext = coordinate_extension(mod, 1)
    res = split_section(ext)
    assert res.splits, "conjugate of a direct sum splits"
    for g in range(2):
        assert ext.total.acts[g] @ res.section == res.section @ ext.quotient.acts[g]


def test_split_extension_has_zero_connecting_map():
    ring = RingSpec(2, 2)
    rng = random.Random(5)
    ext = coordinate_extension(unipotent_rep(ring, 0, 0), 1)
    cxq = complex_of(ext.quotient)
    for _ in range(5):
        v = rand_cocycle(cxq, rng)
        assert connecting(ext, v).is_zero()


def test_connecting_solve_cup_roundtrip():
    ring = RingSpec(2, 1)
    rng = random.Random(29)
    mods = [unipotent_rep(ring, 1, 0), unipotent_rep(ring, 1, 1), unipotent_rep(ring, 0, 1)]
    for total in mods:
        ext = coordinate_extension(total, 1)
        cxq = complex_of(ext.quotient)
        for _ in range(6):
            v = rand_cocycle(cxq, rng)
            target = connecting(ext, v)
            eps = solve_cup(ext, target)
            assert connecting(ext, eps) == target, "solve_cup must invert connecting"


def test_solve_cup_unreachable_target_raises():
    ring = RingSpec(2, 1)
    ext = coordinate_extension(trivial_module(ring, 1, 2), 1)
    cxa = complex_of(ext.sub)
    target = CohClass(cxa, 2, (1,))
    assert not target.is_zero()
    with pytest.raises(LiftConsistencyError):
        solve_cup(ext, target)


def test_unstack_stack_roundtrip():
    vec = tuple(range(12))
    parts = unstack(vec, 3, 4)
    assert stack(parts) == vec
    with pytest.raises(ValueError):
        unstack(vec, 5, 2)
