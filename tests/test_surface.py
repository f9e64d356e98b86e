"""Tests for words, representations and modules of surface groups."""

import random

import pytest

from flaglift.flags import Flag
from flaglift.oracle import gen_random_flag
from flaglift.stats import session
from flaglift.surface import (
    GModule,
    Presentation,
    RelatorError,
    SurfaceRep,
    char_module,
    dual_module,
    hom_mat,
    hom_module,
    hom_vec,
    tensor_module,
    trivial_module,
)
from flaglift.zmod import RingSpec, RMatrix, vec_mod
from relator_walk import crossed_value, times


def test_relator_shape():
    assert Presentation(1).relator() == (1, 2, -1, -2)
    assert Presentation(2).relator() == (1, 2, -1, -2, 3, 4, -3, -4)
    assert Presentation(2).gen_name(3) == "x2"
    assert Presentation(2).gen_name(4) == "y2"


@pytest.mark.parametrize("cls", [SurfaceRep, GModule, Flag])
def test_relator_validation_rejects_bad_tuples(cls):
    ring = RingSpec(2, 2)
    a = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    b = RMatrix.from_rows(ring, [[1, 0], [1, 1]])
    eye = RMatrix.identity(ring, 2)
    with pytest.raises(RelatorError):
        cls(ring, 1, (a, b))  # [a,b] != 1 over Z/4
    cls(ring, 1, (a, eye))  # commuting pair is fine
    with pytest.raises(ValueError):
        cls(ring, 1, (a,))
    with pytest.raises(ValueError) as exc:
        cls(ring, 1, (a, RMatrix.zeros(ring, 2, 2)))
    assert not isinstance(exc.value, RelatorError), "singular generator is caught first"
    for genus in (0, -1):
        with pytest.raises(ValueError, match="genus must be >= 1"):
            cls(RingSpec(2, 1), genus, ())
    with pytest.raises(ValueError, match="genus must be >= 1"):
        trivial_module(RingSpec(2, 1), 0, 3)


def test_validation_inverses_are_handed_on(monkeypatch):
    # the relator walk inverts every generator once; the object keeps those
    # inverses, an equal tuple in the same session reads them off the walks
    # table, and as_module / reduce_to hand them on instead of inverting
    flag = gen_random_flag(3, 2, 3, 2, seed=4)
    ring, genus, mats = flag.ring, flag.genus, flag.mats
    inverted = []
    inverse = RMatrix.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(RMatrix, "inverse", counted)
    with session():
        rep = SurfaceRep(ring, genus, mats)
        assert len(inverted) == 2 * genus, "a miss walks the relator once"
        mod = GModule(ring, genus, mats)
        got = {
            "rep": (rep.inverses, mats),
            "rep.as_module": (rep.as_module().inverses, mats),
            "rep.reduce_to": (rep.reduce_to(1).inverses, rep.reduce_to(1).mats),
            "rep.as_module.reduce_to": (
                rep.as_module().reduce_to(1).inverses,
                rep.as_module().reduce_to(1).acts,
            ),
            "mod": (mod.inverses, mats),
            "mod.reduce_to": (mod.reduce_to(1).inverses, mod.reduce_to(1).acts),
        }
    assert len(inverted) == 2 * genus, "only the one relator walk inverts"
    assert mod.inverses is rep.inverses, "the equal tuple gets the walk's inverses"
    monkeypatch.undo()
    for name, (inverses, source) in got.items():
        assert inverses == tuple(m.inverse() for m in source), name


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_a_checked_construction_makes_4g_minus_1_products(monkeypatch, genus):
    # a miss starts the walk at x1, not at I @ x1, and inverts each generator
    # once; a construction on equal matrices in the same session reads the
    # walks table and makes no product or inversion
    mats = gen_random_flag(3, 2, 3, genus, seed=genus).mats
    ring = mats[0].ring
    equal = tuple(RMatrix(m.ring, m.rows, m.cols, m.entries) for m in mats)
    assert equal == mats and all(a is not b for a, b in zip(equal, mats))
    calls = {"matmul": 0, "inverse": 0}

    def counting(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    monkeypatch.setattr(RMatrix, "__matmul__", counting("matmul", RMatrix.__matmul__))
    monkeypatch.setattr(RMatrix, "inverse", counting("inverse", RMatrix.inverse))
    for cls in (SurfaceRep, GModule):
        with session():
            before = dict(calls)
            first = cls(ring, genus, mats)
            assert calls["matmul"] - before["matmul"] == 4 * genus - 1, cls
            assert calls["inverse"] - before["inverse"] == 2 * genus, cls
            for again in (SurfaceRep, GModule):
                before = dict(calls)
                second = again(ring, genus, equal)
                assert calls == before, (cls, again)
                assert second.inverses == first.inverses, (cls, again)


def test_relator_error_message():
    # the message reads the same on a walks-table hit
    ring = RingSpec(2, 2)
    a = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    b = RMatrix.from_rows(ring, [[1, 0], [1, 1]])
    with session() as s:
        for cls, what in [(SurfaceRep, "representation"), (GModule, "module action")]:
            with pytest.raises(RelatorError) as exc:
                cls(ring, 1, (a, b))
            assert str(exc.value) == f"{what}: relator defect is nonzero: [[2, 3], [1, 3]]"
        assert (s.walks.misses, s.walks.hits) == (1, 1)


def test_the_walks_table_keeps_rings_apart():
    # x and y commute mod 2 (y = x^2 there), but not mod 4, where x^2 = [[1, 1], [1, 2]]
    rows = ([[0, 1], [1, 1]], [[1, 1], [1, 0]])
    z2, z4 = RingSpec(2, 1), RingSpec(2, 2)

    def build(ring):
        return SurfaceRep(ring, 1, tuple(RMatrix.from_rows(ring, m) for m in rows))

    for order in [(z2, z4), (z4, z2)]:
        with session() as s:
            for ring in order:
                if ring == z2:
                    assert build(ring).ring == z2
                else:
                    with pytest.raises(RelatorError):
                        build(ring)
            assert s.walks.misses == s.walks.summary()["size"] == 2


def commuting_pair_rep(ring, rng, n=2):
    """A genus-1 representation from a random matrix and a power of it."""
    while True:
        m = RMatrix(ring, n, n, tuple(rng.randrange(ring.modulus) for _ in range(n * n)))
        if m.is_invertible():
            return SurfaceRep(ring, 1, (m, m @ m))


def test_tensor_dual_hom_actions():
    ring = RingSpec(3, 2)
    rng = random.Random(23)
    a = commuting_pair_rep(ring, rng).as_module()
    c = commuting_pair_rep(ring, rng, n=3).as_module()
    t = tensor_module(c, a)
    assert t.rank == 6
    d = dual_module(c)
    for g in range(2):
        assert d.acts[g] == c.inverses[g].transpose()
    h = hom_module(c, a)
    # hom action matches g.F = act_A(g) F act_C(g)^-1 under the flattening
    f = RMatrix(ring, a.rank, c.rank, tuple(rng.randrange(9) for _ in range(6)))
    for g in range(2):
        lhs = times(h.acts[g], hom_vec(f))
        rhs = hom_vec(a.acts[g] @ f @ c.inverses[g])
        assert lhs == rhs, f"hom action convention broken at generator {g + 1}"
        lhs = times(h.inverses[g], hom_vec(f))
        rhs = hom_vec(a.inverses[g] @ f @ c.acts[g])
        assert lhs == rhs, f"hom action convention broken at generator {-(g + 1)}"
    assert hom_mat(ring, hom_vec(f), a.rank, c.rank) == f


def test_dual_of_dual_is_original():
    ring = RingSpec(2, 3)
    rng = random.Random(37)
    m = commuting_pair_rep(ring, rng, n=3).as_module()
    assert dual_module(dual_module(m)) == m


def test_char_module_values():
    ring = RingSpec(5, 2)
    chi = char_module(ring, 2, (2, 1, 24, 7))
    with pytest.raises(ValueError):
        char_module(ring, 1, (5, 1))  # non-unit value


def test_crossed_value_cocycle_rule():
    ring = RingSpec(2, 2)
    rng = random.Random(41)
    mod = commuting_pair_rep(ring, rng).as_module()
    vals = [
        tuple(rng.randrange(4) for _ in range(mod.rank)),
        tuple(rng.randrange(4) for _ in range(mod.rank)),
    ]
    for _ in range(20):
        u = tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randrange(6)))
        v = tuple(rng.choice([1, 2, -1, -2]) for _ in range(rng.randrange(6)))
        act_u = RMatrix.identity(ring, mod.rank)
        for t in u:
            act_u = act_u @ (mod.acts[t - 1] if t > 0 else mod.inverses[-t - 1])
        lhs = crossed_value(mod, vals, u + v)
        head, tail = crossed_value(mod, vals, u), times(act_u, crossed_value(mod, vals, v))
        rhs = vec_mod(ring, [x + y for x, y in zip(head, tail, strict=True)])
        assert lhs == rhs, "crossed extension must satisfy c(uv) = c(u) + u.c(v)"
    # inverse rule makes c(s s^-1) vanish
    assert crossed_value(mod, vals, (1, -1)) == mod.zero()


def test_trivial_module_crossed_value_is_exponent_sum():
    ring = RingSpec(3, 2)
    mod = trivial_module(ring, 1, 1)
    vals = [(1,), (3,)]
    assert crossed_value(mod, vals, (1, 1, 2, -1)) == ((1 + 1 + 3 - 1) % 9,)
