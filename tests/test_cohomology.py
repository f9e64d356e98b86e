"""Tests for surface group cohomology, cup products and extensions."""

import hashlib
import itertools
import random

import pytest

from flaglift import cohomology, surface, zmod
from flaglift.cohomology import (
    CochainComplex,
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
from flaglift.lifting import _solve_bands
from flaglift.oracle import gen_random_flag
from flaglift.surface import (
    GModule,
    Presentation,
    RelatorError,
    SurfaceRep,
    char_module,
    hom_mat,
    hom_module,
    hom_vec,
    tensor_module,
    trivial_module,
)
from flaglift.zmod import ModuleShape, RingSpec, RMatrix
from h1_reference import h1_reference
from relator_walk import crossed_value, times
from span_reference import SpanReducer


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


def is_zero(cls):
    """Whether the class vanishes: its vector is hit from one degree down."""
    return cls.witness() is not None


def scaled(cls, c):
    """The class of c times the vector of ``cls``."""
    return CohClass(cls.cx, cls.degree, [c * x for x in cls.vector])


def added(u, v):
    """The class of the sum of the vectors of ``u`` and ``v``, in u's group."""
    return CohClass(u.cx, u.degree, [x + y for x, y in zip(u.vector, v.vector, strict=True)])


# -- differentials -------------------------------------------------------------


@pytest.mark.parametrize("ring,genus", [(RingSpec(2, 2), 1), (RingSpec(3, 2), 1), (RingSpec(2, 2), 2)])
def test_differentials_compose_to_zero_and_match_crossed_values(ring, genus):
    rng = random.Random(19)
    for _ in range(10):
        mod = rand_commuting_module(ring, genus, rng.randrange(1, 3), rng)
        cx = complex_of(mod)
        for j in range(cx.d0.cols):
            assert not any(cx.d1.apply(cx.d0.col(j))), f"d1 . d0 != 0 at column {j}"
        vals = [
            tuple(rng.randrange(ring.modulus) for _ in range(mod.rank))
            for _ in range(cx.n_gens)
        ]
        by_matrix = cx.d1.apply(stack(vals))
        by_walk = crossed_value(mod, vals, Presentation(mod.genus).relator())
        assert by_matrix == tuple(by_walk), "d1 must evaluate the relator"


def test_d1_refuses_a_module_that_breaks_the_relator(monkeypatch):
    # [a, b] != 1 over Z/4, so the constructor refuses the pair; with the
    # relator check switched off, the d1 . d0 = 0 check is the one that fires
    ring = RingSpec(2, 2)
    a = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    b = RMatrix.from_rows(ring, [[1, 0], [1, 1]])
    with pytest.raises(RelatorError):
        GModule(ring, 1, (a, b))
    monkeypatch.setattr(surface, "_check_relator", lambda *args: (a.inverse(), b.inverse()))
    mod = GModule(ring, 1, (a, b))
    with pytest.raises(AssertionError, match=r"d1 \. d0 != 0; "):
        CochainComplex(mod).d1


def test_rank_zero_modules_have_empty_groups():
    # genus 0 is refused at the boundary; rank 0 at genus 1 and 2 still builds
    for genus in (1, 2):
        rep = h_groups(trivial_module(RingSpec(2, 1), genus, 0))
        assert (rep.h0, rep.h1, rep.h2) == (ModuleShape((), ()),) * 3


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
            assert not is_zero(cls), "representative of a nonzero invariant"
            assert is_zero(scaled(cls, ring.p**e)), "order must divide the invariant"


# sha256 over repr((h0, h1, h2)) of every report below, invariants and
# representatives both; any change to the kernels' output changes it
H_GROUPS_DIGEST = "f022679a396699dc3d2ee6ec6cc39ad3afbbf8e2cbfd19dcdfa809bcebf4dd38"
# the same reports with H^1 cut to its invariants: H^0 and H^2 in full
H_GROUPS_INVARIANT_DIGEST = "10d0ffee9cf072d59e61e3b3ca542e06c44138d714e4a15534d7954724870998"


def h_groups_reports():
    """The 48 reports both digests hash: trivial and adjoint flag modules."""
    for p in (2, 3):
        for r in (1, 2):
            ring = RingSpec(p, r)
            for genus in (1, 2, 3):
                for d in (2, 3):
                    v = gen_random_flag(p, r, d, genus, seed=10 * genus + d).as_module()
                    for mod in (trivial_module(ring, genus, d * d), hom_module(v, v)):
                        yield h_groups(mod)


def test_h_groups_full_report_digest():
    digest = hashlib.sha256()
    for rep in h_groups_reports():
        digest.update(repr((rep.h0, rep.h1, rep.h2)).encode())
    assert digest.hexdigest() == H_GROUPS_DIGEST, "h_groups reports changed"


def test_h_groups_invariant_digest():
    digest = hashlib.sha256()
    for rep in h_groups_reports():
        digest.update(repr((rep.h0, rep.h1.invariants, rep.h2)).encode())
    assert digest.hexdigest() == H_GROUPS_INVARIANT_DIGEST, "h_groups H^0, H^2 or H^1 invariants changed"


# sha256 over repr((h0, h1, h2)) of the same 48 reports with H^1 from the
# reference: the value H_GROUPS_DIGEST had while h_groups took that path
H1_REFERENCE_DIGEST = "f022679a396699dc3d2ee6ec6cc39ad3afbbf8e2cbfd19dcdfa809bcebf4dd38"


def test_h1_reference_digest():
    digest = hashlib.sha256()
    for rep in h_groups_reports():
        digest.update(repr((rep.h0, h1_reference(rep.module), rep.h2)).encode())
    assert digest.hexdigest() == H1_REFERENCE_DIGEST, "the reference H^1 path changed"


def check_h1_representatives(module, h1):
    """Each rep is a cocycle of exact order p^e in H^1, and with im d0 they span ker d1."""
    cx = complex_of(module)
    p = module.ring.p
    for vec, e in zip(h1.reps, h1.invariants):
        cls = CohClass(cx, 1, vec)  # checks the cocycle condition
        assert is_zero(scaled(cls, p**e)), "order must divide p^e"
        assert not is_zero(scaled(cls, p ** (e - 1))), "order below p^e"
    coboundaries = [cx.d0.col(j) for j in range(cx.d0.cols)]
    span = SpanReducer(module.ring, list(h1.reps) + coboundaries, width=cx.d0.rows)
    assert all(span.contains(vec) for vec, _ in cx.d1_solver.kernel()), "reps and im d0 miss ker d1"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_h1_matches_the_reference(p):
    # trivial modules, flag modules of each kind and their adjoints:
    # 189 modules per prime, r 1-3, g 1-3, d 1-3
    checked = 0
    for r, genus, d in itertools.product((1, 2, 3), repeat=3):
        mods = [trivial_module(RingSpec(p, r), genus, d)]
        for kind in ("any", "kummer", "wound-kummer"):
            v = gen_random_flag(p, r, d, genus, kind=kind, seed=10 * genus + d).as_module()
            mods += [v, hom_module(v, v)]
        for mod in mods:
            h1 = h_groups(mod).h1
            assert h1.invariants == h1_reference(mod).invariants, (r, genus, d, mod.rank)
            if mod.rank <= 4:
                check_h1_representatives(mod, h1)
                checked += 1
    assert checked > 100


def test_h_groups_sweeps_no_kernel_generator_matrix(monkeypatch):
    # one sweep each of d0, d1 and the relation matrix of H^1: H^1's
    # generator solver and H^2 are read off d1's sweep, and the generator
    # matrix of ker d1 is never swept; a second call sweeps only the
    # relation matrix again
    v = gen_random_flag(3, 2, 3, 2, seed=7).as_module()
    mod = hom_module(v, v)
    cx = CochainComplex(mod)  # a fresh complex: no solver built yet
    swept, smith = [], zmod.smithify
    record = lambda a: swept.append(a) or smith(a)
    monkeypatch.setattr(cohomology, "complex_of", lambda m: cx)
    monkeypatch.setattr(cohomology, "smithify", record)
    monkeypatch.setattr(zmod, "smithify", record)
    rep = h_groups(mod)
    gens = [vec for vec, _ in cx.d1_solver.kernel()]
    assert len(swept) == 3 and swept[0] is cx.d0 and swept[1] is cx.d1
    # one copy of each differential: the solvers keep the complex's columns
    assert cx.d0_solver.columns is cx.d0.columns and cx.d1_solver.columns is cx.d1.columns
    assert swept[2].rows == len(gens) < cx.d1.cols
    assert rep.h1.invariants == h1_reference(mod).invariants
    swept.clear()
    assert h_groups(mod) == rep
    assert len(swept) == 1 and swept[0].rows == len(gens), "d0 and d1 are not swept again"


def test_genus_10_rank_16_adjoint_rung():
    # the top rung of the North star: H^1 of a genus-10 rank-16 adjoint module
    v = gen_random_flag(3, 2, 4, 10, kind="any", seed=1).as_module()
    mod = hom_module(v, v)
    rep = h_groups(mod)
    h0, h1, h2 = rep.h0.invariants, rep.h1.invariants, rep.h2.invariants
    assert h1 == h1_reference(mod).invariants
    assert h2 == h0
    # Euler characteristic: |H^0| |H^2| / |H^1| = |M|^(2 - 2g)
    assert sum(h0) - sum(h1) + sum(h2) == (2 - 2 * 10) * 16 * 2


# -- class equality and representatives ----------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_class_equality_matches_the_howell_reference(p):
    # flag modules and their adjoints, r 1-3: each u is paired with u plus
    # a coboundary, and with u plus a random cocycle (degree 1) or cochain
    # (degree 2) and p times one; == must agree with the reference's coset
    # test on every pair
    rng = random.Random(p)
    verdicts = {1: [], 2: []}
    for r, d, kind in itertools.product((1, 2, 3), (2, 3), ("any", "kummer")):
        v = gen_random_flag(p, r, d, 1, kind=kind, seed=r + d).as_module()
        for mod in (v, hom_module(v, v)):
            cx = complex_of(mod)
            cochain = lambda n: [rng.randrange(mod.ring.modulus) for _ in range(n)]
            for degree, lower in ((1, cx.d0), (2, cx.d1)):
                ref = SpanReducer(mod.ring, [lower.col(j) for j in range(lower.cols)], width=lower.rows)
                draw = lambda: rand_cocycle(cx, rng) if degree == 1 else CohClass(cx, 2, cochain(mod.rank))
                for _ in range(8):
                    u = draw()
                    cob = CohClass(cx, degree, lower.apply(cochain(lower.cols)))
                    for w in (added(u, cob), added(u, draw()), added(u, scaled(draw(), p))):
                        equal = ref.reduce(u.vector) == ref.reduce(w.vector)
                        assert (u == w) == (w == u) == equal, (p, r, d, degree, u.vector, w.vector)
                        verdicts[degree].append(equal)
    assert all(seen.count(True) > 200 and seen.count(False) > 200 for seen in verdicts.values())


def test_canonical_is_the_howell_representative_of_rank_1_classes_in_degree_2():
    # every genus-1 character module over Z/2^r (r <= 3) and Z/3^r (r <= 2);
    # over Z/9 the characters (7, 1) give d1 = (0, 6), a Smith pivot 3 * 2
    # whose unit part is not 1
    corners = 0
    for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        ring = RingSpec(p, r)
        units = [a for a in range(ring.modulus) if a % p]
        for values in itertools.product(units, repeat=2):
            cx = complex_of(char_module(ring, 1, values))
            ref = SpanReducer(ring, [cx.d1.col(j) for j in range(cx.d1.cols)], width=1)
            for x in range(ring.modulus):
                assert CohClass(cx, 2, (x,)).canonical() == ref.reduce((x,)), (p, r, values, x)
            corners += (p, r, values) == (3, 2, (7, 1)) and cx.d1.col(1) == (6,)
    assert corners == 1
    ring = RingSpec(3, 2)
    with pytest.raises(ValueError):
        CohClass(complex_of(char_module(ring, 1, (7, 1))), 1, (0, 0)).canonical()
    with pytest.raises(ValueError):
        CohClass(complex_of(trivial_module(ring, 1, 2)), 2, (1, 0)).canonical()


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
    # cup is a connecting map, so coboundaries of either factor die in H^2
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
        assert is_zero(cup(cob, v)), "cup with a coboundary must vanish in H^2"
        assert cup(added(u, cob), v) == cup(u, v)
        assert cup(added(u, u2), v) == added(cup(u, v), cup(u2, v))
        m2 = tuple(rng.randrange(ring.modulus) for _ in range(b.rank))
        cob2 = CohClass(cxb, 1, cxb.d0.apply(m2))
        assert cup(u, added(v, cob2)) == cup(u, v)


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
        assert CohClass(t_ab, 2, tuple(swapped)) == scaled(uv, -1)


# sha256 over repr((vector, module)) of every cup(u, v) below: seeded cocycle
# pairs on a rank-1 flag segment, a flag module and its adjoint, all ordered
# pairs of the three; any change to the chain-level cup changes it
CUP_DIGEST = "912bb44f45c004417b47af834e05ebdb2725a0f1c7a58001a9eef8d614462149"


def test_cup_chain_level_digest():
    digest = hashlib.sha256()
    for p, r, genus in itertools.product((2, 3), (1, 2), (1, 2)):
        rng = random.Random(f"cup-{p}-{r}-{genus}")
        flag = gen_random_flag(p, r, 2, genus, seed=p + r + genus)
        mod = flag.as_module()
        mods = (flag.segment(0, 1).as_module(), mod, hom_module(mod, mod))
        for a, b in itertools.product(mods, repeat=2):
            for _ in range(2):
                c = cup(rand_cocycle(complex_of(a), rng), rand_cocycle(complex_of(b), rng))
                digest.update(repr((c.vector, c.cx.module)).encode())
    assert digest.hexdigest() == CUP_DIGEST, "chain-level cup products changed"


# -- extensions ----------------------------------------------------------------


def unipotent_rep(ring, c_x=1, c_y=0):
    a = RMatrix.from_rows(ring, [[1, c_x], [0, 1]])
    b = RMatrix.from_rows(ring, [[1, c_y], [0, 1]])
    return GModule(ring, 1, (a, b))


def test_extension_class_detects_splitting():
    ring = RingSpec(2, 2)
    nonsplit = coordinate_extension(unipotent_rep(ring, 1, 0), 1)
    assert not is_zero(extension_class(nonsplit))
    assert split_section(nonsplit) is None

    split = coordinate_extension(unipotent_rep(ring, 0, 0), 1)
    assert is_zero(extension_class(split))
    assert split_section(split) is not None

    # a nonzero but exact section defect: conjugated direct sum
    u = RMatrix.from_rows(ring, [[1, 1], [0, 1]])
    diag = RMatrix.from_rows(ring, [[1, 0], [0, 3]])
    mod = GModule(ring, 1, (u @ diag @ u.inverse(), RMatrix.identity(ring, 2)))
    ext = coordinate_extension(mod, 1)
    section = split_section(ext)
    assert section is not None, "conjugate of a direct sum splits"
    for g in range(2):
        assert ext.total.acts[g] @ section == section @ ext.quotient.acts[g]

    # the leading coordinate line is not invariant: no coordinate extension
    lower = GModule(ring, 1, (RMatrix.from_rows(ring, [[1, 0], [1, 1]]), RMatrix.identity(ring, 2)))
    with pytest.raises(ValueError, match="leading block"):
        coordinate_extension(lower, 1)


def test_split_extension_has_zero_connecting_map():
    ring = RingSpec(2, 2)
    rng = random.Random(5)
    ext = coordinate_extension(unipotent_rep(ring, 0, 0), 1)
    cxq = complex_of(ext.quotient)
    for _ in range(5):
        v = rand_cocycle(cxq, rng)
        assert is_zero(connecting(ext, v))


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
    for genus in (1, 2):
        # a rank-0 total module: no columns, an empty target, the rank-0 quotient's zero class
        ext = coordinate_extension(trivial_module(ring, genus, 0), 0)
        target = CohClass(complex_of(ext.sub), 2, ())
        eps = solve_cup(ext, target)
        assert (eps.cx, eps.degree, eps.vector) == (complex_of(ext.quotient), 1, ())
        assert connecting(ext, eps) == target


def test_solve_cup_unreachable_target_raises():
    ring = RingSpec(2, 1)
    ext = coordinate_extension(trivial_module(ring, 1, 2), 1)
    cxa = complex_of(ext.sub)
    target = CohClass(cxa, 2, (1,))
    assert not is_zero(target)
    with pytest.raises(LiftConsistencyError):
        solve_cup(ext, target)


def test_sparse_callers_build_no_dense_matrix(monkeypatch):
    # with the complexes cached, quotient_data (through h_groups), solve_cup
    # and the Kummer engine's band solve hand sparse columns to smithify
    # and build no RMatrix on the way
    v = gen_random_flag(3, 2, 3, 2, seed=7).as_module()
    mod = hom_module(v, v)
    ext = coordinate_extension(unipotent_rep(RingSpec(2, 1), 1, 1), 1)
    cxq = complex_of(ext.quotient)
    targets = [connecting(ext, rand_cocycle(cxq, random.Random(s))) for s in range(4)]
    want = h_groups(mod), [solve_cup(ext, t).vector for t in targets]
    ring = RingSpec(3, 2)
    bands = [
        ((2,), [(0, RMatrix.from_rows(ring, [[3, 0]])), (2, RMatrix.from_rows(ring, [[1]]))]),
        ((0,), [(1, RMatrix.from_rows(ring, [[10]]))]),
    ]

    def build(*args, **kwargs):
        raise AssertionError("a matrix was built")

    with monkeypatch.context() as patch:
        patch.setattr(zmod, "_trusted_matrix", build)
        patch.setattr(RMatrix, "__post_init__", build)
        got = h_groups(mod), [solve_cup(ext, t).vector for t in targets]
        x = _solve_bands(ring, 3, bands)
    assert got == want
    assert x is not None and (3 * x[0] + x[2]) % 9 == 2 and x[1] == 0


def rand_block_module(ring, genus, n, n_sub, rng):
    """Module acting by [[A, X], [0, C]] blocks; each handle by one matrix and a power."""
    acts = []
    for _ in range(genus):
        a, c = rand_invertible(ring, n_sub, rng), rand_invertible(ring, n - n_sub, rng)
        m = RMatrix(
            ring,
            n,
            n,
            tuple(
                a.entry(i, j) if i < n_sub and j < n_sub
                else c.entry(i - n_sub, j - n_sub) if i >= n_sub and j >= n_sub
                else rng.randrange(ring.modulus) if i < n_sub
                else 0
                for i in range(n)
                for j in range(n)
            ),
        )
        mk = RMatrix.identity(ring, n)
        for _ in range(rng.randrange(4)):
            mk = mk @ m
        acts.extend([m, mk])
    return GModule(ring, genus, tuple(acts))


def test_coordinate_extension_matches_matrix_reference():
    rng = random.Random(61)
    verdicts, connecting_values = set(), set()
    for p, r, genus, n in itertools.product((2, 3), (1, 2), (1, 2), range(1, 6)):
        ring = RingSpec(p, r)
        for n_sub in range(n + 1):
            ext = coordinate_extension(rand_block_module(ring, genus, n, n_sub, rng), n_sub)
            a, b, c = ext.sub, ext.total, ext.quotient
            # coordinate inclusion, projection, section and retraction as matrices
            eye = RMatrix.identity(ring, n)
            lo, hi = range(n_sub), range(n_sub, n)
            iota, pi = eye.submatrix(range(n), lo), eye.submatrix(hi, range(n))
            section, retraction = eye.submatrix(range(n), hi), iota.transpose()
            vals = []
            for g in range(2 * genus):
                mg = b.acts[g] @ section @ c.inverses[g] - section
                assert (pi @ mg).is_zero()
                vals.append(hom_vec(retraction @ mg))
            cls = extension_class(ext)
            assert cls.vector == stack(vals)

            w = CohClass(complex_of(hom_module(c, a)), 1, stack(vals)).witness()
            split = split_section(ext)
            assert (split is not None) == (w is not None)
            if w is not None:
                assert split == section - iota @ hom_mat(ring, w, a.rank, c.rank)
            verdicts.add(split is not None)

            cxq = complex_of(c)
            for vec, _ in cxq.d1_solver.kernel():
                v = CohClass(cxq, 1, vec)
                lifted = [times(section, val) for val in v.values()]
                rel = crossed_value(b, lifted, Presentation(b.genus).relator())
                assert not any(times(pi, rel))
                assert connecting(ext, v).vector == times(retraction, rel)
                connecting_values.add(any(rel))
    assert verdicts == {True, False}
    assert connecting_values == {True, False}


def test_unstack_stack_roundtrip():
    vec = tuple(range(12))
    parts = unstack(vec, 3, 4)
    assert stack(parts) == vec
    with pytest.raises(ValueError):
        unstack(vec, 5, 2)
