"""Tests for gluing, lifting, and the pinned Kummer lift engine."""

import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from flaglift import lifting
from flaglift.cohomology import CohClass, LiftConsistencyError, complex_of
from flaglift.flags import Flag, KummerInconclusive, is_kummer, is_wound_kummer, segment_extension_splits
from flaglift.lifting import (
    NoKummerLift,
    glue,
    gluift,
    lift_h1_class,
    lift_kummer,
    lift_kummer_truncation,
    lift_rep,
    lift_wound_kummer,
    relator_defect,
)
from flaglift.oracle import brute_glue, brute_lift, gen_random_flag
from flaglift.repfile import save_rep
from flaglift.stats import session
from flaglift.surface import RelatorError
from flaglift.zmod import RingSpec, RMatrix, teichmuller
from kummer_system_reference import reference_systems


def flag_g1(ring, rows_x, rows_y):
    return Flag.from_rows(ring, 1, [rows_x, rows_y])


def corner_flag(ring, ax, ay):
    return flag_g1(ring, [[1, ax], [0, 1]], [[1, ay], [0, 1]])


def rand_kummer_flag(rng, p, r, d, genus):
    """Random upper-unipotent Kummer flag, or None if the search misses."""
    ring = RingSpec(p, r)
    for _ in range(4000):
        ent = [
            [
                [1 if i == j else (rng.randrange(ring.modulus) if j > i else 0) for j in range(d)]
                for i in range(d)
            ]
            for _ in range(2)
        ]
        x = RMatrix.from_rows(ring, ent[0])
        y = RMatrix.from_rows(ring, ent[1])
        mats = (x, y) if genus == 1 else (x, y, y, x)
        try:
            f = Flag(ring, genus, mats)
        except RelatorError:
            continue
        if is_kummer(f).ok:
            return f
    return None


def test_relator_defect_vanishes_on_valid_reps():
    ring = RingSpec(3, 2)
    f = flag_g1(ring, [[1, 2, 1], [0, 1, 4], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    assert relator_defect(ring, 1, f.mats).to_lists() == [[0] * 3] * 3


def test_glue_obstruction_frozen_verdicts():
    ring = RingSpec(2, 1)
    res = glue(corner_flag(ring, 0, 1), corner_flag(ring, 1, 0))
    assert not res.glued and res.obstruction.vector == (1,)
    res = glue(corner_flag(ring, 1, 1), corner_flag(ring, 1, 1))
    assert res.glued
    out = res.flag
    assert out.truncate() == corner_flag(ring, 1, 1)
    assert out.quotient_by_first() == corner_flag(ring, 1, 1)
    ring3 = RingSpec(3, 1)
    res = glue(corner_flag(ring3, 0, 1), corner_flag(ring3, 1, 0))
    assert not res.glued and res.obstruction.vector == (2,)


def test_glue_rejects_overlap_mismatch():
    ring = RingSpec(2, 1)
    f3 = flag_g1(ring, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        glue(f3, f3.truncate())  # dimension mismatch
    e = flag_g1(ring, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f4 = flag_g1(ring, [[1, 0, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        glue(e, f4)


def test_glue_and_gluift_reject_zero_dimensional_parts():
    ring, up = RingSpec(2, 1), RingSpec(2, 2)
    empty = Flag(ring, 1, (RMatrix.zeros(ring, 0, 0),) * 2)
    empty_up = Flag(up, 1, (RMatrix.zeros(up, 0, 0),) * 2)
    # the dimension is checked before the overlap, which a 0-flag does not have
    for build in (glue, brute_glue):
        with pytest.raises(ValueError, match="^glue parts must have dimension at least 1$"):
            build(empty, empty)
    with pytest.raises(ValueError, match="^glue parts must have dimension at least 1$"):
        gluift(empty_up, empty_up, Flag.from_rows(ring, 1, [[[1]], [[1]]]))
    with pytest.raises(ValueError, match="^glue parts must have dimension one below the base$"):
        gluift(empty_up, empty_up, empty)


def test_lift_rep_round_trip_and_characters():
    ring = RingSpec(3, 1)
    f = flag_g1(ring, [[2, 1], [0, 1]], [[2, 1], [0, 1]])
    res = lift_rep(f, [[8, 8], [1, 1]])  # Teichmuller lifts: 8 = 2^3 mod 9
    assert res.lifted
    out = res.flag
    assert out.reduce_to(1) == f
    assert out.char(1) == (8, 8) and out.char(2) == (1, 1)
    res2 = lift_rep(f, [[2, 2], [1, 1]])  # least-residue character lift
    assert res2.lifted and res2.flag.char(1) == (2, 2)


def test_lift_rep_is_unobstructed_at_small_unipotent_sizes():
    # frozen fact: exhaustive search found no obstructed instance here,
    # matching the brute-force oracle's verdicts
    rng = random.Random(5)
    ring = RingSpec(2, 1)
    made = 0
    while made < 30:
        f = rand_kummer_flag(rng, 2, 1, 3, 1)
        res = lift_rep(f, [[1, 1]] * 3)
        assert res.lifted and res.flag.reduce_to(1) == f
        made += 1


def test_gluift_pins_both_parts():
    ring = RingSpec(2, 1)
    base = corner_flag(ring, 1, 0)
    up = RingSpec(2, 2)
    one = Flag.from_rows(up, 1, [[[1]], [[1]]])
    res = gluift(one, one, base)
    assert res.lifted
    out = res.flag
    assert out.reduce_to(1) == base
    assert out.truncate() == one and out.quotient_by_first() == one


def test_lift_wound_kummer_tower():
    ring = RingSpec(2, 1)
    f = flag_g1(ring, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_wound_kummer(f)
    cur = f
    for r in (1, 2):
        res = lift_wound_kummer(cur)
        assert res.flag.reduce_to(r) == cur
        assert is_wound_kummer(res.flag)
        cur = res.flag


def test_lift_wound_kummer_adjustment_path():
    # first glue attempt is obstructed; the corner twist must repair it
    ring = RingSpec(3, 1)
    f = flag_g1(ring, [[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    assert is_wound_kummer(f)
    res = lift_wound_kummer(f)
    assert res.adjusted
    assert res.flag.reduce_to(1) == f and is_wound_kummer(res.flag)
    res2 = lift_wound_kummer(res.flag)
    assert not res2.adjusted and is_wound_kummer(res2.flag)


def test_lift_kummer_all_split_and_wound_shapes():
    ring = RingSpec(3, 1)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    out = lift_kummer(flag_g1(ring, eye, eye))
    assert out.mats[0].to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ring2 = RingSpec(2, 1)
    wound = flag_g1(ring2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], eye)
    out = lift_kummer(wound)
    assert out.reduce_to(1) == wound and is_kummer(out).ok


def test_lift_kummer_interior_split_shape():
    ring = RingSpec(3, 1)
    f = flag_g1(ring, [[1, 0, 1], [0, 1, 1], [0, 0, 1]], [[1, 0, 1], [0, 1, 2], [0, 0, 1]])
    out = lift_kummer(f)
    assert out.reduce_to(1) == f and is_kummer(out).ok
    out2 = lift_kummer(out)
    assert out2.reduce_to(2) == out and is_kummer(out2).ok


def test_lift_kummer_section_incompatible_instance():
    # pinned Kummer lifts exist but no equivariant section of the split
    # step is shared between the truncation lift and the quotient lift, so
    # any split-off-and-reassemble scheme dies here; the torsor engine must
    # handle it
    ring = RingSpec(3, 1)
    f = flag_g1(
        ring,
        [[1, 2, 1, 0], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 1]],
        [[1, 2, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
    )
    assert is_kummer(f).ok
    out = lift_kummer(f)
    assert out.reduce_to(1) == f and is_kummer(out).ok
    assert lift_kummer(f) == out, "engine output is deterministic"
    out2 = lift_kummer(out)
    assert out2.reduce_to(2) == out and is_kummer(out2).ok


def test_lift_kummer_pins_supplied_quotient_part():
    ring = RingSpec(2, 1)
    f = flag_g1(ring, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    sharp = lift_kummer(f.quotient_by_first())
    out = lift_kummer_truncation(f.dual(), sharp.dual()).dual()
    assert out.quotient_by_first() == sharp
    assert out.reduce_to(1) == f and is_kummer(out).ok


def test_lift_kummer_validates_inputs():
    ring = RingSpec(2, 2)
    bad = flag_g1(ring, [[1, 0, 2], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not Kummer"):
        lift_kummer(bad)
    nontrivial = flag_g1(RingSpec(3, 1), [[2, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="not Kummer: character of piece 1 is nontrivial"):
        lift_kummer(nontrivial)
    ring1 = RingSpec(2, 1)
    f = flag_g1(ring1, [[1, 1], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="dimension"):
        lift_kummer_truncation(f.dual(), lift_kummer(f).dual())
    nonreducing = Flag.from_rows(RingSpec(2, 2), 1, [[[1]], [[1]]])
    g = flag_g1(ring1, [[1, 1], [0, 1]], [[1, 1], [0, 1]])
    assert lift_kummer_truncation(g.dual(), nonreducing.dual()).dual().quotient_by_first() == nonreducing


def test_lift_kummer_truncation_pins_truncation():
    ring = RingSpec(3, 1)
    f = flag_g1(ring, [[1, 1, 2], [0, 1, 1], [0, 0, 1]], [[1, 2, 2], [0, 1, 2], [0, 0, 1]])
    assert is_kummer(f).ok
    flat = lift_kummer_truncation(f.truncate())
    out = lift_kummer_truncation(f, flat)
    assert out.truncate() == flat
    assert out.reduce_to(1) == f and is_kummer(out).ok


def test_lift_kummer_modes_agree_through_duality():
    rng = random.Random(11)
    for (p, d) in ((2, 3), (3, 3), (2, 4)):
        f = rand_kummer_flag(rng, p, 1, d, 1)
        via_dual = lift_kummer(f.dual()).dual()
        direct = lift_kummer_truncation(f)
        assert via_dual == direct
        assert direct.reduce_to(1) == f and is_kummer(direct).ok


def test_lift_h1_class_zero_and_spanning_set():
    for (p, r, d) in ((2, 2, 2), (3, 2, 3), (2, 3, 3)):
        rng = random.Random(100 * p + 10 * r + d)
        f = rand_kummer_flag(rng, p, r, d, 1)
        bar = f.reduce_to(1)
        cx1 = complex_of(bar.as_module())
        zero = CohClass(cx1, 1, (0,) * (2 * d))
        assert lift_h1_class(f, zero).witness() is not None
        cxr = complex_of(f.as_module())
        for vec, _ in cx1.d1_solver.kernel():
            up = lift_h1_class(f, CohClass(cx1, 1, vec))
            assert up.degree == 1
            assert cxr.d1.apply(up.vector) == (0,) * d, "output is a cocycle"
            assert tuple(v % p for v in up.vector) == vec


def test_truncated_splitting_grid_is_inconclusive(monkeypatch):
    f = gen_random_flag(2, 1, 3, 1, kind="kummer", seed=0)
    assert lift_kummer(f).reduce_to(1) == f
    monkeypatch.setattr(lifting, "_SPLITTING_GRID_CAP", 0)
    # a fresh session: a kept lift would not reach the capped search
    with session(), pytest.raises(KummerInconclusive) as exc:
        lift_kummer(f)
    assert not isinstance(exc.value, LiftConsistencyError), "a cut search is not obstructed"


def test_a_kummer_flag_over_z4_with_no_kummer_lift():
    # is_kummer checks each split step on its own; no lift to Z/8 keeps the
    # mod-2 split steps (0,2,3) and (1,2,4) split together, so the engine's
    # "no pinned lift" verdict is right and the flag has no Kummer lift
    f = gen_random_flag(2, 2, 4, 1, kind="kummer", seed=25003)
    assert is_kummer(f)
    for engine in (lift_kummer, lift_kummer_truncation):
        with pytest.raises(NoKummerLift):
            engine(f)
    # one base-2 digit at scale 4 per strictly upper entry of each generator:
    # 2^12 = 4096 candidates over Z/8
    d = f.d
    lifts = brute_lift(f)
    assert len(lifts) == 1024 and all(lift.reduce_to(2) == f for lift in lifts)
    assert not any(is_kummer(lift) for lift in lifts)
    bar = f.reduce_to(1)
    steps = [s for s in itertools.combinations(range(d + 1), 3) if segment_extension_splits(bar, *s)]
    assert steps == [(0, 2, 3), (1, 2, 3), (1, 2, 4)]
    kept = {s: {n for n, x in enumerate(lifts) if segment_extension_splits(x, *s)} for s in steps}
    assert [len(kept[s]) for s in steps] == [256, 512, 256]
    assert not kept[(0, 2, 3)] & kept[(1, 2, 4)]


# genus-1, r = 1 flags (p, x1, y1) whose pinned lifts meet split (0,1,k) steps
# and (0,j,k) sigma pairs in one joint system
_MIXED_SPLIT_FLAGS = [
    (2, [[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
     [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
    (2, [[1, 0, 0, 0, 1], [0, 1, 1, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
     [[1, 0, 1, 1, 1], [0, 1, 1, 1, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]),
    (2, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
     [[1, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    (3, [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
     [[1, 0, 2, 0, 2], [0, 1, 0, 0, 2], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    (3, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
     [[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    (3, [[1, 0, 1, 0, 2], [0, 1, 0, 0, 0], [0, 0, 1, 0, 2], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
     [[1, 0, 0, 0, 2], [0, 1, 0, 0, 2], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
]


def test_lift_kummer_mixed_split_conditions_digest():
    # sha256 over save_rep of two quotient-pinned levels and one
    # truncation-pinned level per flag; any change to the joint system's
    # solution changes it
    digest = hashlib.sha256()
    for p, x1, y1 in _MIXED_SPLIT_FLAGS:
        f = flag_g1(RingSpec(p, 1), x1, y1)
        once = lift_kummer(f)
        for out in (once, lift_kummer(once), lift_kummer_truncation(f)):
            digest.update(save_rep(out).encode())
    assert digest.hexdigest() == "1baef64ec6cb37e492fbae9115f88162668be5964b5e96d75c534a3923f07ff2"


def test_kummer_engine_solves_the_row_by_row_reference_systems(monkeypatch):
    # every joint system the block engine solves, columns and right-hand
    # side, is the one the row-by-row assembly builds at the same grid
    # point; the engine stops at the first solvable one
    calls = []
    kummerize, smithify = lifting._kummerize_pinned, lifting.smithify

    def record_call(f, o0, torsor):
        calls.append((f, o0, []))
        return kummerize(f, o0, torsor)

    def record_solve(mat):
        solver = smithify(mat)

        def solve(b):
            x = solver.solve(b)
            calls[-1][2].append(((mat.rows, mat.columns, tuple(b)), x is not None))
            return x

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(lifting, "_kummerize_pinned", record_call)
    monkeypatch.setattr(lifting, "smithify", record_solve)
    # a fresh session, so that no lift kept by an earlier test is skipped
    with session():
        for p, x1, y1 in _MIXED_SPLIT_FLAGS:
            f = flag_g1(RingSpec(p, 1), x1, y1)
            lift_kummer(lift_kummer(f))
            lift_kummer_truncation(f)
        # the inputs of acceptance criteria 5 and 9
        for p, genus, d, r, seed in itertools.product((2, 3), (1, 2), (2, 3, 4), (1, 2), range(5)):
            lift_kummer(gen_random_flag(p, r, d, genus, kind="kummer", seed=seed))
        for p, genus, d, r, seed in itertools.product((2, 3), (1, 2), (2, 3), (1, 2), (10, 11)):
            f = gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
            lift_kummer(f)
            lift_kummer_truncation(f)
            lift_kummer_truncation(f.dual())
    assert sum(len(solved) > 1 for _, _, solved in calls) > 0, "some call must try several grid points"
    for f, o0, solved in calls:
        systems = [system for system, _ in solved]
        assert systems == list(itertools.islice(reference_systems(f, o0), len(systems)))
        assert [ok for _, ok in solved] == [False] * (len(solved) - 1) + [True]


# -- the boundary of the obstruction-free engines ------------------------------------


@pytest.mark.parametrize("p, r, genus", [(2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_engines_lift_d_le_1_to_the_teichmuller_diagonal(p, r, genus):
    ring, up = RingSpec(p, r), RingSpec(p, r + 1)
    n_gens = 2 * genus
    trivial = [Flag.from_rows(ring, genus, [[]] * n_gens), Flag.from_rows(ring, genus, [[[1]]] * n_gens)]
    engines = [lift_kummer, lift_kummer_truncation, lambda f: lift_wound_kummer(f).flag]
    for f in trivial:
        for lift in engines:
            out = lift(f)
            assert out.ring == up and out.reduce_to(r) == f
            assert out.mats == (RMatrix.identity(up, f.d),) * n_gens
    chars = [teichmuller(ring, 1 + g % (p - 1)) for g in range(n_gens)]
    line = Flag.from_rows(ring, genus, [[[c]] for c in chars])
    res = lift_wound_kummer(line)
    assert not res.adjusted and res.flag.reduce_to(r) == line
    assert res.flag.chars() == (tuple(teichmuller(up, c) for c in chars),)


# the frozen criterion-6 flag: wound, and Kummer since r = 1
_FROZEN_WOUND = ([[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]])


def test_pinned_parts_are_checked_at_the_boundary():
    f = flag_g1(RingSpec(3, 1), *_FROZEN_WOUND)
    engines = [
        (
            lift_kummer_truncation,
            "truncation",
            lift_kummer_truncation(f.truncate()),
            lift_kummer(f.quotient_by_first()),
        ),
        (
            lambda f, pinned: lift_wound_kummer(f, pinned).flag,
            "truncation",
            lift_wound_kummer(f.truncate()).flag,
            lift_wound_kummer(f.quotient_by_first()).flag,
        ),
    ]
    for lift, name, good, other in engines:
        assert lift(f, good).reduce_to(1) == f
        assert other != good and other.ring == good.ring and other.d == good.d
        for wrong, message in [
            (good.reduce_to(1), f"^{name} part must live one level above with dimension d-1$"),  # ring
            (lift(f, good), f"^{name} part must live one level above with dimension d-1$"),  # dimension
            (other, f"^{name} part must lift the {name} of the input$"),  # reduction
        ]:
            with pytest.raises(ValueError, match=message):
                lift(f, wrong)
    # reduces correctly, but the character 4 of x1 is not trivial mod 9
    for lift, name, good, _ in engines[:1]:
        x1, y1 = good.mats
        bad = Flag(good.ring, 1, (x1.scale(4), y1))
        assert bad.reduce_to(1) == good.reduce_to(1) and not is_kummer(bad).ok
        with pytest.raises(ValueError, match=f"^{name} part is not Kummer: "):
            lift(f, bad)


@pytest.mark.parametrize("r", [1, 2])
def test_a_0_flag_rejects_a_pinned_part_by_name(r):
    # a 0-flag has no truncation or quotient: the pinned part has the wrong dimension
    f = Flag.from_rows(RingSpec(2, r), 1, [[]] * 2)
    up = RingSpec(2, r + 1)
    pinned = [Flag.from_rows(up, 1, [[]] * 2), Flag.from_rows(up, 1, [[[1]]] * 2)]
    engines = [
        (lift_kummer_truncation, "truncation"),
        (lambda f, pinned: lift_wound_kummer(f, pinned).flag, "truncation"),
    ]
    for lift, name in engines:
        for part in pinned:
            with pytest.raises(ValueError, match=f"^{name} part must live one level above with dimension d-1$"):
                lift(f, part)


def test_lift_wound_kummer_rejects_a_pinned_truncation_that_is_not_wound_kummer():
    # reduces correctly, but x1 scaled by 4 makes its characters non-Teichmuller;
    # the glue of such a part is obstructed, which must not read as an obstruction
    f = flag_g1(RingSpec(3, 1), *_FROZEN_WOUND)
    flat = lift_wound_kummer(f.truncate()).flag
    x1, y1 = flat.mats
    bad = Flag(flat.ring, 1, (x1.scale(4), y1))
    assert bad.reduce_to(1) == f.truncate() and not is_wound_kummer(bad)
    with pytest.raises(ValueError, match="not wound"):
        lift_wound_kummer(f, bad)


# -- the session's lifts table ------------------------------------------------------


def test_a_warm_truncation_lift_reads_the_kept_lift(monkeypatch):
    # lift_kummer_truncation(f.dual()) is lift_kummer(f) through duality: after
    # lift_kummer(f) its engine reads every level from the table
    f = gen_random_flag(2, 1, 3, 1, kind="kummer", seed=5)
    with session():
        fresh = lift_kummer_truncation(f.dual())
    calls = []
    with session() as s:
        lift_kummer(f)
        before = s.summary()
        for name in ("_kummerize_pinned", "split_section"):
            engine = getattr(lifting, name)
            monkeypatch.setattr(lifting, name, lambda *a, name=name, engine=engine: calls.append(name) or engine(*a))
        assert lift_kummer_truncation(f.dual()) == fresh
        after = s.summary()
    assert calls == []
    assert after["lifts"]["misses"] == before["lifts"]["misses"]
    assert after["lifts"]["hits"] == before["lifts"]["hits"] + f.d
    # the boundary still decides the dual input and the output anew
    assert after["kummer"]["misses"] == before["kummer"]["misses"] + 2


def test_each_pinned_part_keeps_its_own_lift():
    # four Kummer lifts of the quotient, each pinned in turn in one session:
    # a table that keyed on the flag alone would hand back the first one
    f = gen_random_flag(2, 1, 3, 1, kind="kummer", seed=1)
    q = f.quotient_by_first()
    with session():
        default = lift_kummer(q)
        sharps = [default] + [g for g in brute_lift(q) if g != default and is_kummer(g).ok]
    pinned = lambda sharp: lift_kummer_truncation(f.dual(), sharp.dual()).dual()
    fresh = []
    for sharp in sharps:
        with session():
            fresh.append(pinned(sharp))
    assert len(sharps) == 4 and [out.quotient_by_first() for out in fresh] == sharps
    with session() as s:
        assert lift_kummer(f) == fresh[0]
        assert [pinned(sharp) for sharp in sharps] == fresh
    assert sum(key[1] == f for key in s.lifts.entries) == 4


def test_a_dead_end_raises_on_every_call_and_is_not_kept(monkeypatch):
    f = gen_random_flag(2, 2, 4, 1, kind="kummer", seed=25003)
    tried = []
    kummerize = lifting._kummerize_pinned
    monkeypatch.setattr(lifting, "_kummerize_pinned", lambda g, *a: tried.append(g) or kummerize(g, *a))
    with session() as s:
        for _ in range(2):
            for engine in (lift_kummer, lift_kummer_truncation):
                with pytest.raises(NoKummerLift):
                    engine(f)
    # the failing step runs again on every call; the pinned parts it was given are kept
    assert tried.count(f) == 2 and tried.count(f.dual()) == 2
    kept = [flag for _, flag, _ in s.lifts.entries]
    assert f not in kept and f.dual() not in kept
    assert f.quotient_by_first() in kept and f.dual().quotient_by_first() in kept


def test_a_flag_both_engines_lift_keeps_one_entry_per_engine():
    f = flag_g1(RingSpec(3, 1), *_FROZEN_WOUND)
    with session():
        kummer = lift_kummer(f)
    with session():
        wound = lift_wound_kummer(f)
    with session() as s:
        for _ in range(2):
            assert lift_kummer(f) == kummer
            assert lift_wound_kummer(f) == wound
    # the trivial 1-flag is a piece of both lifts, kept once under each engine
    assert {key[0] for key in s.lifts.entries} == {lifting._kummer_step, lifting._wound_step}
    assert sorted(key[0].__name__ for key in s.lifts.entries if key[1].d == 1) == ["_kummer_step", "_wound_step"]
