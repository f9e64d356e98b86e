"""Tests for triangular flags: subquotients, duality, predicates, verdict memos."""

import hashlib
import itertools
import random

import pytest
from test_acceptance import _GRID, LIFT_DIGESTS
from test_zmod import unit_upper

from flaglift import flags, stats
from flaglift.cohomology import h_groups, split_section
from flaglift.flags import (
    Flag,
    char_is_teichmuller,
    index_of,
    is_kummer,
    is_wound,
    is_wound_kummer,
    splitting_indices,
)
from flaglift.lifting import lift_kummer, lift_kummer_truncation
from flaglift.oracle import gen_random_flag
from flaglift.repfile import save_rep
from flaglift.stats import current, session
from flaglift.surface import hom_module
from flaglift.zmod import RingSpec, RMatrix


def flag2(ring, ax, ay, chars=((1, 1), (1, 1))):
    """Genus-1 two-dimensional flag with corner entries ax, ay."""
    (c1x, c1y), (c2x, c2y) = chars
    x = RMatrix.from_rows(ring, [[c1x, ax], [0, c2x]])
    y = RMatrix.from_rows(ring, [[c1y, ay], [0, c2y]])
    return Flag(ring, 1, (x, y))


def flag_g1(ring, rows_x, rows_y):
    return Flag.from_rows(ring, 1, [rows_x, rows_y])


def test_flag_validation():
    ring = RingSpec(2, 2)
    with pytest.raises(ValueError):
        flag_g1(ring, [[1, 0], [1, 1]], [[1, 0], [0, 1]])
    f = flag2(ring, 1, 0)
    assert f.d == 2 and f.char(1) == (1, 1) and f.char(2) == (1, 1)


def test_segment_extraction():
    ring = RingSpec(2, 2)
    x = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    f = flag_g1(ring, x, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    t = f.truncate()
    assert t.mats[0].to_lists() == [[1, 1], [0, 1]]
    q = f.quotient_by_first()
    assert q.mats[0].to_lists() == [[1, 1], [0, 1]]
    mid = f.segment(1, 2)
    assert mid.d == 1 and mid.mats[0].to_lists() == [[1]]
    assert f.segment(0, 3) == f


def test_dual_is_an_involution_and_swaps_operations():
    ring = RingSpec(3, 2)
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randrange(1, 5)
        # random unipotent commuting pair: x arbitrary unipotent, y a power
        x = RMatrix(
            ring,
            d,
            d,
            tuple(
                1 if i == j else (rng.randrange(9) if j > i else 0)
                for i in range(d)
                for j in range(d)
            ),
        )
        k = rng.randrange(3)
        y = RMatrix.identity(ring, d)
        for _ in range(k):
            y = y @ x
        f = Flag(ring, 1, (x, y))
        assert f.dual().dual() == f
        j = RMatrix(ring, d, d, tuple(int(a + b == d - 1) for a in range(d) for b in range(d)))
        assert f.dual().mats == tuple(j @ m.transpose() @ j for m in f.inverses)
        for i in range(1, d + 1):
            chi = f.char(i)
            dual_chi = f.dual().char(d + 1 - i)
            assert all((a * b) % 9 == 1 for a, b in zip(chi, dual_chi))
        if d >= 2:
            assert f.dual().truncate() == f.quotient_by_first().dual()
            assert f.dual().quotient_by_first() == f.truncate().dual()


def test_splitting_indices_basic():
    ring = RingSpec(2, 1)
    assert splitting_indices(flag2(ring, 0, 0)) == (0, 0)
    assert splitting_indices(flag2(ring, 1, 0)) == (0, 1)
    x = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    y = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # x, y do not commute as written; use y = identity which commutes
    f = flag_g1(ring, x, y)
    assert splitting_indices(f) == (0, 1, 2)


def test_index_table_mixed():
    # corner entry on top right only: step 3 splits at 0 mod 2
    ring = RingSpec(2, 1)
    x = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    f = flag_g1(ring, x, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert index_of(f, 2) == 0
    assert index_of(f, 3) == 1  # V3/V1 = [[1,0],[0,1]] splits; V3/V0 does not


def test_is_wound():
    ring = RingSpec(2, 2)
    assert is_wound(flag2(ring, 1, 0))
    assert is_wound(flag2(ring, 1, 1))
    assert not is_wound(flag2(ring, 0, 0))
    assert not is_wound(flag2(ring, 2, 2)), "corner vanishes mod p"
    x = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert is_wound(flag_g1(ring, x, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    x = [[1, 1, 0], [0, 1, 2], [0, 0, 1]]
    assert not is_wound(flag_g1(ring, x, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_is_wound_kummer_with_teichmuller_characters():
    ring = RingSpec(3, 2)
    # scalar 8 = teichmuller(2); unipotent part keeps the 2-step nonsplit
    x = RMatrix.from_rows(ring, [[8, 8], [0, 8]])
    y = RMatrix.from_rows(ring, [[8, 0], [0, 8]])
    f = Flag(ring, 1, (x, y))
    assert is_wound(f)
    assert is_wound_kummer(f)
    # same shape with a non-Teichmuller character
    x2 = RMatrix.from_rows(ring, [[2, 2], [0, 2]])
    y2 = RMatrix.from_rows(ring, [[2, 0], [0, 2]])
    f2 = Flag(ring, 1, (x2, y2))
    assert is_wound(f2) and not is_wound_kummer(f2)
    assert is_wound_kummer(flag2(RingSpec(2, 2), 1, 1))


def test_is_kummer_characters_and_r1():
    ring1 = RingSpec(2, 1)
    x = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    y = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    f = flag_g1(ring1, x, y)
    assert is_kummer(f).ok, "mod p with trivial characters is always Kummer"
    ring = RingSpec(3, 1)
    bad = Flag(ring, 1, (RMatrix.from_rows(ring, [[1, 0], [0, 2]]), RMatrix.identity(ring, 2)))
    v = is_kummer(bad)
    assert not v.ok and "character" in v.reason
    assert char_is_teichmuller(ring, bad.char(2)), "a Teichmuller character is still not Kummer"


def test_is_kummer_two_step():
    ring = RingSpec(2, 2)
    v = is_kummer(flag2(ring, 2, 0))
    assert not v.ok and "subquotient extension (0,1,2)" in v.reason
    assert is_kummer(flag2(ring, 1, 0)).ok, "nonsplit at both levels"
    assert is_kummer(flag2(ring, 0, 0)).ok, "split at both levels"
    assert is_kummer(flag2(ring, 3, 0)).ok, "unit class stays nonsplit"


def test_is_kummer_subquotient_stability():
    ring = RingSpec(2, 2)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # every proper subquotient of f is fine; step classes are rigid enough
    f = flag_g1(ring, [[1, 0, 2], [0, 1, 1], [0, 0, 1]], eye)
    assert is_kummer(f).ok, "corner class 2 is a coboundary once the middle step is nonsplit"
    # with the middle step killed, the corner extension splits mod 2 only
    b = flag_g1(ring, [[1, 0, 2], [0, 1, 0], [0, 0, 1]], eye)
    v = is_kummer(b)
    assert not v.ok and "subquotient extension (0,2,3)" in v.reason
    g = flag_g1(ring, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], eye)
    assert is_kummer(g).ok, "wound flag: every subquotient extension is nonsplit mod p"
    assert is_kummer(flag_g1(ring, eye, eye)).ok


def test_is_kummer_direct_sum_with_nonsplit_block():
    # span(e1) + nonsplit 2-block over Z/9; sections of the split step mix
    # the summands but the coordinate subquotients are all stable
    ring = RingSpec(3, 2)
    f = flag_g1(
        ring,
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 2], [0, 0, 1]],
    )
    assert is_kummer(f).ok
    assert is_kummer(f.dual()).ok
    # perturbing the corner by 3*(1,0) breaks stability of the (0,1,3) piece
    b = flag_g1(
        ring,
        [[1, 0, 3], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 2], [0, 0, 1]],
    )
    v = is_kummer(b)
    assert not v.ok and "subquotient extension (0,1,3)" in v.reason
    # corner 3*(1,2) is 3*(step class): a coboundary, so still stable
    c = flag_g1(
        ring,
        [[1, 0, 3], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 6], [0, 1, 2], [0, 0, 1]],
    )
    assert is_kummer(c).ok


# -- split and Kummer verdicts: decided once per session ------------------------


def criterion_5_flags():
    """The Kummer flags of acceptance criterion 5, in battery order."""
    return [gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
            for (p, genus, d, r, seed) in _GRID]


def battery_digests():
    """The criterion 5 and 9 lift digests, folded as tests/test_acceptance.py does."""
    d5 = hashlib.sha256()
    for f in criterion_5_flags():
        d5.update(save_rep(lift_kummer(f)).encode())
    d9 = hashlib.sha256()
    for p, genus, d, r, seed in itertools.product((2, 3), (1, 2), (2, 3), (1, 2), (10, 11)):
        f = gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
        for out in (lift_kummer(f), lift_kummer_truncation(f), lift_kummer_truncation(f.dual())):
            d9.update(save_rep(out).encode())
    return {5: d5.hexdigest(), 9: d9.hexdigest()}


def handle_moved(flag, first):
    """``flag`` under (x1, y1) -> (x1 y1, y1) or (x1, y1) -> (x1, y1 x1), rebuilt and checked.

    Both substitutions fix x1 y1 x1^-1 y1^-1, so they are automorphisms of
    the surface group and the moved matrices satisfy the relator again.
    """
    x, y, *rest = flag.mats
    pair = (x @ y, y) if first else (x, y @ x)
    return Flag(flag.ring, flag.genus, pair + tuple(rest))


def conjugated(flag, rng):
    """``flag`` with every generator conjugated by a random invertible upper triangular T, rebuilt and checked.

    T keeps the standard flag, so this is a change of basis of the filtered module.
    """
    t = unit_upper(flag.ring, flag.d, rng)
    t_inv = t.inverse()
    return Flag(flag.ring, flag.genus, tuple(t_inv @ m @ t for m in flag.mats))


def test_invariants_and_verdicts_survive_handle_moves():
    def invariants(flag):
        mod = flag.as_module()
        reports = [h_groups(m) for m in (mod, hom_module(mod, mod))]
        groups = [(h.h0.invariants, h.h1.invariants, h.h2.invariants) for h in reports]
        return groups, is_kummer(flag), is_wound(flag)

    seen, moved_apart, conjugated_apart = set(), 0, 0
    rng = random.Random(2403)
    for p, genus, d, kind, seed in itertools.product((2, 3), (1, 2), (2, 3), ("any", "kummer"), range(2)):
        flag = gen_random_flag(p, 2, d, genus, kind=kind, seed=seed)
        before = invariants(flag)
        for first in (True, False):
            moved = handle_moved(flag, first)
            moved_apart += moved != flag
            assert invariants(moved) == before, (p, genus, d, kind, seed, first)
        based = conjugated(flag, rng)
        conjugated_apart += based != flag
        assert invariants(based) == before, (p, genus, d, kind, seed, "change of basis")
        seen.add((before[1].ok, before[2]))
    # the moves change the matrices, and the battery reaches both verdicts of each predicate
    assert moved_apart >= 60
    assert conjugated_apart >= 24  # conjugation fixes some generator tuples
    assert {k for k, _ in seen} == {True, False} and {w for _, w in seen} == {True, False}


def test_lift_digests_agree_in_a_fresh_and_a_warm_session():
    want = {n: LIFT_DIGESTS[n] for n in (5, 9)}
    with session() as s:
        assert battery_digests() == want
        decided = s.summary()
        assert decided["splits"]["hits"] > 0 and decided["kummer"]["hits"] > 0
        assert battery_digests() == want
        # the warm pass decided nothing anew
        for name, table in s.summary().items():
            assert table["misses"] == decided[name]["misses"], name
            assert table["hits"] > decided[name]["hits"], name


def test_nothing_an_inner_session_stores_survives_it():
    f = gen_random_flag(2, 2, 3, 1, kind="kummer", seed=5)
    g = gen_random_flag(3, 2, 3, 2, kind="kummer", seed=6)
    default = current()
    with session() as outer:
        assert current() is outer is not default
        assert is_kummer(f).ok
        kept = {name: dict(getattr(outer, name).entries) for name in ("splits", "kummer")}
        counts = outer.summary()
        with session() as inner:
            assert current() is inner and inner.summary()["splits"]["size"] == 0
            assert is_kummer(g).ok
            splitting_indices(g)
            assert inner.splits.summary()["size"] > 0 and inner.kummer.summary()["size"] > 0
        assert current() is outer
        assert {name: getattr(outer, name).entries for name in kept} == kept
        assert outer.summary() == counts
        with pytest.raises(RuntimeError):
            with session():
                raise RuntimeError("the previous session is restored on the way out")
        assert current() is outer
    assert current() is default


def test_a_kummer_verdict_is_true_exactly_when_ok():
    kummer = gen_random_flag(2, 2, 3, 1, kind="kummer", seed=5)
    # a nontrivial diagonal character: not Kummer
    other = Flag.from_rows(RingSpec(3, 1), 1, [[[2]], [[1]]])
    verdicts = [is_kummer(kummer), is_kummer(other)]
    assert [v.ok for v in verdicts] == [True, False]
    assert [bool(v) for v in verdicts] == [True, False]


def test_each_split_verdict_is_decided_once_per_session(monkeypatch):
    reached = []
    counted = lambda ext: reached.append(ext) or split_section(ext)
    monkeypatch.setattr(flags, "split_section", counted)  # the binding only the memo reaches
    with session() as s:
        for f in criterion_5_flags():
            assert is_kummer(lift_kummer(f)).ok
    assert s.splits.misses == s.splits.summary()["size"] == len(reached) > 0
    assert s.splits.hits > s.splits.misses


def test_an_overfilled_memo_evicts_its_oldest_entries_first(monkeypatch):
    monkeypatch.setattr(stats, "MEMO_BOUND", 4)
    memo = stats.Memo()
    for k in range(10):
        assert memo.get(k) is None
        assert memo.put(k, str(k)) == str(k)
    assert memo.summary()["size"] == stats.MEMO_BOUND == 4
    assert list(memo.entries) == [6, 7, 8, 9]
    # a hit does not refresh an entry: eviction follows insertion order
    assert [memo.get(k) for k in (9, 6, 5)] == ["9", "6", None]
    memo.put(10, "10")
    assert list(memo.entries) == [7, 8, 9, 10] and memo.summary()["size"] == 4
    assert memo.summary() == {"hits": 2, "misses": 11, "size": 4}


def test_a_bound_of_eight_changes_no_verdict(monkeypatch):
    def verdicts():
        out, sizes = [], []
        for f in criterion_5_flags():
            lifted = lift_kummer(f)
            out.append((save_rep(lifted), is_kummer(lifted), is_kummer(f),
                        splitting_indices(f), splitting_indices(f.reduce_to(1)), is_wound(f)))
            sizes.append(max(current().splits.summary()["size"], current().kummer.summary()["size"]))
        return out, max(sizes)

    with session():
        unbounded, largest = verdicts()
    assert largest > 8
    monkeypatch.setattr(stats, "MEMO_BOUND", 8)
    with session() as s:
        bounded, largest = verdicts()
    assert bounded == unbounded
    assert largest == 8 and s.splits.misses > 8 and s.kummer.misses > 8
