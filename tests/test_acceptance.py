"""Acceptance gate: the nine end-to-end checks with their stated budgets.

Each test prints exactly one summary line (pass/fail, scale, timing) to the
terminal and hard-asserts the criterion; zero-failure criteria count every
instance and never soften an error into a skip.
"""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from flaglift.cohomology import CohClass, complex_of, demushkin_report, h_groups
from flaglift.flags import Flag, is_kummer, is_wound_kummer
from flaglift.lifting import (
    glue,
    least_char_lift,
    lift_h1_class,
    lift_kummer,
    lift_kummer_truncation,
    lift_rep,
    lift_wound_kummer,
    relator_defect,
)
from flaglift.localfield import (
    check_no_cyclotomic_lift,
    hilbert,
    non_liftable_classes,
    square_class,
)
from flaglift.oracle import (
    brute_coboundaries,
    brute_cocycles,
    brute_glue,
    brute_h1,
    brute_lift,
    gen_random_flag,
    unipotent_pool,
)
from flaglift.repfile import save_rep
from flaglift.surface import GModule, RelatorError, char_module, trivial_module
from flaglift.zmod import RingSpec, RMatrix, teichmuller


# sha256 over save_rep of every lifted flag, in battery order; any change to
# an engine's output, however small, changes these digests
LIFT_DIGESTS = {
    5: "b3cc2af1e7d124e631d3db7c1475014ad99c479cc77d9eb738932ccafad9a506",
    6: "65d2c9c38805adcd9d3718c3a8bc257c87342d9a9a1d7f595d69ea47105bc364",
    9: "a325a0db644d5a030e83c03dd96c0b42352c267e09487f1c98634975e58b5633",
}


def _fold(digest, flag) -> None:
    digest.update(save_rep(flag).encode())


def _emit(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_surface_cohomology_exactness(capsys):
    t0 = time.monotonic()
    failures = []
    cases = 0
    for genus in (1, 2, 3):
        for p in (2, 3):
            for s in (1, 2, 3):
                report = h_groups(trivial_module(RingSpec(p, s), genus, 1))
                cases += 1
                if report.h1.invariants != (s,) * (2 * genus):
                    failures.append(f"H1 at g={genus} p={p} s={s}: {report.h1.invariants}")
                if report.h2.invariants != (s,):
                    failures.append(f"H2 at g={genus} p={p} s={s}: {report.h2.invariants}")
    dt = time.monotonic() - t0
    ok = not failures and dt < 1.0
    _emit(capsys, 1, ok, f"{cases} coefficient shapes exact, {dt:.2f}s < 1s")
    assert not failures, failures
    assert dt < 1.0, f"runtime {dt:.2f}s exceeds 1s"


def test_criterion_2_demushkin_pairing(capsys):
    t0 = time.monotonic()
    failures = []
    cases = 0
    for genus in (1, 2, 3):
        for p in (2, 3, 5):
            report = demushkin_report(p, genus)
            cases += 1
            if report.h2_invariants != (1,):
                failures.append(f"H2 at g={genus} p={p}: {report.h2_invariants}")
            if not report.gram_invertible:
                failures.append(f"gram singular at g={genus} p={p}")
    dt = time.monotonic() - t0
    ok = not failures and dt < 1.0
    _emit(capsys, 2, ok, f"{cases} pairings invertible with dim H2 = 1, {dt:.2f}s < 1s")
    assert not failures, failures
    assert dt < 1.0, f"runtime {dt:.2f}s exceeds 1s"


def _random_modules(n: int):
    """Seeded stream of valid coefficient modules with |M|^(2g) <= 2^20."""
    rng = random.Random(20250814)
    out = []
    while len(out) < n:
        style = rng.randrange(4)
        p = rng.choice([2, 3])
        r = rng.choice([1, 2])
        ring = RingSpec(p, r)
        if style == 0:
            genus = rng.choice([1, 2])
            vals = [rng.choice([v for v in range(1, p**r) if v % p]) for _ in range(2 * genus)]
            mod = char_module(ring, genus, vals)
        elif style == 1:
            genus = rng.choice([1, 2])
            rank = rng.choice([1, 2])
            mod = trivial_module(ring, genus, rank)
        else:
            genus = 1 if style == 2 else 2
            rank = rng.choice([1, 2])

            def rnd_tri():
                ent = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    ent[i][i] = rng.choice([v for v in range(1, p**r) if v % p])
                    for j in range(i + 1, rank):
                        ent[i][j] = rng.randrange(p**r)
                return RMatrix.from_rows(ring, ent)

            x = rnd_tri()
            if genus == 1:
                mod = GModule(ring, 1, (x, x @ x))
            else:
                y = rnd_tri()
                mod = GModule(ring, 2, (x, y, y, x))
        if (p**r) ** (2 * mod.genus * mod.rank) > (1 << 20):
            continue
        out.append(mod)
    return out


def test_criterion_3_oracle_equivalence_cohomology(capsys):
    t0 = time.monotonic()
    failures = []
    mods = _random_modules(60)
    for mod in mods:
        brute = brute_h1(mod)
        engine = h_groups(mod).h1
        if brute.invariants != engine.invariants:
            failures.append(
                f"p={mod.ring.p} r={mod.ring.r} g={mod.genus} rank={mod.rank}: "
                f"brute {brute.invariants} engine {engine.invariants}"
            )
    dt = time.monotonic() - t0
    ok = not failures and dt < 120.0
    _emit(capsys, 3, ok, f"{len(mods)} random modules agree, {dt:.2f}s < 2min")
    assert not failures, failures
    assert dt < 120.0, f"runtime {dt:.2f}s exceeds 2min"


def test_criterion_4_oracle_equivalence_obstructions(capsys):
    t0 = time.monotonic()
    failures = []
    pools = {d: unipotent_pool(RingSpec(2, 1), 1, d) for d in (1, 2, 3)}
    n_lift = n_glue = 0
    for pool in pools.values():
        for f in pool:
            outcome = lift_rep(f, least_char_lift(f, 2))
            sols = brute_lift(f)
            n_lift += 1
            if outcome.lifted != bool(sols):
                failures.append(f"lift verdict differs on {[m.to_lists() for m in f.mats]}")
            elif outcome.lifted and not any(outcome.flag == s for s in sols):
                failures.append("engine lift missing from brute list")
    for pool in pools.values():
        for e in pool:
            for f in pool:
                if e.quotient_by_first() != f.truncate():
                    continue
                outcome = glue(e, f)
                sols = brute_glue(e, f)
                n_glue += 1
                if outcome.glued != bool(sols):
                    failures.append(
                        f"glue verdict differs on {[m.to_lists() for m in e.mats]} | "
                        f"{[m.to_lists() for m in f.mats]}"
                    )
                elif outcome.glued and not any(outcome.flag == s for s in sols):
                    failures.append("engine gluing missing from brute list")
    dt = time.monotonic() - t0
    ok = not failures and dt < 300.0
    _emit(
        capsys, 4, ok,
        f"exhaustive g=1 p=2 d<=3: {n_lift} lift + {n_glue} glue verdicts match, {dt:.2f}s < 5min",
    )
    assert not failures, failures
    assert dt < 300.0, f"runtime {dt:.2f}s exceeds 5min"


_GRID = [
    (p, genus, d, r, seed)
    for p in (2, 3)
    for genus in (1, 2)
    for d in (2, 3, 4)
    for r in (1, 2)
    for seed in range(5)
]


def test_criterion_5_kummer_lifting_battery(capsys):
    t0 = time.monotonic()
    failures = []
    digest = hashlib.sha256()
    for (p, genus, d, r, seed) in _GRID:
        tag = f"p={p} g={genus} d={d} r={r} seed={seed}"
        try:
            f = gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
            out = lift_kummer(f)
            _fold(digest, out)
            up = RingSpec(p, r + 1)
            if not relator_defect(up, genus, out.mats).is_zero():
                failures.append(f"{tag}: relator defect nonzero")
            if out.reduce_to(r) != f:
                failures.append(f"{tag}: output does not reduce to the input")
            if not is_kummer(out).ok:
                failures.append(f"{tag}: output is not kummer")
        except Exception as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
    dt = time.monotonic() - t0
    ok = not failures and dt < 600.0
    _emit(capsys, 5, ok, f"{len(_GRID)} seeded kummer lifts, zero failures, {dt:.2f}s < 10min")
    assert not failures, failures
    assert digest.hexdigest() == LIFT_DIGESTS[5], "kummer lifts changed"
    assert dt < 600.0, f"runtime {dt:.2f}s exceeds 10min"


def test_criterion_6_wound_lifting_battery(capsys):
    t0 = time.monotonic()
    failures = []
    adjusted_count = 0
    digest = hashlib.sha256()
    ring3 = RingSpec(3, 1)
    frozen = Flag.from_rows(
        ring3, 1, [[[1, 2, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [0, 1, 2], [0, 0, 1]]]
    )
    instances = [("frozen adjustment instance", frozen)]
    for (p, genus, d, r, seed) in _GRID:
        tag = f"p={p} g={genus} d={d} r={r} seed={seed}"
        try:
            instances.append((tag, gen_random_flag(p, r, d, genus, kind="wound-kummer", seed=seed)))
        except Exception as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
    for tag, f in instances:
        try:
            result = lift_wound_kummer(f)
            out = result.flag
            _fold(digest, out)
            r = f.ring.r
            up = RingSpec(f.ring.p, r + 1)
            if not relator_defect(up, f.genus, out.mats).is_zero():
                failures.append(f"{tag}: relator defect nonzero")
            if out.reduce_to(r) != f:
                failures.append(f"{tag}: output does not reduce to the input")
            if not is_wound_kummer(out):
                failures.append(f"{tag}: output is not wound-kummer")
            if result.adjusted:
                adjusted_count += 1
                # the adjusted parts must glue with the obstruction recomputed to zero
                recheck = glue(out.truncate(), out.quotient_by_first())
                if not recheck.glued or recheck.obstruction is not None:
                    failures.append(f"{tag}: adjusted obstruction did not recompute to zero")
        except Exception as exc:
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
    if adjusted_count < 1:
        failures.append("no instance exercised the adjustment path")
    dt = time.monotonic() - t0
    ok = not failures and dt < 600.0
    _emit(
        capsys, 6, ok,
        f"{len(instances)} wound-kummer lifts, {adjusted_count} adjustment-path, "
        f"zero failures, {dt:.2f}s < 10min",
    )
    assert not failures, failures
    assert digest.hexdigest() == LIFT_DIGESTS[6], "wound lifts changed"
    assert dt < 600.0, f"runtime {dt:.2f}s exceeds 10min"


def test_criterion_7_class_lifting_surjectivity(capsys):
    t0 = time.monotonic()
    failures = []
    fixtures = [(2, 2, 2, 1, 0), (2, 2, 3, 1, 0), (3, 2, 2, 1, 0), (3, 2, 3, 1, 0), (2, 2, 2, 2, 0)]
    n_classes_total = 0
    for (p, r, d, genus, seed) in fixtures:
        tag = f"p={p} r={r} d={d} g={genus}"
        f = gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
        v1 = f.reduce_to(1).as_module()
        # brute-force image of the reduction map on degree-1 cohomology
        reduced = np.unique(brute_cocycles(f.as_module()) % p, axis=0)
        b1 = brute_coboundaries(v1)
        closure = {((row + brow) % p).tobytes() for row in reduced for brow in b1}
        z1 = brute_cocycles(v1)
        if len(closure) != z1.shape[0]:
            failures.append(f"{tag}: image covers {len(closure)} of {z1.shape[0]} cocycles")
        # a preimage for every class in a spanning set, via the engine
        cx1 = complex_of(v1)
        shape1 = h_groups(v1).h1
        for rep in shape1.reps:
            cls = CohClass(cx1, 1, rep)
            lifted = lift_h1_class(f, cls)
            back = CohClass(cx1, 1, tuple(v % p for v in lifted.vector))
            n_classes_total += 1
            if back != cls:
                failures.append(f"{tag}: lifted class does not reduce to the input class")
    dt = time.monotonic() - t0
    ok = not failures
    _emit(
        capsys, 7, ok,
        f"{len(fixtures)} fixtures surjective, {n_classes_total} spanning classes lifted, {dt:.2f}s",
    )
    assert not failures, failures


def test_criterion_8_local_field_example(capsys):
    t0 = time.monotonic()
    failures = []
    if {c.rep for c in non_liftable_classes(2)} != {-1, -2, -5, -10}:
        failures.append("non-liftable set over Q_2 is wrong")
    for ell in (3, 7, 11):
        want = {square_class(ell, -ell), square_class(ell, ell)}
        if set(non_liftable_classes(ell)) != want:
            failures.append(f"non-liftable set over Q_{ell} is wrong")
    if hilbert(square_class(2, -2), square_class(2, -5)) != 1:
        failures.append("hilbert(-2, -5) over Q_2 is not +1")
    report = check_no_cyclotomic_lift()
    if not (report.unsat and report.assignments_checked == 32):
        failures.append("parity system is not UNSAT over 32 assignments")
    for edge in report.edges:
        rest = [e for e in report.edges if e != edge]
        parities = itertools.product((0, 1), repeat=5)
        if not any(all(xi[i - 1] != xi[j - 1] for i, j in rest) for xi in parities):
            failures.append(f"removing edge {edge} should make the system satisfiable")
    dt = time.monotonic() - t0
    ok = not failures and dt < 1.0
    _emit(capsys, 8, ok, f"square-class sets, symbol, UNSAT + minimality exact, {dt:.2f}s < 1s")
    assert not failures, failures
    assert dt < 1.0, f"runtime {dt:.2f}s exceeds 1s"


def test_criterion_9_duality_coherence(capsys):
    t0 = time.monotonic()
    failures = []
    n_invol = n_agree = 0
    digest = hashlib.sha256()
    for kind in ("any", "kummer", "wound-kummer"):
        for p in (2, 3):
            for d in (2, 3):
                for r in (1, 2):
                    f = gen_random_flag(p, r, d, 1, kind=kind, seed=31)
                    n_invol += 1
                    if f.dual().dual() != f:
                        failures.append(f"dual involution fails on {kind} p={p} d={d} r={r}")
    for p in (2, 3):
        for genus in (1, 2):
            for d in (2, 3):
                for r, seed in itertools.product((1, 2), (10, 11)):
                    tag = f"p={p} g={genus} d={d} r={r} seed={seed}"
                    f = gen_random_flag(p, r, d, genus, kind="kummer", seed=seed)
                    o_q = lift_kummer(f)
                    o_t = lift_kummer_truncation(f)
                    o_td = lift_kummer_truncation(f.dual())
                    for out in (o_q, o_t, o_td):
                        _fold(digest, out)
                    n_agree += 1
                    if o_t.reduce_to(r) != f or not is_kummer(o_t).ok:
                        failures.append(f"{tag}: truncation-mode postconditions fail")
                    if o_q.dual() != o_td:
                        failures.append(f"{tag}: modes disagree through duality")
                    if o_q.dual().dual() != o_q:
                        failures.append(f"{tag}: dual involution fails on the lift")
    dt = time.monotonic() - t0
    ok = not failures and n_agree >= 20
    _emit(
        capsys, 9, ok,
        f"involution on {n_invol} flags, modes agree through duality on {n_agree} fixtures, {dt:.2f}s",
    )
    assert not failures, failures
    assert n_agree >= 20
    assert digest.hexdigest() == LIFT_DIGESTS[9], "duality-battery lifts changed"


# sha256 over the outcome of every glue and lift_rep call below: the
# save_rep of the output, or "obstructed" with the raw obstruction vector
GLUE_LIFT_REP_DIGEST = "18c37f01de570e9320b238c4425de39e85a1f98e906a683d4927a49eb4a6def1"


def _small_flags(ring: RingSpec, d: int):
    """Every genus-1 d-flag over ``ring``."""
    q = ring.modulus
    diag = [v for v in range(q) if v % ring.p]
    n_free = d * (d - 1) // 2

    def tri(cs, bits):
        ent = [[0] * d for _ in range(d)]
        pos = 0
        for i in range(d):
            ent[i][i] = cs[i]
            for j in range(i + 1, d):
                ent[i][j] = bits[pos]
                pos += 1
        return ent

    mats = [tri(cs, bits) for cs in itertools.product(diag, repeat=d)
            for bits in itertools.product(range(q), repeat=n_free)]
    out = []
    for x, y in itertools.product(mats, repeat=2):
        try:
            out.append(Flag.from_rows(ring, 1, [x, y]))
        except RelatorError:
            continue
    return out


def test_glue_and_lift_rep_digest():
    digest = hashlib.sha256()
    counts = {"glued": 0, "lifted": 0, "obstructed": 0}

    def fold(flag, obstruction, done: str) -> None:
        if flag is not None:
            counts[done] += 1
            digest.update(save_rep(flag).encode())
        else:
            counts["obstructed"] += 1
            digest.update(f"obstructed {obstruction.vector}\n".encode())

    # criterion 4's pool: g=1, p=2, d<=3, every glue pair and every lift
    pools = [unipotent_pool(RingSpec(2, 1), 1, d) for d in (1, 2, 3)]
    # mod 3 with every unit diagonal, and Z/4, the scale-1 glue over Z/p^2
    pools += [_small_flags(RingSpec(3, 1), 2), unipotent_pool(RingSpec(2, 2), 1, 2)]
    for pool in pools:
        for e in pool:
            for f in pool:
                if e.quotient_by_first() == f.truncate():
                    out = glue(e, f)
                    fold(out.flag, out.obstruction, "glued")
    for pool in pools:
        for f in pool:
            out = lift_rep(f, least_char_lift(f, 2))
            fold(out.flag, out.obstruction, "lifted")
    # nontrivial characters: least residues and Teichmuller lifts, genus 1 and 2
    for p, r, d, genus in itertools.product((2, 3), (1, 2), (2, 3), (1, 2)):
        for seed in range(3):
            f = gen_random_flag(p, r, d, genus, kind="any", seed=seed)
            up = RingSpec(p, r + 1)
            shifted = [[v + (p**r if i == 0 else 0) for v in c] for i, c in enumerate(f.chars())]
            lifts = [least_char_lift(f, r + 1), shifted]
            if r == 1:
                lifts.append([[teichmuller(up, v) for v in c] for c in f.chars()])
            for chars in lifts:
                out = lift_rep(f, chars)
                fold(out.flag, out.obstruction, "lifted")
    assert min(counts.values()) > 0, counts
    assert digest.hexdigest() == GLUE_LIFT_REP_DIGEST, ("glue or lift_rep outputs changed", counts)
