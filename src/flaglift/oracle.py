"""Brute-force baselines certifying the engines on tiny parameters.

Everything here recomputes from first principles: cocycles are found by
evaluating candidate crossed homomorphisms on the relator directly (no Fox
matrices), coboundaries by orbiting all module elements, group shapes by
order counting, and lift/glue existence by exhaustive candidate search.
Only ``brute_cocycles`` walks the relator on its own, in numpy.
``brute_coboundaries`` and ``brute_h1`` count in whole arrays: each row
is read as its base-m integer code, membership is ``np.isin`` on codes,
and the subgroup the representatives span is kept as rows deduplicated
on their codes.
``brute_lift`` and ``brute_glue`` accept candidates through the checked
``Flag`` constructor, so besides matrix arithmetic they share the relator
check (``surface._check_relator`` and the session's ``walks`` table) with
the engines.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .flags import Flag, is_kummer, is_wound_kummer
from .surface import GModule, Presentation, RelatorError
from .zmod import ModuleShape, RingSpec, RMatrix, smithify, teichmuller


class BudgetExceededError(RuntimeError):
    """The requested enumeration does not fit in the search budget."""


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches: enumeration count and wall time."""

    max_count: int = 1 << 20
    time_limit: float = 120.0

    def __post_init__(self) -> None:
        if self.max_count <= 0:
            raise ValueError("enumeration cap must be positive")
        if self.time_limit <= 0:
            raise ValueError("time ceiling must be positive")

    def check_count(self, n: int, what: str) -> None:
        if n > self.max_count:
            raise BudgetExceededError(f"{what}: {n} candidates exceed the cap {self.max_count}")


def _log(p: int, n: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def _all_vectors(m: int, n: int) -> np.ndarray:
    """All length-n vectors over Z/m as rows, lexicographic."""
    total = m**n
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // m ** (n - 1 - j)) % m for j in range(n)]
    if not cols:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def _np_mat(m: RMatrix) -> np.ndarray:
    return np.array(m.to_lists(), dtype=np.int64).reshape(m.rows, m.cols)


def _codes(rows: np.ndarray, m: int) -> np.ndarray:
    """Base-m integer code per row, the first column most significant.

    Codes order as the rows do, so sorting or matching codes sorts or
    matches rows.  Rows too long for an int64 code are refused.
    """
    n = rows.shape[1]
    if m**n > 1 << 63:
        raise BudgetExceededError(f"{n} digits base {m} overflow an int64 row code")
    powers = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return rows @ powers


def _unique_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """The distinct rows in ascending order, as ``np.unique(rows, axis=0)``."""
    _, first = np.unique(_codes(rows, m), return_index=True)
    return rows[first]


def brute_cocycles(module: GModule, budget: SearchBudget = SearchBudget()) -> np.ndarray:
    """All degree-1 cocycles, by evaluating candidates on the relator.

    A candidate assigns a module element to each generator; it survives iff
    walking the relator with the crossed rule f(uv) = f(u) + u.f(v) ends at
    zero.  Rows are generator-major stacked vectors.
    """
    ring = module.ring
    m = ring.modulus
    rank = module.rank
    n1 = 2 * module.genus * rank
    budget.check_count(m**n1, "cocycle enumeration")
    vecs = _all_vectors(m, n1)
    total = np.zeros((vecs.shape[0], rank), dtype=np.int64)
    prefix = np.eye(rank, dtype=np.int64)
    acts = [_np_mat(a) for a in module.acts]
    invs = [_np_mat(a) for a in module.inverses]
    for t in Presentation(module.genus).relator():
        g = abs(t) - 1
        fg = vecs[:, g * rank : (g + 1) * rank]
        if t > 0:
            total = (total + fg @ prefix.T) % m
            prefix = (prefix @ acts[g]) % m
        else:
            prefix = (prefix @ invs[g]) % m
            total = (total - fg @ prefix.T) % m
    keep = (total == 0).all(axis=1)
    return vecs[keep]


def brute_coboundaries(module: GModule, budget: SearchBudget = SearchBudget()) -> np.ndarray:
    """All degree-1 coboundaries g.v - v, unique rows, by orbiting elements."""
    ring = module.ring
    m = ring.modulus
    rank = module.rank
    budget.check_count(m**rank, "coboundary enumeration")
    elts = _all_vectors(m, rank)
    parts = [(elts @ _np_mat(a).T - elts) % m for a in module.acts]
    if not parts:
        return np.zeros((1, 0), dtype=np.int64)
    return _unique_rows(np.concatenate(parts, axis=1), m)


_REPS_CAP = 1 << 15


def brute_h1(module: GModule, budget: SearchBudget = SearchBudget()) -> ModuleShape:
    """Shape of H^1 from raw enumeration and order counting.

    Invariant exponents come from counting, for each k, the classes killed
    by p^k; this avoids any echelon-form machinery.  Representatives are
    extracted greedily by descending order relative to the subgroup built
    so far (skipped above a size cap, where only the shape is certified).
    Rows are matched by their base-m codes with ``np.isin``, and the
    subgroup is kept as rows, deduplicated on their codes.
    """
    ring = module.ring
    p, r, m = ring.p, ring.r, ring.modulus
    z = brute_cocycles(module, budget)
    b = brute_coboundaries(module, budget)
    bcodes = _codes(b, m)
    n_b = bcodes.shape[0]
    n_classes = z.shape[0] // n_b
    if n_classes * n_b != z.shape[0]:
        raise AssertionError("coboundaries must partition the cocycles evenly")
    s_prev = 0
    ge_counts = []  # ge_counts[k-1] = number of invariant exponents >= k
    for k in range(1, r + 1):
        c_k = int(np.isin(_codes((z * p**k) % m, m), bcodes).sum())
        s_k = _log(p, c_k // n_b)
        ge_counts.append(s_k - s_prev)
        s_prev = s_k
    ge_counts.append(0)
    exps: list[int] = []
    for k in range(1, r + 1):
        exps.extend([k] * (ge_counts[k - 1] - ge_counts[k]))
    invariants = tuple(sorted(exps))
    if p ** sum(invariants) != n_classes:
        raise AssertionError("order counting must recover the class count")
    reps: list[tuple[int, ...]] = []
    if z.shape[0] <= _REPS_CAP:
        closure = b
        for e in sorted(invariants, reverse=True):
            ccodes = _codes(closure, m)
            # the first row of order exactly p^e relative to the subgroup built so far
            below = np.isin(_codes((z * p ** (e - 1)) % m, m), ccodes)
            at = np.isin(_codes((z * p**e) % m, m), ccodes)
            hits = np.flatnonzero(at & ~below)
            if hits.size == 0:
                raise AssertionError("greedy generator search must succeed within the shape")
            found = z[hits[0]]
            reps.append(tuple(int(v) for v in found))
            stack = [(closure + t * found) % m for t in range(p**e)]
            closure = _unique_rows(np.concatenate(stack, axis=0), m)
        if closure.shape[0] != z.shape[0]:
            raise AssertionError("the representatives must span every class")
        reps.reverse()  # ascending order, aligned with the invariants
    return ModuleShape(invariants, tuple(reps))


def brute_lift(f: Flag, budget: SearchBudget = SearchBudget()) -> list[Flag]:
    """All lifts of a mod-p flag to mod p^2 with trivial diagonal.

    Exhausts one base-p digit per strictly-upper entry per generator and
    keeps the candidates that satisfy the relator.
    """
    ring = f.ring
    if ring.r != 1:
        raise ValueError("brute lifting starts from a mod-p flag")
    one = (1,) * (2 * f.genus)
    for i in range(1, f.d + 1):
        if f.char(i) != one:
            raise ValueError("brute lifting requires trivial diagonal characters")
    p = ring.p
    up = RingSpec(p, 2)
    d = f.d
    n_gens = 2 * f.genus
    slots = [(g, i, j) for g in range(n_gens) for i in range(d) for j in range(i + 1, d)]
    budget.check_count(p ** len(slots), "lift enumeration")
    deadline = time.monotonic() + budget.time_limit
    base = [[a.entry(i, j) if j >= i else 0 for i in range(d) for j in range(d)] for a in f.mats]
    cells = [(g, i * d + j) for g, i, j in slots]
    out = []
    for digits in _all_vectors(p, len(slots)).tolist():
        if time.monotonic() > deadline:
            raise BudgetExceededError("lift enumeration ran past the time ceiling")
        ents = [row[:] for row in base]
        for (g, k), t in zip(cells, digits):
            ents[g][k] += p * t
        try:
            out.append(Flag(up, f.genus, tuple(RMatrix(up, d, d, tuple(e)) for e in ents)))
        except RelatorError:
            continue
    return out


def brute_glue(e: Flag, f: Flag, budget: SearchBudget = SearchBudget()) -> list[Flag]:
    """All one-step gluings of overlapping flags, by exhausting the corner row.

    Candidates put e on the leading block, f on the trailing block (the
    checked overlap makes the order of the writes immaterial), and an
    arbitrary ring value in the free corner of each generator.
    """
    ring = e.ring
    if (f.ring, f.genus, f.d) != (ring, e.genus, e.d):
        raise ValueError("glue parts must share ring, genus and dimension")
    if e.d < 1:
        raise ValueError("glue parts must have dimension at least 1")
    if e.quotient_by_first() != f.truncate():
        raise ValueError("overlap mismatch: quotient of e differs from truncation of f")
    d, n_gens = e.d, 2 * e.genus
    budget.check_count(ring.modulus**n_gens, "glue enumeration")
    # each generator's entries before and after the corner (0, d), row-major
    parts = []
    for em, fm in zip(e.mats, f.mats):
        ent = [list(em.row(i)) + [0] for i in range(d)] + [[0] * (d + 1)]
        for i in range(d):
            ent[i + 1][1:] = fm.row(i)
        flat = tuple(v for row in ent for v in row)
        parts.append((flat[:d], flat[d + 1 :]))
    out = []
    for top in _all_vectors(ring.modulus, n_gens).tolist():
        mats = tuple(
            RMatrix(ring, d + 1, d + 1, head + (t,) + tail) for (head, tail), t in zip(parts, top)
        )
        try:
            out.append(Flag(ring, e.genus, mats))
        except RelatorError:
            continue
    return out


# ---------------------------------------------------------------------------
# seeded instance generation


def _random_unipotent(rng: random.Random, ring: RingSpec, d: int) -> RMatrix:
    ent = [
        [1 if i == j else (rng.randrange(ring.modulus) if j > i else 0) for j in range(d)]
        for i in range(d)
    ]
    return RMatrix.from_rows(ring, ent)


def _solve_last_generator(
    ring: RingSpec, mats: list[RMatrix], rng: random.Random, d: int
) -> RMatrix | None:
    """Random triangular Y with [A, Y] equal to the inverse of the partial relator.

    The condition A Y = Q Y A is linear in Y's upper-triangular entries; a
    random kernel element is drawn and rejected unless its diagonal is a
    unit vector.  For genus 1 this is exactly centralizer sampling.
    """
    a = mats[-1]
    acc = RMatrix.identity(ring, d)
    pairs = (len(mats) - 1) // 2
    for i in range(pairs):
        x, y = mats[2 * i], mats[2 * i + 1]
        acc = acc @ x @ y @ x.inverse() @ y.inverse()
    q = acc.inverse()
    slots = [(i, j) for i in range(d) for j in range(i, d)]
    rows = []
    for k in range(d):
        for l in range(d):
            row = []
            for (i, j) in slots:
                v = a.entry(k, i) if j == l else 0
                v -= q.entry(k, i) * a.entry(j, l)
                row.append(v % ring.modulus)
            rows.append(row)
    gens = smithify(RMatrix.from_rows(ring, rows).sparse()).on_kernel()
    vec = gens.apply([rng.randrange(ring.p ** (ring.r - e)) for e in gens.exponents])
    ent = [[0] * d for _ in range(d)]
    for (i, j), v in zip(slots, vec):
        ent[i][j] = v
    if any(ent[i][i] % ring.p == 0 for i in range(d)):
        return None
    return RMatrix.from_rows(ring, ent)


def gen_random_flag(
    p: int,
    r: int,
    d: int,
    genus: int,
    kind: str = "any",
    seed: int = 0,
    attempts: int = 4000,
) -> Flag:
    """Seeded random flag of the requested kind.

    2g-1 generators are sampled freely triangular-unipotent and the last is
    solved from the relator (a linear condition), then the kind predicate
    is rejection-checked; 'kummer' additionally forces a unipotent last
    generator and 'wound-kummer' a Teichmuller diagonal.
    """
    if kind not in ("any", "kummer", "wound-kummer"):
        raise ValueError(f"unknown kind {kind!r}")
    ring = RingSpec(p, r)
    rng = random.Random(f"flaglift-{p}-{r}-{d}-{genus}-{kind}-{seed}")
    for _ in range(attempts):
        mats = [_random_unipotent(rng, ring, d) for _ in range(2 * genus - 1)]
        last = _solve_last_generator(ring, mats, rng, d)
        if last is None:
            continue
        if kind in ("kummer", "wound-kummer"):
            diag = [last.entry(i, i) for i in range(d)]
            if kind == "kummer" and any(v != 1 for v in diag):
                continue
            if kind == "wound-kummer" and any(v != teichmuller(ring, v % p) for v in diag):
                continue
        try:
            f = Flag(ring, genus, tuple(mats + [last]))
        except RelatorError:
            continue
        if kind == "kummer" and not is_kummer(f).ok:
            continue
        if kind == "wound-kummer" and not is_wound_kummer(f):
            continue
        return f
    raise BudgetExceededError(
        f"no {kind} flag found for p={p} r={r} d={d} genus={genus} seed={seed} "
        f"within {attempts} attempts"
    )
