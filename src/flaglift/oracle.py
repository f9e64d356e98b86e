"""Brute-force baselines certifying the engines on tiny parameters.

Everything here recomputes from first principles: cocycles are found by
evaluating candidate crossed homomorphisms on the relator directly (no Fox
matrices), coboundaries by orbiting all module elements, group shapes by
order counting, and lift/glue existence by exhaustive candidate search.
No search enumerates more than ``MAX_CANDIDATES`` (2^20) candidates.
The searches walk the relator on their own, in numpy, and share no check
with the engines.  ``brute_cocycles`` walks it over every candidate
cocycle.  ``brute_lift`` (from any level r to r + 1), ``brute_glue`` and
``unipotent_pool`` (the exhaustive pools the checks run on) decide every
candidate flag in whole int64 arrays: the candidates are stacked in
chunks of ``_CHUNK``, inverted in one batch by a Neumann series of their
nilpotent part (checked against the identity), and walked along the
relator; only the survivors become flags, built by ``surface._trusted``
with the batch's inverses, so neither ``surface._check_relator`` nor the
session's ``walks`` table sees them.  Rings and dimensions whose int64
products could overflow are refused.
``brute_coboundaries`` and ``brute_h1`` count in whole arrays: each row
is read as its base-m integer code, coboundaries are deduplicated on
their codes, and membership is ``np.isin`` on codes.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .flags import Flag, is_kummer, is_wound_kummer
from .surface import GModule, Presentation, _trusted
from .zmod import ModuleShape, RingSpec, RMatrix, smithify, teichmuller


class BudgetExceededError(RuntimeError):
    """The requested enumeration exceeds the candidate cap, the time ceiling or int64."""


# Wall-time ceiling, in seconds, of one lift or glue search, and the
# enumeration cap of every exhaustive search.  Both are read at call time.
_TIME_CEILING = 120.0
MAX_CANDIDATES = 1 << 20


def _check_count(n: int, what: str) -> None:
    if n > MAX_CANDIDATES:
        raise BudgetExceededError(f"{what}: {n} candidates exceed the cap {MAX_CANDIDATES}")


def _log(p: int, n: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def _all_vectors(m: int, n: int) -> np.ndarray:
    """All length-n vectors over Z/m as rows, lexicographic."""
    return _vectors(m, n, 0, m**n)


def _vectors(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of ``_all_vectors(m, n)``."""
    powers = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.arange(start, stop, dtype=np.int64)[:, None] // powers
    rows %= m
    return rows


def _np_mats(mats: tuple[RMatrix, ...], d: int) -> np.ndarray:
    """The d x d matrices ``mats`` as one (len(mats), d, d) array."""
    return np.array([a.entries for a in mats], dtype=np.int64).reshape(len(mats), d, d)


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


def brute_cocycles(module: GModule) -> np.ndarray:
    """All degree-1 cocycles, by evaluating candidates on the relator.

    A candidate assigns a module element to each generator; it survives iff
    walking the relator with the crossed rule f(uv) = f(u) + u.f(v) ends at
    zero.  Rows are generator-major stacked vectors.
    """
    ring = module.ring
    m = ring.modulus
    rank = module.rank
    n1 = 2 * module.genus * rank
    _check_count(m**n1, "cocycle enumeration")
    vecs = _all_vectors(m, n1)
    total = np.zeros((vecs.shape[0], rank), dtype=np.int64)
    prefix = np.eye(rank, dtype=np.int64)
    acts = _np_mats(module.acts, rank)
    invs = _np_mats(module.inverses, rank)
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


def brute_coboundaries(module: GModule) -> np.ndarray:
    """All degree-1 coboundaries g.v - v, unique rows, by orbiting elements."""
    ring = module.ring
    m = ring.modulus
    rank = module.rank
    _check_count(m**rank, "coboundary enumeration")
    elts = _all_vectors(m, rank)
    parts = [(elts @ a.T - elts) % m for a in _np_mats(module.acts, rank)]
    if not parts:
        return np.zeros((1, 0), dtype=np.int64)
    return _unique_rows(np.concatenate(parts, axis=1), m)


def brute_h1(module: GModule) -> ModuleShape:
    """Shape of H^1 from raw enumeration and order counting, without representatives.

    Invariant exponents come from counting, for each k, the classes killed
    by p^k; this avoids any echelon-form machinery.  The counts
    |H^1[p^k]| for k = 1..r fix the finite abelian p-group, so the shape
    carries no representatives (``reps`` is empty).  Rows are matched by
    their base-m codes with ``np.isin``.
    """
    ring = module.ring
    p, r, m = ring.p, ring.r, ring.modulus
    z = brute_cocycles(module)
    b = brute_coboundaries(module)
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
    return ModuleShape(invariants, ())


def _upper_cells(n_gens: int, d: int) -> list[int]:
    """Flat indices of every strictly upper cell of (n_gens, d, d), generator-major."""
    return [g * d * d + i * d + j for g in range(n_gens) for i in range(d) for j in range(i + 1, d)]


def brute_lift(f: Flag) -> list[Flag]:
    """All lifts of a flag over Z/p^r to Z/p^(r+1) with trivial diagonal.

    Exhausts one base-p digit at scale p^r per strictly-upper entry per
    generator and keeps the candidates that satisfy the relator.
    """
    ring = f.ring
    one = (1,) * (2 * f.genus)
    for i in range(1, f.d + 1):
        if f.char(i) != one:
            raise ValueError("brute lifting requires trivial diagonal characters")
    up, cells = RingSpec(ring.p, ring.r + 1), _upper_cells(2 * f.genus, f.d)
    return _exact_candidates(up, f.genus, _np_mats(f.mats, f.d), cells, ring.modulus, "lift enumeration")


def unipotent_pool(ring: RingSpec, genus: int, d: int) -> list[Flag]:
    """Every relator-exact unipotent d-flag over ``ring``, in lexicographic order.

    One digit in [0, p^r) per strictly upper cell of each generator, the
    first generator's cells most significant, on the identity.
    """
    base = np.repeat(np.eye(d, dtype=np.int64)[None], 2 * genus, axis=0)
    return _exact_candidates(ring, genus, base, _upper_cells(2 * genus, d), 1, "pool enumeration")


def brute_glue(e: Flag, f: Flag) -> list[Flag]:
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
    base = np.zeros((n_gens, d + 1, d + 1), dtype=np.int64)
    base[:, :d, :d] = _np_mats(e.mats, d)
    base[:, 1:, 1:] = _np_mats(f.mats, d)
    cells = [g * (d + 1) ** 2 + d for g in range(n_gens)]  # the corner (0, d)
    return _exact_candidates(ring, e.genus, base, cells, 1, "glue enumeration")


# Candidates decided per numpy batch.  ``MAX_CANDIDATES`` admits 2^20
# candidates, and at genus 1 and d = 5 one array of them all would take
# 420 MB; a chunk of this many takes under 2 MB per array.
_CHUNK = 1 << 12


def _exact_candidates(
    ring: RingSpec,
    genus: int,
    base: np.ndarray,
    cells: list[int],
    step: int,
    what: str,
) -> list[Flag]:
    """The candidates that satisfy the relator, as flags, in lexicographic order.

    Candidate k is the upper triangular ``base`` (2g, d, d) plus ``step``
    times the k-th digit row over Z/(modulus/step) at the flat ``cells``,
    with the base's unit diagonal.  Each chunk is inverted by
    ``_inverse_upper`` and walked along the relator in whole int64 arrays;
    the survivors become flags without a second walk, carrying the batch's
    inverses.
    """
    m, (n_gens, d, _) = ring.modulus, base.shape
    if d * (m - 1) ** 2 >= 1 << 63:
        raise BudgetExceededError(f"{what}: products over Z/{m} at dimension {d} overflow int64")
    q = m // step
    total = q ** len(cells)
    _check_count(total, what)
    deadline = time.monotonic() + _TIME_CEILING
    diag = np.diagonal(base, axis1=1, axis2=2)
    dinv = np.array([[pow(v, -1, m) for v in row] for row in diag.tolist()], dtype=np.int64)
    dmat = diag[:, :, None] * np.eye(d, dtype=np.int64)
    as_matrices = lambda ms: tuple(RMatrix(ring, d, d, tuple(e)) for e in ms)
    out = []
    for start in range(0, total, _CHUNK):
        if time.monotonic() > deadline:
            raise BudgetExceededError(f"{what} ran past the time ceiling")
        digits = _vectors(q, len(cells), start, min(start + _CHUNK, total))
        flat = np.repeat(base.reshape(1, -1), digits.shape[0], axis=0)
        flat[:, cells] += step * digits
        stack = flat.reshape(digits.shape[0], n_gens, d, d)
        inv = _inverse_upper(stack, dmat, dinv, m)
        keep = np.flatnonzero(_relator_holds(genus, stack, inv, m))
        kept = lambda a: a[keep].reshape(keep.size, n_gens, d * d).tolist()
        for mats, invs in zip(kept(stack), kept(inv)):
            out.append(_trusted(Flag, ring, genus, as_matrices(mats), lambda ms=invs: as_matrices(ms)))
    return out


def _inverse_upper(stack: np.ndarray, dmat: np.ndarray, dinv: np.ndarray, m: int) -> np.ndarray:
    """Inverses of the upper triangular ``stack`` (N, 2g, d, d) over Z/m.

    Every candidate has the diagonal part ``dmat`` (2g, d, d), whose
    entries ``dinv`` (2g, d) inverts.  With N the strictly upper part,
    A = D (I + D^-1 N) and X = -D^-1 N is nilpotent, so
    A^-1 = (sum_{k<d} X^k) D^-1.  The product A A^-1 is checked to be I
    for every candidate.
    """
    eye = np.eye(stack.shape[-1], dtype=np.int64)
    x = dinv[:, :, None] * (dmat - stack) % m
    term, series = x, eye + x
    for _ in range(stack.shape[-1] - 2):
        term = term @ x % m
        series = series + term
    inv = series % m * dinv[:, None, :] % m
    if not (stack @ inv % m == eye).all():
        raise AssertionError("the Neumann series must invert every candidate")
    return inv


def _relator_holds(genus: int, stack: np.ndarray, inv: np.ndarray, m: int) -> np.ndarray:
    """Mask of the candidates in ``stack`` (N, 2g, d, d) whose relator product is I."""
    word = [stack[:, t - 1] if t > 0 else inv[:, -t - 1] for t in Presentation(genus).relator()]
    acc = word[0]
    for a in word[1:]:
        acc = acc @ a % m
    return (acc == np.eye(stack.shape[-1], dtype=np.int64)).all(axis=(1, 2))


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
    # row (k, l) of A Y - Q Y A is row (k, l) of A (x) I - Q (x) A^T applied to vec(Y), row-major
    eqs = a.kron(RMatrix.identity(ring, d)) - q.kron(a.transpose())
    eqs = eqs.submatrix(range(d * d), [i * d + j for i, j in slots])
    gens = smithify(eqs.sparse()).on_kernel()
    vec = gens.apply([rng.randrange(ring.p ** (ring.r - e)) for e in gens.exponents])
    ent = [[0] * d for _ in range(d)]
    for (i, j), v in zip(slots, vec):
        ent[i][j] = v
    if any(ent[i][i] % ring.p == 0 for i in range(d)):
        return None
    return RMatrix.from_rows(ring, ent)


# Draws per generated flag before the generator gives up.
_GEN_ATTEMPTS = 4000


def gen_random_flag(
    p: int,
    r: int,
    d: int,
    genus: int,
    kind: str = "any",
    seed: int = 0,
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
    for _ in range(_GEN_ATTEMPTS):
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
        f = Flag(ring, genus, tuple(mats + [last]))
        if kind == "kummer" and not is_kummer(f).ok:
            continue
        if kind == "wound-kummer" and not is_wound_kummer(f):
            continue
        return f
    raise BudgetExceededError(
        f"no {kind} flag found for p={p} r={r} d={d} genus={genus} seed={seed} "
        f"within {_GEN_ATTEMPTS} attempts"
    )
