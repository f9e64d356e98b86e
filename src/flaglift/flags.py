"""Triangular flags of surface group representations and their predicates.

A flag is a representation by invertible upper triangular matrices over
Z/p^r; coordinate subspaces give a full filtration with rank-1 graded
pieces (the diagonal characters).  This module provides the subquotient
calculus (segments, truncation, quotient by the first piece, duality),
splitting indices of the one-step extensions, and the three predicates:
wound, wound-Kummer, Kummer.

A ``Flag`` is a ``SurfaceRep``: the public ``Flag(ring, genus, mats)``
runs the relator check and then checks that every generator is upper
triangular.  ``segment``, ``dual`` and ``reduce_to`` keep that shape and
skip both checks, and their flags record closed-form inverses (see
``surface``); the dual's are ``m.transpose().submatrix(rev, rev)`` over
``mats``.  A flag never equals a bare ``SurfaceRep`` on the same matrices,
so the two never share a memo entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cohomology import coordinate_extension, split_section
from .stats import current
from .surface import SurfaceRep, _diagonal_block, _trusted
from .zmod import RingSpec, RMatrix, teichmuller


class KummerInconclusive(RuntimeError):
    """A Kummer search hit its budget before it could decide."""


@dataclass(frozen=True)
class Flag(SurfaceRep):
    """An upper triangular representation with unit diagonal characters."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for g, m in enumerate(self.mats):
            for i in range(m.rows):
                for j in range(i):
                    if m.entry(i, j):
                        raise ValueError(
                            f"generator {g + 1} is not upper triangular at ({i},{j})"
                        )

    # -- basic data ---------------------------------------------------------

    d = SurfaceRep.dim

    @staticmethod
    def from_rows(ring: RingSpec, genus: int, mats: Sequence[Sequence[Sequence[int]]]) -> "Flag":
        return Flag(ring, genus, tuple(RMatrix.from_rows(ring, m) for m in mats))

    def char(self, i: int) -> tuple[int, ...]:
        """Diagonal character of the i-th piece (1-based), per generator."""
        if not 1 <= i <= self.d:
            raise ValueError(f"piece index {i} out of range")
        return tuple(m.entry(i - 1, i - 1) for m in self.mats)

    def chars(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.char(i) for i in range(1, self.d + 1))

    # -- subquotients ---------------------------------------------------------

    def segment(self, i: int, j: int) -> "Flag":
        """The subquotient flag with pieces i+1 .. j (0 <= i <= j <= d).

        For upper triangular matrices, extracting the diagonal block with
        rows and columns i..j-1 is multiplicative, so the result is again a
        flag of the same group and needs no relator check.
        """
        if not 0 <= i <= j <= self.d:
            raise ValueError(f"bad segment ({i}, {j}) of a {self.d}-flag")
        return _diagonal_block(self, range(i, j))

    def truncate(self) -> "Flag":
        return self.segment(0, self.d - 1)

    def quotient_by_first(self) -> "Flag":
        return self.segment(1, self.d)

    def dual(self) -> "Flag":
        """Inverse transpose, indices reversed (antidiagonal conjugate); an involution.

        Reverses the filtration: piece i of the dual has character
        char(d+1-i)^-1, truncation and quotient-by-first are exchanged.
        """
        rev = range(self.d - 1, -1, -1)
        flip = lambda ms: tuple(m.transpose().submatrix(rev, rev) for m in ms)
        return _trusted(Flag, self.ring, self.genus, flip(self.inverses), lambda: flip(self.mats))


# ---------------------------------------------------------------------------
# splitting indices


def segment_extension_splits(flag: Flag, i: int, j: int, k: int) -> bool:
    """Whether 0 -> V_j/V_i -> V_k/V_i -> V_k/V_j -> 0 splits equivariantly.

    The verdict depends only on the segment V_k/V_i and the offset j - i,
    so it is decided once per session (``stats.Session.splits``).
    """
    memo = current().splits
    segment = flag.segment(i, k)
    key = (segment, j - i)
    verdict = memo.get(key)
    if verdict is None:
        ext = coordinate_extension(segment.as_module(), j - i)
        verdict = memo.put(key, split_section(ext) is not None)
    return verdict


def index_of(flag: Flag, k: int) -> int:
    """Smallest i with V_k/V_i -> L_k split; i = k-1 always qualifies."""
    for i in range(k):
        if segment_extension_splits(flag, i, k - 1, k):
            return i
    raise AssertionError("the rank-0 sub at i = k-1 always splits")


def splitting_indices(flag: Flag) -> tuple[int, ...]:
    """The tuple (index_of(flag, k)) for k = 1..d."""
    return tuple(index_of(flag, k) for k in range(1, flag.d + 1))


# ---------------------------------------------------------------------------
# wound flags


def is_wound(flag: Flag) -> bool:
    """All consecutive 2-step subquotients nonsplit, mod p."""
    f1 = flag.reduce_to(1)
    for i in range(1, f1.d):
        if segment_extension_splits(f1, i - 1, i, i + 1):
            return False
    return True


def char_is_teichmuller(ring: RingSpec, values: Sequence[int]) -> bool:
    return all(v % ring.modulus == teichmuller(ring, v) for v in values)


def is_wound_kummer(flag: Flag) -> bool:
    """Wound, with every graded character a Teichmuller lift."""
    if not all(char_is_teichmuller(flag.ring, flag.char(i)) for i in range(1, flag.d + 1)):
        return False
    return is_wound(flag)


# ---------------------------------------------------------------------------
# Kummer flags


@dataclass(frozen=True)
class KummerVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_kummer(flag: Flag) -> KummerVerdict:
    """The Kummer predicate: splittings of subquotients survive reduction.

    Checks (a) every graded character is trivial, and (b) for every
    coordinate subquotient extension
    0 -> V_j/V_i -> V_k/V_i -> V_k/V_j -> 0 with 0 <= i < j < k <= d,
    if the extension splits mod p then it splits over the full ring.
    Condition (b) specialized to j = k-1 says the splitting index table
    matches the mod-p one; the predicate is closed under segments and
    invariant under duality.  Returns the first violation found; verdicts
    are kept in the session's ``kummer`` table.
    """
    memo = current().kummer
    verdict = memo.get(flag)
    if verdict is None:
        verdict = memo.put(flag, _is_kummer_inner(flag))
    return verdict


def _is_kummer_inner(flag: Flag) -> KummerVerdict:
    ring = flag.ring
    d = flag.d
    for i in range(1, d + 1):
        if any(v != 1 for v in flag.char(i)):
            return KummerVerdict(False, f"character of piece {i} is nontrivial")
    if d <= 1 or ring.r == 1:
        # one step at most, or nothing beyond the mod-p layer to compare
        return KummerVerdict(True)
    bar = flag.reduce_to(1)
    for k in range(2, d + 1):
        for j in range(k - 1, 0, -1):
            for i in range(j):
                if not segment_extension_splits(bar, i, j, k):
                    continue
                if not segment_extension_splits(flag, i, j, k):
                    return KummerVerdict(
                        False,
                        f"subquotient extension ({i},{j},{k}) splits mod p "
                        f"but not mod p^{ring.r}",
                    )
    return KummerVerdict(True)
