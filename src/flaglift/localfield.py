"""Square classes and Hilbert symbols over Q_2 and Q_ell, plus the parity
obstruction showing that mod-4 lifts with cyclotomic-power diagonal can fail.

Square classes are canonicalized integers: {+-1, +-2, +-5, +-10} for Q_2 and
{1, u, ell, u*ell} for Q_ell with u the least positive non-residue.  The
Hilbert symbol is computed in closed form; the tests cross-check it
against a finite solubility search at Hensel-sufficient precision
(``tests/hilbert_reference.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .zmod import _is_prime

# unit mod 8 -> canonical unit representative over Q_2
_UNIT_REP_2 = {1: 1, 7: -1, 5: 5, 3: -5}


def _split_prime_power(p: int, n: int) -> tuple[int, int]:
    """n = p^v * unit with unit coprime to p; returns (v, unit)."""
    if n == 0:
        raise ValueError("square classes need a nonzero value")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def legendre(a: int, ell: int) -> int:
    """Legendre symbol of a mod an odd prime, in {+1, -1}; a must be a unit."""
    if a % ell == 0:
        raise ValueError("legendre symbol needs a unit argument")
    s = pow(a % ell, (ell - 1) // 2, ell)
    return 1 if s == 1 else -1


def least_nonresidue(ell: int) -> int:
    for u in range(2, ell):
        if legendre(u, ell) == -1:
            return u
    raise AssertionError("every odd prime has a quadratic non-residue")


@dataclass(frozen=True)
class SquareClass:
    """A square class of Q_p^x, held as its canonical integer representative.

    prime 2 means Q_2; an odd prime ell means Q_ell.
    """

    prime: int
    rep: int

    def __post_init__(self) -> None:
        if self.rep not in canonical_classes(self.prime):
            raise ValueError(f"{self.rep} is not a canonical square class mod squares")


def canonical_classes(prime: int) -> tuple[int, ...]:
    """The canonical representative set: 8 classes for Q_2, 4 for odd primes."""
    if prime == 2:
        return (1, -1, 2, -2, 5, -5, 10, -10)
    if not _is_prime(prime):
        raise ValueError("the field tag must be 2 or an odd prime")
    u = least_nonresidue(prime)
    return (1, u, prime, u * prime)


def square_class(prime: int, n: int) -> SquareClass:
    """Canonicalize a nonzero integer into its square class."""
    v, unit = _split_prime_power(prime, n)
    if prime == 2:
        rep = _UNIT_REP_2[unit % 8] * (2 if v % 2 else 1)
    else:
        u = least_nonresidue(prime)
        rep = (1 if legendre(unit, prime) == 1 else u) * (prime if v % 2 else 1)
    return SquareClass(prime, rep)


def _eps(u: int) -> int:
    """(u - 1)/2 mod 2 for odd u, read off u mod 4."""
    return 0 if u % 4 == 1 else 1


def _omega(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for odd u, read off u mod 8."""
    return 0 if u % 8 in (1, 7) else 1


def hilbert(a: SquareClass, b: SquareClass) -> int:
    """Hilbert symbol: +1 iff a x^2 + b y^2 = z^2 has a nontrivial solution.

    Computed by the closed-form unit-parity formula over Q_2 and the tame
    valuation/residue formula over Q_ell.
    """
    if a.prime != b.prime:
        raise ValueError("hilbert symbol needs both classes over the same field")
    p = a.prime
    alpha, u = _split_prime_power(p, a.rep)
    beta, w = _split_prime_power(p, b.rep)
    if p == 2:
        exp = _eps(u % 8) * _eps(w % 8) + alpha * _omega(w % 8) + beta * _omega(u % 8)
        return -1 if exp % 2 else 1
    sign = 1
    if alpha and beta and (p - 1) // 2 % 2:
        sign = -sign
    if beta:
        sign *= legendre(u, p)
    if alpha:
        sign *= legendre(w, p)
    return sign


def liftable_mod4(x: SquareClass) -> bool:
    """Whether the class lifts one 2-power level with the same square pairing.

    The criterion is vanishing of the pairing against both itself and -1;
    by bilinearity and symmetry that reduces to hilbert(x, -1) = +1.
    """
    return hilbert(x, square_class(x.prime, -1)) == 1


def non_liftable_classes(prime: int) -> tuple[SquareClass, ...]:
    """All canonical classes failing the mod-4 lifting criterion."""
    return tuple(
        c
        for rep in canonical_classes(prime)
        if not liftable_mod4(c := SquareClass(prime, rep))
    )


# ---------------------------------------------------------------------------
# the five-variable parity obstruction

# The 5x5 upper unipotent shape carrying two non-liftable classes 'a' and
# 'b'; '*' marks unconstrained entries.  Each occurrence of a non-liftable
# class at (i, j) forces the twist parities of pieces i and j to differ.
DISPLAY_SHAPE = (
    ("1", "a", "a", "*", "*"),
    ("0", "1", "0", "b", "*"),
    ("0", "0", "1", "0", "b"),
    ("0", "0", "0", "1", "a"),
    ("0", "0", "0", "0", "1"),
)

_EDGES = ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))


def _satisfying(edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """The parities xi_1..xi_5 in {0, 1} with xi_i != xi_j on every edge (i, j)."""
    return tuple(
        a for a in itertools.product((0, 1), repeat=5) if all(a[i - 1] != a[j - 1] for i, j in edges)
    )


def shape_edges() -> tuple[tuple[int, int], ...]:
    """Edge list read off the displayed shape: positions of 'a' and 'b'."""
    out = []
    for i, row in enumerate(DISPLAY_SHAPE, start=1):
        for j, mark in enumerate(row, start=1):
            if mark in ("a", "b"):
                out.append((i, j))
    return tuple(sorted(out))


@dataclass(frozen=True)
class CyclotomicLiftReport:
    """UNSAT certificate: the parity system from the shape has no solution."""

    edges: tuple[tuple[int, int], ...]
    derived_edges: tuple[tuple[int, int], ...]
    assignments_checked: int
    satisfying: tuple[tuple[int, ...], ...]
    removal_witnesses: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = field(
        default=()
    )

    @property
    def unsat(self) -> bool:
        return not self.satisfying

    @property
    def minimal(self) -> bool:
        return len(self.removal_witnesses) == len(self.edges)


def check_no_cyclotomic_lift() -> CyclotomicLiftReport:
    """Exhaust all 32 parity assignments and certify unsatisfiability.

    Also re-derives the disequality edges from the displayed matrix shape
    and exhibits, for each edge, a satisfying assignment of the system with
    that one edge removed (minimality of the obstruction).
    """
    derived = shape_edges()
    if derived != _EDGES:
        raise AssertionError("the displayed shape must reproduce the edge list")
    witnesses = []
    for edge in _EDGES:
        relaxed = _satisfying(tuple(e for e in _EDGES if e != edge))
        if relaxed:
            witnesses.append((edge, relaxed[0]))
    return CyclotomicLiftReport(
        edges=_EDGES,
        derived_edges=derived,
        assignments_checked=2**5,
        satisfying=_satisfying(_EDGES),
        removal_witnesses=tuple(witnesses),
    )
