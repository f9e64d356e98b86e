"""Genus-g surface group words, representations and coefficient modules.

The group is presented on 2g generators x1, y1, ..., xg, yg with the single
relator [x1,y1]...[xg,yg], commutator convention [a,b] = a b a^-1 b^-1.
Words are tuples of signed 1-based generator indices (positive = generator,
negative = inverse).  Representations and coefficient modules are tuples of
invertible matrices over some Z/p^s.

Validation happens once, at the boundary.  The public ``SurfaceRep(...)``
and ``GModule(...)`` constructors check invertibility and the relator; so
does everything built through them from raw or hand-assembled matrices
(file loading, ``trivial_module``, ``char_module``, the oracle's candidate
filters and every engine candidate and output).  Objects derived from a
checked one by a map that preserves invertibility and the relator are
built by ``_trusted`` without a second walk: ``as_module``, ``reduce_to``
(reduction is a ring map), ``tensor_module`` (Kronecker products multiply
blockwise), ``dual_module`` (inverse transpose is a homomorphism), and the
diagonal blocks of block upper triangular actions (flag segments and the
ends of a coordinate extension).

The relator walk inverts every generator, and a checked object keeps those
inverses as its ``inverses``.  ``as_module`` and ``reduce_to`` pass known
inverses on; a reduction reduces them only when its ``inverses`` are first
read, since most reductions never read them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, TypeVar

from .zmod import RingSpec, RMatrix, vec_add, vec_mod, vec_scale

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """The one-relator presentation of the genus-g surface group."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be >= 1")

    @property
    def n_gens(self) -> int:
        return 2 * self.genus

    def gen_name(self, index: int) -> str:
        """1-based index -> x1, y1, x2, y2, ..."""
        if not 1 <= index <= self.n_gens:
            raise ValueError(f"generator index {index} out of range")
        pair, kind = divmod(index - 1, 2)
        return f"{'xy'[kind]}{pair + 1}"

    def relator(self) -> Word:
        letters: list[int] = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            letters.extend([a, b, -a, -b])
        return tuple(letters)


class RelatorError(ValueError):
    """Raised when generator matrices do not satisfy the surface relator."""


def _relator_product(
    ring: RingSpec, genus: int, mats: Sequence[RMatrix]
) -> tuple[RMatrix, tuple[RMatrix, ...]]:
    """Product of the square matrices ``mats`` along the relator word, and their inverses."""
    inv = tuple(m.inverse() for m in mats)
    acc = RMatrix.identity(ring, mats[0].rows)
    for t in Presentation(genus).relator():
        acc = acc @ (mats[t - 1] if t > 0 else inv[-t - 1])
    return acc, inv


def _check_relator(
    ring: RingSpec, genus: int, mats: Sequence[RMatrix], what: str
) -> tuple[RMatrix, ...] | None:
    """Check ``mats`` as generator matrices; return their inverses (None at rank 0)."""
    if len(mats) != 2 * genus:
        raise ValueError(f"need {2 * genus} matrices, got {len(mats)}")
    n = mats[0].rows if mats else 0
    for i, m in enumerate(mats):
        if m.ring != ring:
            raise ValueError(f"matrix {i + 1} lives over {m.ring}, expected {ring}")
        if m.rows != n or m.cols != n:
            raise ValueError("generator matrices must be square of equal size")
        if n and not m.is_invertible():
            raise ValueError(f"generator matrix {i + 1} is not invertible")
    if n == 0:
        return None
    acc, inv = _relator_product(ring, genus, mats)
    if not acc.is_identity():
        defect = acc - RMatrix.identity(ring, n)
        raise RelatorError(
            f"{what}: relator defect is nonzero: {defect.to_lists()}"
        )
    return inv


@dataclass(frozen=True)
class SurfaceRep:
    """A representation of the surface group by invertible matrices."""

    ring: RingSpec
    genus: int
    mats: tuple[RMatrix, ...]

    def __post_init__(self) -> None:
        _keep_inverses(self, _check_relator(self.ring, self.genus, self.mats, "representation"))

    @property
    def dim(self) -> int:
        return self.mats[0].rows

    @property
    def inverses(self) -> tuple[RMatrix, ...]:
        return _inverses(self, self.mats)

    def as_module(self) -> "GModule":
        return _trusted(GModule, self.ring, self.genus, self.mats, _known_inverses(self))

    def reduce_to(self, s: int) -> "SurfaceRep":
        mats = tuple(m.reduce_to(s) for m in self.mats)
        return _trusted(SurfaceRep, self.ring.shrink(s), self.genus, mats, _known_inverses(self))


@dataclass(frozen=True)
class GModule:
    """A surface group module: (Z/p^s)^rank with an action by each generator."""

    ring: RingSpec
    genus: int
    acts: tuple[RMatrix, ...]

    def __post_init__(self) -> None:
        _keep_inverses(self, _check_relator(self.ring, self.genus, self.acts, "module action"))

    @property
    def rank(self) -> int:
        return self.acts[0].rows if self.acts else 0

    @property
    def presentation(self) -> Presentation:
        return Presentation(self.genus)

    @property
    def inverses(self) -> tuple[RMatrix, ...]:
        return _inverses(self, self.acts)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce_to(self, s: int) -> "GModule":
        acts = tuple(m.reduce_to(s) for m in self.acts)
        return _trusted(GModule, self.ring.shrink(s), self.genus, acts, _known_inverses(self))


_Checked = TypeVar("_Checked", SurfaceRep, GModule)


def _trusted(
    cls: type[_Checked],
    ring: RingSpec,
    genus: int,
    mats: Sequence[RMatrix],
    inverses: tuple[RMatrix, ...] | None = None,
) -> _Checked:
    """A SurfaceRep or GModule built without ``__post_init__``'s relator check.

    Only for matrices derived from an already checked object by a map that
    preserves invertibility and the relator (see the module docstring).
    ``inverses``, when given, are recorded as by ``_keep_inverses``.
    """
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), (ring, genus, tuple(mats))):
        object.__setattr__(obj, f.name, value)
    _keep_inverses(obj, inverses)
    return obj


def _keep_inverses(obj: SurfaceRep | GModule, inverses: tuple[RMatrix, ...] | None) -> None:
    """Record the inverses of the generators of ``obj``, unless None.

    They may live over a larger Z/p^R than ``obj``: inverses of matrices
    that reduce to its generators reduce to the inverses of its generators.
    """
    if inverses is not None:
        object.__setattr__(obj, "_inverses", inverses)


def _known_inverses(obj: SurfaceRep | GModule) -> tuple[RMatrix, ...] | None:
    """The inverses recorded for ``obj``, or None."""
    return getattr(obj, "_inverses", None)


def _inverses(obj: SurfaceRep | GModule, mats: tuple[RMatrix, ...]) -> tuple[RMatrix, ...]:
    """The inverses of ``mats``, the generators of ``obj``, worked out once."""
    inv = _known_inverses(obj)
    if inv is None:
        inv = tuple(m.inverse() for m in mats)
    elif inv[0].ring != obj.ring:
        inv = tuple(m.reduce_to(obj.ring.r) for m in inv)
    else:
        return inv
    _keep_inverses(obj, inv)
    return inv


# -- module constructors ------------------------------------------------------


def trivial_module(ring: RingSpec, genus: int, rank: int) -> GModule:
    eye = RMatrix.identity(ring, rank)
    return GModule(ring, genus, (eye,) * (2 * genus))


def char_module(ring: RingSpec, genus: int, values: Sequence[int]) -> GModule:
    """Rank-1 module where generator i acts by the unit values[i-1]."""
    acts = tuple(RMatrix(ring, 1, 1, (v % ring.modulus,)) for v in values)
    return GModule(ring, genus, acts)


def tensor_module(a: GModule, b: GModule) -> GModule:
    if (a.ring, a.genus) != (b.ring, b.genus):
        raise ValueError("tensor factors must share ring and genus")
    return _trusted(GModule, a.ring, a.genus, tuple(x.kron(y) for x, y in zip(a.acts, b.acts)))


def dual_module(a: GModule) -> GModule:
    return _trusted(GModule, a.ring, a.genus, tuple(m.transpose() for m in a.inverses))


def hom_module(c: GModule, a: GModule) -> GModule:
    """Linear maps C -> A with (g.F) = act_A(g) F act_C(g)^-1.

    Flattening convention: a map F (rank_A x rank_C matrix) becomes the
    vector w with w[j * rank_A + i] = F[i][j]; see hom_vec / hom_mat.
    """
    return tensor_module(dual_module(c), a)


def hom_vec(f: RMatrix) -> tuple[int, ...]:
    """Flatten a map F: C -> A into a hom_module(C, A) vector."""
    return tuple(f.entry(i, j) for j in range(f.cols) for i in range(f.rows))


def hom_mat(ring: RingSpec, w: Sequence[int], rank_a: int, rank_c: int) -> RMatrix:
    """Inverse of hom_vec."""
    if len(w) != rank_a * rank_c:
        raise ValueError("hom vector length mismatch")
    return RMatrix(
        ring,
        rank_a,
        rank_c,
        tuple(w[j * rank_a + i] % ring.modulus for i in range(rank_a) for j in range(rank_c)),
    )


# -- crossed (twisted) cochain values ----------------------------------------


def crossed_value(
    module: GModule, values: Sequence[Sequence[int]], word: Sequence[int]
) -> tuple[int, ...]:
    """Extend generator values to a word by c(uv) = c(u) + u.c(v).

    ``values[k]`` is c(generator k+1); inverses follow from
    c(s^-1) = -s^-1.c(s).
    """
    ring = module.ring
    acc = module.zero()
    pref = RMatrix.identity(ring, module.rank)
    for t in word:
        k = abs(t) - 1
        if t > 0:
            step = vec_mod(ring, values[k])
            acc = vec_add(ring, acc, pref.apply(step))
            pref = pref @ module.acts[k]
        else:
            inv = module.inverses[k]
            step = vec_scale(ring, -1, inv.apply(values[k]))
            acc = vec_add(ring, acc, pref.apply(step))
            pref = pref @ inv
    return acc
