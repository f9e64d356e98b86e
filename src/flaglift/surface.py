"""Genus-g surface group words, representations and coefficient modules.

The group is presented on 2g generators x1, y1, ..., xg, yg with the single
relator [x1,y1]...[xg,yg], commutator convention [a,b] = a b a^-1 b^-1.
Words are tuples of signed 1-based generator indices (positive = generator,
negative = inverse).  A representation (``SurfaceRep``) is a tuple of 2g
invertible matrices over some Z/p^s that satisfies the relator.  A
coefficient module (``GModule``) is a representation, and so is a
triangular flag (``flags.Flag``): the three share one checked generator
tuple, ``mats``, with its inverses and its reduction.

Validation happens once, at the boundary.  The public ``SurfaceRep(...)``
constructor and those of its subclasses ``GModule`` and ``flags.Flag``
check invertibility and the relator; so does everything built through
them from raw or hand-assembled matrices (file loading, ``trivial_module``,
``char_module`` and every engine candidate and output).  A flag's
constructor then scans for the upper triangular shape.  The one other
boundary is the brute-force oracle's lift and glue search, which decides
its candidates with its own batched relator walk and inverse check (see
``oracle``) and builds the upper triangular survivors by ``_trusted``.
Objects derived from a checked one by a map that preserves invertibility
and the relator are also built by ``_trusted`` without a second walk:
``as_module``, ``reduce_to`` of any representation (reduction is a ring
map), ``tensor_module`` (Kronecker products multiply blockwise),
``dual_module`` (inverse transpose is a homomorphism), and the diagonal
blocks of block upper triangular generators (flag segments and the ends
of a coordinate extension).  ``_trusted`` fills the fields of the
class it is given, and reductions and diagonal blocks keep the class of
their source: those of a module are modules, and those of a flag are
flags, built without the scan.

The relator walk (``_relator_product``) is the one walk along the relator
outside the oracle, which keeps its own: the relator check reads its
product, and ``cohomology``'s Fox matrix ``d1``, off which every cochain
value on the relator is read, reads its prefix products.  The check's walk
inverts every generator, which is also the invertibility check: a singular
generator raises a plain ``ValueError`` naming it before any
``RelatorError``.  The walk starts at the first letter, not the identity, so
it makes 4g - 1 products.  Equal generator tuples are walked once per
session: the product, the inverses and the prefix products (as entry
tuples) are kept in the session's ``walks`` table under ``(genus,
matrices)``, and every construction still checks the product it reads
there, so a rejected tuple is rejected again.  Matrix equality covers the
ring, the shape and the least-residue entries, so equal keys have equal
walks.  ``d1`` of a module whose tuple a constructor walked therefore makes
no matmul; for any other module, ``d1`` walks with the module's own
inverses and keeps nothing.  A checked object keeps those inverses, at every
rank: rank 0 walks 0 x 0 matrices and records 2g empty ones.  A derived
object records a function that works its inverses out from its source's
when ``inverses`` is first read: the same (``as_module``), reduced
(``reduce_to``), ``a.acts`` transposed (``dual_module(a)``), ``x.kron(y)``
over ``a.inverses`` and ``b.inverses`` (``tensor_module(a, b)``, so
``hom_module``), the same diagonal block (``Flag.segment`` and the ends of
``coordinate_extension``: block triangular matrices invert blockwise), the
index-reversed transposed generators (``Flag.dual``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar, Union

from .stats import current
from .zmod import RingSpec, RMatrix

Word = tuple[int, ...]

_InverseSlot = Union[tuple[RMatrix, ...], Callable[[], tuple[RMatrix, ...]]]
_Checked = TypeVar("_Checked", bound="SurfaceRep")


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
    """Raised when generator matrices do not satisfy the surface relator.

    The message names what was checked and prints the defect (product - I).
    """


def _relator_product(
    genus: int, mats: Sequence[RMatrix], inverses: Sequence[RMatrix] | None = None
) -> tuple[RMatrix, tuple[RMatrix, ...], tuple[tuple[int, ...], ...]]:
    """The walk of the square matrices ``mats`` along the relator word.

    Returns the product, the inverses and the prefix products as entry
    tuples: ``prefixes[j]`` is the product of the first j + 1 letters, so
    the last one is the product's.  The product starts at the first letter:
    4g - 1 matmuls.  Without ``inverses``, every matrix is inverted first (a
    singular one raises ValueError naming it) and the walk is kept in the
    session's ``walks`` table, so equal tuples are walked once per session.
    A caller that passes the ``inverses`` of a checked tuple reads a kept
    walk when there is one, and otherwise walks without keeping it.
    """
    memo = current().walks
    key = (genus, tuple(mats))
    walked = memo.get(key)
    if walked is not None:
        return walked
    keep = inverses is None
    if keep:
        inverses = []
        for i, m in enumerate(mats):
            try:
                inverses.append(m.inverse())
            except ZeroDivisionError:
                raise ValueError(f"generator matrix {i + 1} is not invertible") from None
    word = [mats[t - 1] if t > 0 else inverses[-t - 1] for t in Presentation(genus).relator()]
    acc, prefixes = word[0], [word[0].entries]
    for letter in word[1:]:
        acc = acc @ letter
        prefixes.append(acc.entries)
    walk = (acc, tuple(inverses), tuple(prefixes))
    return memo.put(key, walk) if keep else walk


def _check_relator(
    ring: RingSpec, genus: int, mats: Sequence[RMatrix], what: str
) -> tuple[RMatrix, ...]:
    """Check ``mats`` as generator matrices; return their inverses.

    Rank 0 is walked like any other rank, on 0 x 0 matrices.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if len(mats) != 2 * genus:
        raise ValueError(f"need {2 * genus} matrices, got {len(mats)}")
    n = mats[0].rows
    for i, m in enumerate(mats):
        if m.ring != ring:
            raise ValueError(f"matrix {i + 1} lives over {m.ring}, expected {ring}")
        if m.rows != n or m.cols != n:
            raise ValueError("generator matrices must be square of equal size")
    acc, inv, _ = _relator_product(genus, mats)
    if not acc.is_identity():
        defect = acc - RMatrix.identity(ring, n)
        raise RelatorError(f"{what}: relator defect is nonzero: {defect.to_lists()}")
    return inv


@dataclass(frozen=True)
class SurfaceRep:
    """A representation of the surface group by invertible matrices.

    The one checked generator tuple: ``GModule`` and ``flags.Flag`` are
    SurfaceReps, and inherit its inverses and reduction.
    """

    ring: RingSpec
    genus: int
    mats: tuple[RMatrix, ...]
    _inverses: _InverseSlot = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check(self, "representation")

    @property
    def dim(self) -> int:
        return self.mats[0].rows

    @property
    def inverses(self) -> tuple[RMatrix, ...]:
        """The inverses of the generators, worked out on first read."""
        inv = self._inverses
        if callable(inv):
            inv = inv()
            object.__setattr__(self, "_inverses", inv)
        return inv

    def as_module(self) -> "GModule":
        return _trusted(GModule, self.ring, self.genus, self.mats, lambda: self.inverses)

    def reduce_to(self: _Checked, s: int) -> _Checked:
        """Reduced to Z/p^s, trusted: reduction is a ring map."""
        red = lambda ms: tuple(m.reduce_to(s) for m in ms)
        ring = self.ring.shrink(s)
        return _trusted(type(self), ring, self.genus, red(self.mats), lambda: red(self.inverses))


@dataclass(frozen=True)
class GModule(SurfaceRep):
    """A surface group module: (Z/p^s)^rank with an action by each generator.

    A module is a representation; ``acts`` and ``rank`` name its ``mats``
    and ``dim``.  It never equals the bare SurfaceRep on the same matrices.
    """

    def __post_init__(self) -> None:
        _check(self, "module action")

    @property
    def acts(self) -> tuple[RMatrix, ...]:
        return self.mats

    rank = SurfaceRep.dim

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank


def _trusted(
    cls: type[_Checked], ring: RingSpec, genus: int, mats: Sequence[RMatrix], inverses: _InverseSlot
) -> _Checked:
    """A SurfaceRep (or Flag, or GModule) built without ``__post_init__``'s checks.

    Only for matrices derived from an already checked object by a map that
    preserves invertibility, the relator and, for a Flag, the upper
    triangular shape (see the module docstring).
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, (ring, genus, tuple(mats), inverses)))
    return obj


def _check(obj: SurfaceRep, what: str) -> None:
    """Check ``obj`` and record the inverses its relator walk computed."""
    object.__setattr__(obj, "_inverses", _check_relator(obj.ring, obj.genus, obj.mats, what))


def _diagonal_block(obj: _Checked, idx: Sequence[int]) -> _Checked:
    """The diagonal block ``idx`` of a block upper triangular ``obj``, trusted."""
    block = lambda ms: tuple(m.submatrix(idx, idx) for m in ms)
    return _trusted(type(obj), obj.ring, obj.genus, block(obj.mats), lambda: block(obj.inverses))


# -- module constructors ------------------------------------------------------


def trivial_module(ring: RingSpec, genus: int, rank: int) -> GModule:
    eye = RMatrix.identity(ring, rank)
    return GModule(ring, genus, (eye,) * (2 * genus))


def char_module(ring: RingSpec, genus: int, values: Sequence[int]) -> GModule:
    """Rank-1 module where generator i acts by the unit values[i-1]."""
    acts = tuple(RMatrix(ring, 1, 1, (v % ring.modulus,)) for v in values)
    return GModule(ring, genus, acts)


def column_extension(cls: type[_Checked], rep: SurfaceRep, cols: Sequence[Sequence[int]]) -> _Checked:
    """The ``cls`` on [[A_g, u_g], [0, 1]]; its constructor checks that u is a cocycle of ``rep``."""
    last = [0] * rep.dim + [1]
    mats = [[[*m.row(i), x] for i, x in enumerate(u)] + [last] for m, u in zip(rep.mats, cols, strict=True)]
    return cls(rep.ring, rep.genus, tuple(RMatrix.from_rows(rep.ring, rows) for rows in mats))


def tensor_module(a: GModule, b: GModule) -> GModule:
    if (a.ring, a.genus) != (b.ring, b.genus):
        raise ValueError("tensor factors must share ring and genus")
    kron = lambda xs, ys: tuple(x.kron(y) for x, y in zip(xs, ys))
    return _trusted(GModule, a.ring, a.genus, kron(a.acts, b.acts), lambda: kron(a.inverses, b.inverses))


def dual_module(a: GModule) -> GModule:
    acts = tuple(m.transpose() for m in a.inverses)
    return _trusted(GModule, a.ring, a.genus, acts, lambda: tuple(m.transpose() for m in a.acts))


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
