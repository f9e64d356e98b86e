"""Plain-text formats for representations, modules, and cocycles.

Every document is a key-value header followed by one section per
generator, in x1, y1, x2, y2, ... order.  A representation's sections are
``generator`` sections of one row-major integer matrix each:

    p 2
    r 2
    genus 1
    dim 3
    generator x1
    1 1 0
    0 1 1
    0 0 1
    generator y1
    ...
    characters        (optional, a flag's: one row per piece, one value per generator)
    1 1
    ...

A cocycle's are ``values`` sections of one value row each.  Blank lines
and '#' comments are ignored on load; save emits the canonical layout so
that load then save is the identity on saved documents (a flag's
document loads with ``load_flag``).  The exponent r may be at most 64 and p^r at
most 512 bits, so that the largest legal document loads in about a
second; dim may be at most 32 and genus at most 16, since validation
walks the relator with dim x dim matrices.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence, TypeVar

from .flags import Flag
from .surface import GModule, Presentation, SurfaceRep
from .zmod import RingSpec, RMatrix


_T = TypeVar("_T")
_Rows = Sequence[Sequence[int]]


class RepFileError(ValueError):
    """Malformed or inconsistent representation file."""


_MAX_R = 64
_MAX_MODULUS_BITS = 512
_MAX_DIM = 32
_MAX_GENUS = 16
# an error quotes at most this many characters of the input
_QUOTE_WIDTH = 60


def _clip(text: str) -> str:
    """``text`` as an error quotes it: cut after ``_QUOTE_WIDTH`` characters, with its length."""
    if len(text) <= _QUOTE_WIDTH:
        return text
    return f"{text[:_QUOTE_WIDTH]}... ({len(text)} characters)"


# A run of characters between the line breaks of ``str.splitlines``.
_LINE = re.compile("[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


class _Cursor:
    """The non-blank lines of a document, comments cut, split into tokens one line at a time.

    Lines break where ``str.splitlines`` breaks them.  The cursor reads one
    non-blank line ahead of the last one taken, so text after the end of a
    document is read only up to its first non-blank line.
    """

    def __init__(self, text: str) -> None:
        self.rows = (row for m in _LINE.finditer(text) if (row := m.group().split("#", 1)[0].split()))
        self.ahead = next(self.rows, None)

    def peek(self) -> list[str] | None:
        return self.ahead

    def take(self) -> list[str]:
        row = self.ahead
        if row is None:
            raise RepFileError("unexpected end of file")
        self.ahead = next(self.rows, None)
        return row

    def take_key(self, key: str) -> list[str]:
        row = self.take()
        if row[0] != key:
            raise RepFileError(f"expected '{key}', found '{_clip(row[0])}'")
        return row[1:]

    def take_int(self, key: str) -> int:
        vals = self.take_key(key)
        if len(vals) != 1:
            raise RepFileError(f"'{key}' takes exactly one integer")
        try:
            return int(vals[0])
        except ValueError as exc:
            raise RepFileError(f"'{key}' is not an integer: {_clip(vals[0])}") from exc


def _take_row(cur: _Cursor, ring: RingSpec, width: int, what: str) -> tuple[int, ...]:
    """One row of ``width`` residues in [0, p^r); ``what`` names it in errors.

    An empty row is saved as an empty line, which ``_Cursor`` skips.
    """
    row = cur.take() if width else []
    try:
        vals = tuple(int(v) for v in row)
    except ValueError as exc:
        raise RepFileError(f"non-integer {what} entry in {_clip(str(row))}") from exc
    if len(vals) != width:
        raise RepFileError(f"{what} row has {len(vals)} entries, expected {width}")
    for v in vals:
        if not 0 <= v < ring.modulus:
            raise RepFileError(f"{what} entry {_clip(str(v))} out of range [0, {ring.modulus})")
    return vals


def check_ring_limits(ring: RingSpec) -> None:
    """Raise RepFileError unless a file over ``ring`` is within r <= 64 and 512-bit p^r.

    r is checked first, so an oversized r never computes p^r.
    """
    if ring.r > _MAX_R:
        raise RepFileError(f"r {_clip(str(ring.r))} exceeds the limit {_MAX_R}")
    bits = ring.modulus.bit_length()
    if bits > _MAX_MODULUS_BITS:
        raise RepFileError(f"p^r of {bits} bits exceeds the limit {_MAX_MODULUS_BITS} bits")


def _parse_header(cur: _Cursor) -> tuple[RingSpec, int, int]:
    p = cur.take_int("p")
    r = cur.take_int("r")
    genus = cur.take_int("genus")
    dim = cur.take_int("dim")
    for key, value, limit in (("genus", genus, _MAX_GENUS), ("dim", dim, _MAX_DIM)):
        if value > limit:
            raise RepFileError(f"{key} {_clip(str(value))} exceeds the limit {limit}")
    try:
        ring = RingSpec(p, r)
    except ValueError as exc:
        # the message quotes p or r: clip each number in it
        raise RepFileError(re.sub(r"\d+", lambda m: _clip(m.group()), str(exc))) from exc
    check_ring_limits(ring)
    if genus < 1:
        raise RepFileError("genus must be >= 1")
    if dim < 0:
        raise RepFileError("dim must be >= 0")
    return ring, genus, dim


def _take_sections(cur: _Cursor, genus: int, key: str, take: Callable[[], _T]) -> list[_T]:
    """One ``key <generator>`` section per generator, in x1, y1, ... order, each read by ``take``."""
    pres = Presentation(genus)
    out = []
    for g in range(1, 2 * genus + 1):
        name = cur.take_key(key)
        if name != [pres.gen_name(g)]:
            raise RepFileError(f"expected {key} {pres.gen_name(g)}, found {_clip(str(name))}")
        out.append(take())
    return out


def _finish(cur: _Cursor) -> None:
    if cur.peek() is not None:
        raise RepFileError(f"trailing content: {_clip(' '.join(cur.peek()))}")


def load_rep(text: str, cls: type[SurfaceRep] = SurfaceRep) -> SurfaceRep:
    """Parse a representation file as ``cls``; validates ranges, invertibility, relator.

    ``load_flag`` passes ``Flag``, whose constructor also checks the shape.
    """
    cur = _Cursor(text)
    ring, genus, dim = _parse_header(cur)
    take = lambda: RMatrix.from_rows(ring, [_take_row(cur, ring, dim, "matrix") for _ in range(dim)])
    mats = _take_sections(cur, genus, "generator", take)
    chars = None
    if cur.peek() == ["characters"]:
        cur.take()
        chars = tuple(_take_row(cur, ring, 2 * genus, "character") for _ in range(dim))
    _finish(cur)
    if chars is not None:
        diag = tuple(tuple(m.entry(i, i) for m in mats) for i in range(dim))
        if chars != diag:
            raise RepFileError("character block does not match the matrix diagonal")
    try:
        return cls(ring, genus, tuple(mats))
    except ValueError as exc:
        raise RepFileError(str(exc)) from exc


def load_flag(text: str) -> Flag:
    """Parse as a flag; a characters block, when present, must match."""
    return load_rep(text, Flag)


def load_module(text: str) -> GModule:
    """Parse a coefficient module file (same layout as a representation)."""
    return load_rep(text).as_module()


def _save(
    ring: RingSpec, genus: int, dim: int, key: str, blocks: Sequence[_Rows],
    tail: Sequence[tuple[str, _Rows]] = (),
) -> str:
    """The header, one ``key <generator>`` section of rows per generator, then ``tail``'s sections.

    Values are written as least residues.
    """
    pres = Presentation(genus)
    sections = [(f"{key} {pres.gen_name(g)}", rows) for g, rows in enumerate(blocks, start=1)]
    out = [f"p {ring.p}", f"r {ring.r}", f"genus {genus}", f"dim {dim}"]
    for title, rows in [*sections, *tail]:
        out.append(title)
        out.extend(" ".join(str(v % ring.modulus) for v in row) for row in rows)
    return "\n".join(out) + "\n"


def save_rep(rep: SurfaceRep) -> str:
    """Canonical text form; a ``Flag`` adds its character table, a bare rep does not."""
    tail = [("characters", rep.chars())] if isinstance(rep, Flag) else []
    return _save(rep.ring, rep.genus, rep.dim, "generator", [m.to_lists() for m in rep.mats], tail)


# ---------------------------------------------------------------------------
# cocycle files: one value row per generator


def load_cocycle(text: str) -> tuple[RingSpec, int, int, tuple[tuple[int, ...], ...]]:
    """Parse a cocycle file: (ring, genus, dim, per-generator value rows)."""
    cur = _Cursor(text)
    ring, genus, dim = _parse_header(cur)
    rows = _take_sections(cur, genus, "values", lambda: _take_row(cur, ring, dim, "value"))
    _finish(cur)
    return ring, genus, dim, tuple(rows)


def save_cocycle(
    ring: RingSpec, genus: int, dim: int, rows: tuple[tuple[int, ...], ...]
) -> str:
    return _save(ring, genus, dim, "values", [[row] for row in rows])
