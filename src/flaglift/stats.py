"""Scoped run context: the bounded memo tables of one session.

A ``Session`` owns one ``Memo`` per memoised question: the split and
is-Kummer verdicts of ``flags`` and the relator walks of ``surface``.
Every table is bounded by ``MEMO_BOUND`` entries (the oldest entry is
evicted first, in constant time) and counts its own hits and misses, so a
run can report what it reused.

``with session() as s:`` installs a fresh session and restores the
previous one on exit; nothing stored inside outlives the ``with``.  Code
outside any ``with`` runs in one explicit default session, which lives
as long as the process.  A memo changes no result: a table holds verdicts
that depend only on their key.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Hashable, Iterator

# Entries per table.  The lift battery decides a few hundred distinct
# split verdicts and keeps the walks of 1,051 distinct generator tuples per
# pass at seed 0 (1,013 at seed 28), and the oracle audit keeps 581 (its
# brute-force search walks candidates in numpy, outside the table), so a
# bound this size evicts nothing on either.
MEMO_BOUND = 4096


class Memo:
    """A value-keyed table of at most ``MEMO_BOUND`` entries, oldest evicted first.

    ``put`` reads ``MEMO_BOUND`` when it is called.  Stored values are never
    ``None``; ``get`` returns ``None`` for a miss.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key`` and return it."""
        if len(self.entries) >= MEMO_BOUND:
            self.entries.popitem(last=False)
        self.entries[key] = value
        return value

    def summary(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self.entries)}


@dataclass
class Session:
    """The memo tables of one run.

    ``walks`` makes equal generator tuples cost one relator walk per
    session; the check on its product still runs on every construction,
    and ``d1`` reads its prefix products instead of walking again.
    """

    # (segment flag V_k/V_i, offset j - i) -> whether the extension splits
    splits: Memo = field(default_factory=Memo)
    # flag -> KummerVerdict
    kummer: Memo = field(default_factory=Memo)
    # (genus, generator matrices) -> (product along the relator, their
    # inverses, the entry tuples of its prefix products).  Constructors and
    # relator_defect store walks; d1 only reads them (its misses count too)
    walks: Memo = field(default_factory=Memo)

    def summary(self) -> dict[str, dict[str, int]]:
        """Hits, misses and size of every table, by table name."""
        return {f.name: getattr(self, f.name).summary() for f in fields(self)}


_current = Session()


def current() -> Session:
    """The innermost active session, or the default one."""
    return _current


@contextmanager
def session() -> Iterator[Session]:
    """Run the body in a fresh session; the previous one is restored on exit."""
    global _current
    outer, _current = _current, Session()
    try:
        yield _current
    finally:
        _current = outer
