"""The in-memory reference backend: a transactional shell over
:class:`~repro.core.database.Database`.

Because states are immutable and copy-on-write, transactions are free:
a savepoint just remembers the ``Database`` reference at the moment it
was taken, release discards that reference, and rollback restores it.
This backend is the semantic oracle every other backend is tested
against (``tests/store/test_protocol.py``) and the default the engines
fall back to when no store is attached.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.database import Database
from ..core.terms import Atom
from .base import Savepoint, Store, StoreError

__all__ = ["MemoryStore"]


class MemoryStore(Store):
    """Volatile store over the copy-on-write ``Database``."""

    def __init__(self, db: Optional[Database] = None):
        self._db = db if db is not None else Database()
        # LIFO stack of (savepoint, state-at-entry).
        self._stack: List[Tuple[Savepoint, Database]] = []
        self._serial = 0

    def database(self) -> Database:
        return self._db

    # -- updates --------------------------------------------------------------

    def insert(self, fact: Atom) -> Database:
        self._db = self._db.insert(fact)
        return self._db

    def delete(self, fact: Atom) -> Database:
        self._db = self._db.delete(fact)
        return self._db

    def insert_all(self, facts) -> Database:
        self._db = self._db.insert_all(facts)
        return self._db

    def delete_all(self, facts) -> Database:
        self._db = self._db.delete_all(facts)
        return self._db

    def commit(self, initial: Database, final: Database, trace) -> None:
        self._check_initial(initial)
        self._db = final

    # -- transactions ---------------------------------------------------------

    def savepoint(self) -> Savepoint:
        self._serial += 1
        sp = Savepoint("sp%d" % self._serial, depth=len(self._stack))
        self._stack.append((sp, self._db))
        return sp

    def _pop_to(self, sp: Savepoint) -> Database:
        while self._stack:
            top, saved = self._stack.pop()
            if top is sp:
                return saved
        raise StoreError("unknown or already-closed savepoint: %r" % (sp,))

    def release(self, sp: Savepoint) -> None:
        # Releasing an outer savepoint implicitly commits the inner ones
        # still open above it (SQLite RELEASE semantics; nested iso that
        # succeed together commit together).
        self._pop_to(sp)

    def rollback(self, sp: Savepoint) -> None:
        self._db = self._pop_to(sp)
