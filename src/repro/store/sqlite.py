"""Durable store over stdlib ``sqlite3``: an append-only WAL of fact
deltas plus periodic snapshots.

Layout of a ``.tdlog`` file (three tables, schema version in ``meta``):

``meta(key, value)``
    ``schema_version``, ``generation`` (bumped per snapshot),
    ``checkpoint_seq`` (highest WAL sequence folded into the snapshot),
    ``snapshot_digest`` (order-independent content digest of the
    snapshot, verified by ``tdlog store fsck``).
``snapshot(pred, fact)``
    The state as of the last checkpoint, one framed+pickled ground atom
    per row (atoms carry ``__reduce__`` and re-intern on load; text
    round-trips are unsafe because ``Constant("1")`` and ``Constant(1)``
    render identically).
``wal(seq, op, pred, fact)``
    The delta log: ``+``/``-`` rows appended by every effective
    insert/delete since the checkpoint, in commit order.

Every ``fact`` blob is *framed*: a fixed header (magic, record version,
payload length, CRC32 of the payload) precedes the pickle.  Recovery
verifies each frame before unpickling, which is what separates a
"replayable tail" from "damage": a torn **final** WAL record (payload
shorter than its declared length -- the signature of an interrupted
write) is truncated with a ``store.wal_truncated`` counter, while any
other mismatch -- bad magic, bad CRC, mid-log tears, unpicklable
payloads -- raises a structured :class:`~repro.store.base.StoreCorrupt`
carrying the offending rowid, never a raw pickle traceback.

The live state is a plain in-memory mirror
:class:`~repro.core.database.Database`, so queries, memo keys, and the
per-position indexes behave *identically* to the volatile backend --
durability is purely additive.  Every effective update outside a
savepoint appends a WAL row first (``synchronous=FULL``: the row is on
disk before the mirror moves); inside one it stages the row, and the
mirror moves ahead of the disk only within the open scope.  That gives
the recovery invariant: **state = snapshot + replayed WAL tail** as of
the last committed update, no matter where the process died.

``iso`` maps onto savepoint scopes that live in memory: a scope is an
entry on the store's stack (the mirror and the staged-row mark at
entry), and opening, releasing an inner scope or rolling one back
issues no SQL.  The outermost release writes every staged row in one
SQL transaction (``BEGIN IMMEDIATE``, one ``executemany``, ``COMMIT``),
so the scope's updates become durable together; a rollback -- or a
crash before that release -- discards them, which is exactly the
paper's failed-subexecutions-leave-no-trace rule.  ``commit`` stages a
whole trace this way without moving the mirror, then sets it to the
search's final state just before its top-level release.  Checkpoints
fold the WAL into the snapshot in one SQL transaction, rewriting only the
rows of facts the tail changed, and only run when no scope is open (a
checkpoint must not capture uncommitted state); a
threshold that trips inside a scope defers (``store.checkpoint_deferred``)
and retries as soon as the savepoint stack drains.  The WAL tail's
length is counted once at open and kept in memory from then on.

Multi-process discipline: a writable open takes the cross-process
writer lease (``PATH.lease``, see :mod:`repro.store.lease`) so two
writers cannot interleave WAL appends; ``readonly=True`` skips the
lease, opens the SQLite file in read-only mode, and *degrades* instead
of raising on damaged bytes -- replay stops at the first bad record and
``stats()["degraded"]`` says why, so an operator can always inspect a
damaged store.  ``SQLITE_BUSY`` from concurrent access is retried with
capped exponential backoff (injectable clock/sleep,
``store.busy_retries`` counter).

Crash injection mirrors the rest of the faults layer: the store
duck-types a plan's ``store_crashes`` entries against its own event
counters and raises :class:`~repro.store.base.StoreCrashed` at the
scripted moment.  Four named crash points are supported (see
:class:`repro.faults.plan.StoreCrash`): ``pre-fsync`` (row never
written), ``post-fsync`` (row durable, mirror not updated),
``mid-checkpoint-fold`` (inside the fold's transaction) and
``mid-savepoint-release`` (scope popped, its staged rows never written).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import struct
import time
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.database import Database
from ..core.terms import Atom
from ..obs.context import active
from .base import Savepoint, Store, StoreBusy, StoreCorrupt, StoreCrashed, StoreError
from .lease import DEFAULT_LEASE_TTL, WriterLease, read_lease

__all__ = [
    "SqliteStore",
    "SCHEMA_VERSION",
    "RECORD_VERSION",
    "DEFAULT_SNAPSHOT_EVERY",
    "QUARANTINE_SUFFIX",
    "frame_record",
    "decode_record",
    "TornRecord",
    "content_digest",
]

#: Bumped from 1 in PR 9: fact blobs gained the CRC32 frame and ``meta``
#: gained ``snapshot_digest``.  Version-1 files predate checksums and
#: are refused (there is no way to verify their bytes).
SCHEMA_VERSION = 2

#: Version of the record frame itself, carried in every blob header.
RECORD_VERSION = 1

#: Checkpoint once the WAL tail reaches this many rows (tunable per
#: store; small enough that recovery replay stays short, large enough
#: that snapshot rewrites stay rare).
DEFAULT_SNAPSHOT_EVERY = 256

#: Sidecar file ``tdlog store fsck --repair`` quarantines damaged WAL
#: rows into.
QUARANTINE_SUFFIX = ".quarantine"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshot (
    pred TEXT NOT NULL,
    fact BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS wal (
    seq  INTEGER PRIMARY KEY AUTOINCREMENT,
    op   TEXT NOT NULL CHECK (op IN ('+', '-')),
    pred TEXT NOT NULL,
    fact BLOB NOT NULL
);
"""

# -- record framing -----------------------------------------------------------

#: magic (2 bytes), record version (1), pad (1), payload length (4),
#: CRC32 of the payload (4) -- little-endian, 12 bytes total.
_HEADER = struct.Struct("<HBxII")
_MAGIC = 0x7D10


class TornRecord(Exception):
    """Internal: a record whose payload is shorter than its declared
    length -- the signature of an interrupted append.  Only acceptable
    as the *final* WAL record (truncated tail); anywhere else it is
    promoted to :class:`StoreCorrupt`."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def frame_record(fact: Atom) -> bytes:
    """Pickle *fact* and prepend the checksummed frame header."""
    payload = pickle.dumps(fact, protocol=4)
    return _HEADER.pack(
        _MAGIC, RECORD_VERSION, len(payload), zlib.crc32(payload)
    ) + payload


def decode_record(blob: bytes, *, path: str, table: str, rowid) -> Atom:
    """Verify and unpickle one framed record.

    Raises :class:`TornRecord` for a short payload (interrupted write)
    and :class:`StoreCorrupt` for everything else -- bad magic, bad
    record version, CRC mismatch, trailing garbage, or a payload that
    does not unpickle to an :class:`Atom`.
    """
    if len(blob) < _HEADER.size:
        raise TornRecord("record shorter than its %d-byte header" % _HEADER.size)
    magic, version, length, crc = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise StoreCorrupt(path, table, rowid, "bad record magic 0x%04x" % magic)
    if version != RECORD_VERSION:
        raise StoreCorrupt(
            path, table, rowid,
            "record version %d, expected %d" % (version, RECORD_VERSION),
        )
    payload = blob[_HEADER.size:]
    if len(payload) < length:
        raise TornRecord(
            "payload %d byte(s), header declares %d" % (len(payload), length)
        )
    if len(payload) > length:
        raise StoreCorrupt(
            path, table, rowid,
            "payload %d byte(s), header declares %d (trailing garbage)"
            % (len(payload), length),
        )
    if zlib.crc32(payload) != crc:
        raise StoreCorrupt(path, table, rowid, "CRC32 mismatch")
    try:
        fact = pickle.loads(payload)
    except Exception as exc:  # guarded decode: never a raw traceback
        raise StoreCorrupt(
            path, table, rowid, "payload does not unpickle: %s" % exc
        )
    if not isinstance(fact, Atom):
        raise StoreCorrupt(
            path, table, rowid,
            "payload is %s, expected a ground atom" % type(fact).__name__,
        )
    return fact


def content_digest(facts: Iterable[Atom]) -> int:
    """Order-independent 63-bit content digest of a fact set.

    Stable across processes and ``PYTHONHASHSEED`` (unlike
    ``hash(Database)``): each fact is pickled (deterministic for
    interned atoms), the per-fact SHA-256 digests are sorted, and the
    first 8 bytes of the combined hash are truncated to fit ``meta``'s
    INTEGER column.
    """
    return _combine_digests(
        hashlib.sha256(pickle.dumps(fact, protocol=4)).digest() for fact in facts
    )


def _record_digest(blob: bytes) -> bytes:
    """The per-fact SHA-256 digest :func:`content_digest` takes, read
    off a framed record's payload instead of a fresh pickle."""
    return hashlib.sha256(blob[_HEADER.size:]).digest()


def _combine_digests(digests: Iterable[bytes]) -> int:
    combined = hashlib.sha256(b"".join(sorted(digests))).digest()
    return int.from_bytes(combined[:8], "big") & 0x7FFFFFFFFFFFFFFF


# -- the store ----------------------------------------------------------------


class SqliteStore(Store):
    """WAL-durable backend; see the module docstring for the design.

    ``faults=`` accepts anything with a ``store_crashes`` attribute of
    :class:`~repro.faults.plan.StoreCrash`-shaped entries (the store
    never imports the faults package, matching the core's discipline).
    ``readonly=True`` opens degraded-tolerant and without the writer
    lease; ``clock``/``sleep`` are injectable for deterministic lease
    and backoff tests.
    """

    def __init__(
        self,
        path: str,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        faults=None,
        readonly: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        busy_retries: int = 5,
        busy_backoff: float = 0.01,
        busy_cap: float = 0.5,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.path = path
        self.snapshot_every = snapshot_every
        self.readonly = readonly
        self.degraded: Optional[str] = None
        self._busy_retries = busy_retries
        self._busy_backoff = busy_backoff
        self._busy_cap = busy_cap
        self._clock = clock
        self._sleep = sleep
        self._crash_points = tuple(
            (getattr(crash, "point", "post-fsync"), crash.window)
            for crash in getattr(faults, "store_crashes", ())
        )
        self._appends = 0  # crash-injection ticks, one counter per point family
        self._checkpoints = 0
        self._released = 0
        self._crashed = False
        self._closed = False
        self._checkpoint_deferred = False
        # (savepoint, db-as-of-open, wal-buffer mark).  The mark is the
        # buffer length when the scope opened, so rollback can discard
        # exactly the rows the scope staged.
        self._stack: List[Tuple[Savepoint, Database, int]] = []
        # WAL rows staged by open savepoints, written in one SQL
        # transaction when the outermost scope releases (one fsync per
        # trace commit instead of one per fact delta).
        self._wal_buffer: List[Tuple[str, str, bytes]] = []
        # Committed WAL rows past the checkpoint, counted at open and
        # kept by appends, flushes and folds.
        self._wal_tail = 0
        # Each snapshot fact's rowid and record digest, read at open and
        # replaced by each fold, plus the rowids of duplicate rows the
        # next fold deletes: a fold writes only what the mirror changed.
        self._snapshot_rows: Dict[Atom, Tuple[int, bytes]] = {}
        self._duplicate_rows: List[int] = []
        self._serial = 0
        self._lease: Optional[WriterLease] = None
        if readonly:
            if not os.path.exists(path):
                raise StoreError("%s: no such store (read-only open)" % path)
            try:
                self._conn = sqlite3.connect(
                    "file:%s?mode=ro" % path, uri=True, isolation_level=None,
                    timeout=0,
                )
            except sqlite3.Error as exc:
                raise StoreError("%s: cannot open read-only: %s" % (path, exc))
        else:
            self._lease = WriterLease(path, ttl=lease_ttl, clock=clock)
            self._lease.acquire()
            try:
                # Autocommit: the explicit transactions of a flush and a
                # fold are the only multi-statement boundaries.
                # timeout=0: SQLITE_BUSY surfaces immediately and our
                # own capped backoff owns the retry policy.
                self._conn = sqlite3.connect(path, isolation_level=None, timeout=0)
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=FULL")
                self._conn.executescript(_SCHEMA)
            except (sqlite3.Error, StoreError):
                self._lease.release()
                raise
        try:
            self._init_meta()
            self._db = self._recover()
            self._wal_tail = self._count_wal_tail()
        except BaseException:
            self.close()
            raise

    # -- open / recovery ------------------------------------------------------

    def _sqlite_guard(self, exc: sqlite3.Error) -> StoreError:
        """Map a raw sqlite3 error (malformed file, disk image not a
        database, ...) to a structured store error."""
        return StoreCorrupt(self.path, "file", None, "sqlite error: %s" % exc)

    def _init_meta(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.Error as exc:
            raise self._sqlite_guard(exc)
        if row is None:
            if self.readonly:
                raise StoreCorrupt(
                    self.path, "meta", None, "no schema_version row"
                )
            self._exec_many(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("schema_version", SCHEMA_VERSION), ("generation", 0),
                 ("checkpoint_seq", 0), ("snapshot_digest", content_digest(()))],
            )
        elif row[0] != SCHEMA_VERSION:
            if self.readonly:
                # Degraded inspection of a foreign-version file: report
                # instead of refusing, but do not try to decode blobs
                # whose framing we do not know.
                self.degraded = (
                    "schema version %d, expected %d" % (row[0], SCHEMA_VERSION)
                )
                return
            raise StoreError(
                "%s: store schema version %d, expected %d (run "
                "'tdlog store fsck' to inspect)"
                % (self.path, row[0], SCHEMA_VERSION)
            )

    def _meta(self, key: str, default: Optional[int] = None) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        ).fetchone()
        if row is None:
            if default is not None:
                return default
            raise StoreCorrupt(self.path, "meta", None, "missing key %r" % key)
        return row[0]

    def _recover(self) -> Database:
        """Load the snapshot and replay the WAL tail over it -- the
        recovery procedure, run unconditionally on every open (with an
        empty tail it is just the snapshot load).

        Every record is frame-verified first.  A torn *final* WAL record
        is truncated (``store.wal_truncated``); damage anywhere else
        raises :class:`StoreCorrupt` -- except under ``readonly=True``,
        where replay stops at the first bad record and the store opens
        degraded.
        """
        if self.degraded is not None:  # readonly, foreign schema version
            return Database()
        obs = active()
        rows = self._snapshot_rows
        try:
            snapshot_rows = list(
                self._conn.execute("SELECT rowid, fact FROM snapshot")
            )
            wal_rows = list(
                self._conn.execute(
                    "SELECT seq, op, fact FROM wal WHERE seq > ? ORDER BY seq",
                    (self._meta("checkpoint_seq", 0),),
                )
            )
        except sqlite3.Error as exc:
            raise self._sqlite_guard(exc)
        for rowid, blob in snapshot_rows:
            try:
                fact = decode_record(blob, path=self.path, table="snapshot",
                                     rowid=rowid)
            except (TornRecord, StoreCorrupt) as exc:
                # A fold writes the snapshot in one SQL transaction, so
                # a torn snapshot row is damage, never an interrupted
                # append.
                if self.readonly:
                    self.degraded = "snapshot row %d: %s" % (
                        rowid, getattr(exc, "reason", exc))
                    return Database(rows)
                if isinstance(exc, TornRecord):
                    raise StoreCorrupt(
                        self.path, "snapshot", rowid, exc.reason
                    )
                raise
            if fact in rows:
                self._duplicate_rows.append(rowid)
            else:
                rows[fact] = (rowid, _record_digest(blob))
        db = Database(rows)
        replayed = 0
        truncated_from: Optional[int] = None
        for index, (seq, op, blob) in enumerate(wal_rows):
            try:
                fact = decode_record(blob, path=self.path, table="wal", rowid=seq)
                if op not in ("+", "-"):
                    raise StoreCorrupt(
                        self.path, "wal", seq, "unknown op %r" % op
                    )
            except TornRecord as exc:
                if index == len(wal_rows) - 1:
                    # Torn tail: the append this row belongs to never
                    # completed; drop it and recover to the prefix.
                    truncated_from = seq
                    break
                if self.readonly:
                    self.degraded = "wal row %d: %s" % (seq, exc.reason)
                    break
                raise StoreCorrupt(
                    self.path, "wal", seq,
                    "torn record before end of log: %s" % exc.reason,
                )
            except StoreCorrupt as exc:
                if self.readonly:
                    self.degraded = "wal row %d: %s" % (seq, exc.reason)
                    break
                raise
            db = db.insert(fact) if op == "+" else db.delete(fact)
            replayed += 1
        if truncated_from is not None:
            if not self.readonly:
                self._exec(
                    "DELETE FROM wal WHERE seq >= ?", (truncated_from,)
                )
            else:
                self.degraded = "torn final wal record %d" % truncated_from
            if obs.enabled:
                obs.metrics.inc("store.wal_truncated")
        if obs.enabled:
            obs.metrics.inc("store.opens")
            if replayed:
                obs.metrics.inc("store.recoveries")
                obs.metrics.inc("store.wal_replayed", replayed)
        return db

    # -- guards ---------------------------------------------------------------

    def _check_live(self) -> None:
        if self._crashed:
            raise StoreCrashed("%s: store crashed; reopen to recover" % self.path)
        if self._closed:
            raise StoreError("%s: store is closed" % self.path)

    def _check_writable(self) -> None:
        self._check_live()
        if self.readonly:
            raise StoreError("%s: store is read-only" % self.path)
        if self._lease is not None:
            self._lease.check()

    def _crash(self, point: str, tick: int) -> None:
        """Simulated process death: refuse everything from here on and
        drop the resources exactly as the OS would -- the connection
        closes (rolling back any uncommitted scope, which is how SQLite
        treats a dead process's transaction) and the lease flock dies
        with its holder while the sidecar record lingers."""
        self._crashed = True
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - defensive
            pass
        if self._lease is not None:
            self._lease.release(unlink=False)
        raise StoreCrashed(
            "%s: injected crash at %s (tick %d)" % (self.path, point, tick)
        )

    def _maybe_crash(self, point: str, tick: int) -> None:
        for crash_point, window in self._crash_points:
            if crash_point == point and window.active(tick):
                self._crash(point, tick)

    # -- SQLITE_BUSY backoff --------------------------------------------------

    def _exec(self, sql: str, params: Tuple = ()):
        return self._retry_busy(lambda: self._conn.execute(sql, params))

    def _exec_many(self, sql: str, rows) -> None:
        self._retry_busy(lambda: self._conn.executemany(sql, rows))

    def _retry_busy(self, op):
        """Run *op*, retrying ``SQLITE_BUSY``/``SQLITE_LOCKED`` with
        capped exponential backoff; counted as ``store.busy_retries``."""
        attempt = 0
        while True:
            try:
                return op()
            except sqlite3.OperationalError as exc:
                message = str(exc)
                if "locked" not in message and "busy" not in message:
                    raise self._sqlite_guard(exc)
                if attempt >= self._busy_retries:
                    raise StoreBusy(
                        "%s: SQLITE_BUSY after %d retries: %s"
                        % (self.path, attempt, message)
                    )
                delay = min(self._busy_cap, self._busy_backoff * (2 ** attempt))
                attempt += 1
                obs = active()
                if obs.enabled:
                    obs.metrics.inc("store.busy_retries")
                self._sleep(delay)
            except sqlite3.Error as exc:
                raise self._sqlite_guard(exc)

    # -- state ----------------------------------------------------------------

    def database(self) -> Database:
        self._check_live()
        return self._db

    # -- updates --------------------------------------------------------------

    def _append(self, op: str, fact: Atom) -> None:
        """Durably append one WAL row, honouring crash injection.

        ``pre-fsync`` crashes fire before the row is written (nothing
        durable); ``post-fsync`` crashes fire after the row is on disk
        but before the mirror advances -- the store is then torn exactly
        the way a power-cut mid-commit tears a real system, and only the
        reopen replay may heal it.

        Inside an open savepoint the row is *staged* instead of written:
        it joins the scope's batch and hits SQLite in the one
        transaction the outermost release writes.  Crash ticks still
        advance and both crash points still fire per fact delta; a crash
        loses the staged rows, so an open scope rolls back on reopen.
        """
        self._appends += 1
        tick = self._appends
        self._maybe_crash("pre-fsync", tick)
        if self._lease is not None:
            self._lease.renew()
        obs = active()
        if self._stack:
            self._wal_buffer.append((op, fact.pred, frame_record(fact)))
            if obs.enabled:
                obs.metrics.inc("store.wal_appends")
        else:
            start = time.perf_counter()
            self._exec(
                "INSERT INTO wal (op, pred, fact) VALUES (?, ?, ?)",
                (op, fact.pred, frame_record(fact)),
            )
            self._wal_tail += 1
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            if obs.enabled:
                obs.metrics.inc("store.wal_appends")
                obs.metrics.observe("store.wal_fsync_ms", elapsed_ms)
        self._maybe_crash("post-fsync", tick)

    def _flush_wal_buffer(self, saved: Database) -> None:
        """Write every staged WAL row in one SQL transaction (single
        fsync).  If the write fails, nothing of the batch is durable:
        the mirror returns to *saved*, the state before the outermost
        scope opened, and the error propagates."""
        rows, self._wal_buffer = self._wal_buffer, []
        if self._lease is not None:
            self._lease.renew()
        start = time.perf_counter()
        try:
            self._exec("BEGIN IMMEDIATE")
            self._exec_many(
                "INSERT INTO wal (op, pred, fact) VALUES (?, ?, ?)", rows
            )
            self._exec("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            self._db = saved
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._wal_tail += len(rows)
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.wal_batched", len(rows))
            obs.metrics.observe("store.wal_fsync_ms", elapsed_ms)

    def _log_update(self, op: str, fact: Atom, new_db: Database) -> Database:
        """Log one effective update: its WAL row first, then the mirror
        moves to *new_db*, then the counter and the checkpoint test.  A
        commit passes the mirror itself: it moves once, at the end."""
        self._append(op, fact)
        self._db = new_db
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.inserts" if op == "+" else "store.deletes")
        self._maybe_checkpoint()
        return new_db

    def insert(self, fact: Atom) -> Database:
        self._check_writable()
        new_db = self._db.insert(fact)
        if new_db is self._db:  # already present: sets, like the paper
            return self._db
        return self._log_update("+", fact, new_db)

    def delete(self, fact: Atom) -> Database:
        self._check_writable()
        new_db = self._db.delete(fact)
        if new_db is self._db:
            return self._db
        return self._log_update("-", fact, new_db)

    def commit(self, initial: Database, final: Database, trace) -> None:
        """Commit one execution without deriving its states: one WAL row
        per effective update of *trace*, one savepoint scope per ``iso``
        and ``table`` subtrace under a top-level one, and the mirror set
        to *final* before the top-level release writes the rows."""
        self._check_initial(initial)
        with self.transaction():
            self._stage(trace, initial, {})
            self._db = final

    def _stage(self, actions, initial: Database, present: Dict[Atom, bool]) -> None:
        """Stage the effective updates of *actions*.  An update is
        effective when it flips its fact's presence in *initial* as the
        trace's earlier updates left it (*present*)."""
        for action in actions:
            kind = action.kind
            if kind == "ins" or kind == "del":
                fact = action.atom
                insert = kind == "ins"
                if present.get(fact, fact in initial) is not insert:
                    self._check_writable()
                    present[fact] = insert
                    self._log_update("+" if insert else "-", fact, self._db)
            elif kind == "iso" or kind == "table":
                with self.transaction():
                    self._stage(action.subtrace, initial, present)

    # -- transactions (iso -> savepoint) ---------------------------------------
    #
    # Scopes live on ``_stack`` only: nothing is written inside one, so
    # opening, an inner release and a rollback need no SQL.

    def savepoint(self) -> Savepoint:
        self._check_writable()
        self._serial += 1
        sp = Savepoint("iso_%d" % self._serial, depth=len(self._stack))
        self._stack.append((sp, self._db, len(self._wal_buffer)))
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.savepoints")
        return sp

    def _pop_to(self, sp: Savepoint) -> Tuple[Database, int]:
        while self._stack:
            top, saved, mark = self._stack.pop()
            if top is sp:
                return saved, mark
        raise StoreError("unknown or already-closed savepoint: %r" % (sp,))

    def release(self, sp: Savepoint) -> None:
        self._check_writable()
        saved, _mark = self._pop_to(sp)
        self._released += 1
        # The torn moment of a commit: the scope is logically decided
        # but its staged rows are never written, so they die with the
        # process -- rollback-on-reopen, like any open scope.
        self._maybe_crash("mid-savepoint-release", self._released)
        # An inner release folds its staged rows into the parent scope
        # (the buffer is shared; only marks separate scopes); the
        # outermost release writes the whole batch in one transaction.
        if not self._stack and self._wal_buffer:
            self._flush_wal_buffer(saved)
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.releases")
        # WAL rows from the released scope are durable now; fold them
        # if the tail has grown past the threshold (or a fold was
        # deferred while this scope was open).
        self._maybe_checkpoint()

    def rollback(self, sp: Savepoint) -> None:
        self._check_writable()
        saved, mark = self._pop_to(sp)
        # Discard the rows this scope (and any nested scope) staged;
        # rows staged by still-open outer scopes stay buffered.
        del self._wal_buffer[mark:]
        self._db = saved
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.rollbacks")
        # A drained stack may unblock a checkpoint deferred inside the
        # aborted scope.
        self._maybe_checkpoint()

    # -- checkpointing ---------------------------------------------------------

    def _count_wal_tail(self) -> int:
        """The committed WAL rows past the checkpoint, read from SQLite
        (once per open; ``_wal_tail`` keeps the count from then on)."""
        try:
            return self._conn.execute(
                "SELECT COUNT(*) FROM wal WHERE seq > ?",
                (self._meta("checkpoint_seq", 0),),
            ).fetchone()[0]
        except sqlite3.Error as exc:
            raise self._sqlite_guard(exc)

    def _wal_length(self) -> int:
        # Staged-but-unflushed rows count: they will land at the next
        # outermost release, and the deferral bookkeeping in
        # _maybe_checkpoint should see the tail they are about to form.
        return self._wal_tail + len(self._wal_buffer)

    def _maybe_checkpoint(self) -> None:
        if self._wal_length() < self.snapshot_every:
            # Also the end of any deferral episode: a rollback may have
            # erased the very rows that tripped the threshold.
            self._checkpoint_deferred = False
            return
        # Never checkpoint inside an open savepoint: the mirror holds
        # uncommitted state a snapshot must not capture.  Count the
        # deferral (once per episode) and retry the moment the stack
        # drains -- release() and rollback() both call back here, so
        # long-lived iso nesting cannot starve checkpoints forever.
        if self._stack:
            if not self._checkpoint_deferred:
                self._checkpoint_deferred = True
                obs = active()
                if obs.enabled:
                    obs.metrics.inc("store.checkpoint_deferred")
            return
        self.checkpoint()

    def checkpoint(self) -> int:
        """Fold the WAL tail into the snapshot; returns the new
        generation.  The fold writes only where the snapshot and the
        mirror differ: it deletes the rows of facts the mirror no longer
        holds (and any duplicate row), inserts a row for each fact that
        has none, and combines ``snapshot_digest`` from the per-row
        digests it keeps.  One SQL transaction, so a crash during the
        fold leaves the previous snapshot + WAL intact."""
        self._check_writable()
        if self._stack:
            raise StoreError("cannot checkpoint inside an open savepoint")
        self._checkpoints += 1
        watermark = self._conn.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM wal"
        ).fetchone()[0]
        generation = self._meta("generation") + 1
        rows = self._snapshot_rows
        kept: Dict[Atom, Tuple[int, bytes]] = {}
        added = []
        for fact in self._db:
            entry = rows.get(fact)
            if entry is None:
                added.append((fact, frame_record(fact)))
            else:
                kept[fact] = entry
        stale = [(rowid,) for fact, (rowid, _) in rows.items() if fact not in kept]
        stale += [(rowid,) for rowid in self._duplicate_rows]
        self._exec("BEGIN IMMEDIATE")
        try:
            self._exec_many("DELETE FROM snapshot WHERE rowid=?", stale)
            first = self._exec(
                "SELECT COALESCE(MAX(rowid), 0) + 1 FROM snapshot"
            ).fetchone()[0]
            inserts = []
            for rowid, (fact, blob) in enumerate(added, first):
                kept[fact] = (rowid, _record_digest(blob))
                inserts.append((rowid, fact.pred, blob))
            self._exec_many(
                "INSERT INTO snapshot (rowid, pred, fact) VALUES (?, ?, ?)",
                inserts,
            )
            self._exec(
                "UPDATE meta SET value=? WHERE key='generation'", (generation,)
            )
            self._exec(
                "UPDATE meta SET value=? WHERE key='checkpoint_seq'",
                (watermark,),
            )
            self._exec(
                "INSERT INTO meta (key, value) VALUES ('snapshot_digest', ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (_combine_digests(digest for _, digest in kept.values()),),
            )
            self._exec("DELETE FROM wal WHERE seq <= ?", (watermark,))
            # The torn moment of a fold: every row written, nothing
            # committed -- the implicit rollback on reopen restores the
            # previous snapshot + WAL exactly.
            self._maybe_crash("mid-checkpoint-fold", self._checkpoints)
            self._exec("COMMIT")
        except BaseException:
            # An injected crash already closed the connection (which
            # rolls the fold back); unwind politely otherwise.
            if not self._crashed:
                self._conn.execute("ROLLBACK")
            raise
        self._snapshot_rows, self._duplicate_rows = kept, []
        self._wal_tail = 0
        self._checkpoint_deferred = False
        obs = active()
        if obs.enabled:
            obs.metrics.inc("store.snapshots")
        return generation

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        self._check_live()
        if self.readonly:
            return
        self._conn.execute("PRAGMA wal_checkpoint(FULL)")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Closing with open savepoints rolls their scopes back (SQLite
        # closes the transaction on disconnect) -- same as a crash.
        try:
            self._conn.close()
        finally:
            if self._lease is not None:
                self._lease.release()

    # -- introspection --------------------------------------------------------

    def stats(self):
        self._check_live()
        out = super().stats()
        out.update(
            path=self.path,
            readonly=self.readonly,
            degraded=self.degraded,
            schema_version=SCHEMA_VERSION if self.degraded is None else None,
            generation=self._meta("generation", 0),
            checkpoint_seq=self._meta("checkpoint_seq", 0),
            wal_length=self._wal_length(),
            snapshot_facts=self._conn.execute(
                "SELECT COUNT(*) FROM snapshot"
            ).fetchone()[0],
            open_savepoints=len(self._stack),
            lease=read_lease(self.path),
            quarantine=os.path.exists(self.path + QUARANTINE_SUFFIX),
        )
        return out
