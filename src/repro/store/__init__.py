"""Pluggable storage backends for TD database states.

See :mod:`repro.store.base` for the protocol and docs/STORAGE.md for
the backend matrix, savepoint mapping, recovery procedure, and the
failure matrix (crash point x recovery outcome x detection signal).

The one-liner entry point is :func:`open_store`::

    store = open_store("mem")                 # volatile reference backend
    store = open_store("sqlite:run.tdlog")    # WAL-durable SQLite file
    store = open_store("run.tdlog")           # extension implies sqlite
    store = open_store("run.tdlog", readonly=True)  # degraded-tolerant

which is exactly what ``tdlog --store`` feeds through.  Offline
verification and repair live in :mod:`repro.store.fsck` (``tdlog store
fsck``); the cross-process writer lease in :mod:`repro.store.lease`.
"""

from __future__ import annotations

from typing import Optional

from ..core.database import Database
from .base import (
    Savepoint,
    Store,
    StoreBusy,
    StoreCorrupt,
    StoreCrashed,
    StoreError,
)
from .context import (
    StoreProvider,
    active_store_provider,
    provide_store,
    using_store_provider,
)
from .fsck import FsckIssue, FsckReport, format_fsck, fsck
from .lease import DEFAULT_LEASE_TTL, LEASE_SUFFIX, WriterLease, read_lease
from .memory import MemoryStore
from .sqlite import QUARANTINE_SUFFIX, SCHEMA_VERSION, SqliteStore

__all__ = [
    "Store",
    "StoreError",
    "StoreCorrupt",
    "StoreBusy",
    "StoreCrashed",
    "Savepoint",
    "MemoryStore",
    "SqliteStore",
    "SCHEMA_VERSION",
    "QUARANTINE_SUFFIX",
    "WriterLease",
    "read_lease",
    "LEASE_SUFFIX",
    "DEFAULT_LEASE_TTL",
    "FsckIssue",
    "FsckReport",
    "fsck",
    "format_fsck",
    "StoreProvider",
    "active_store_provider",
    "using_store_provider",
    "provide_store",
    "open_store",
]

#: Conventional file extension for SQLite-backed stores.
STORE_SUFFIX = ".tdlog"


def open_store(
    spec: str,
    *,
    db: Optional[Database] = None,
    faults=None,
    snapshot_every: Optional[int] = None,
    readonly: bool = False,
) -> Store:
    """Open a store from a CLI-style spec.

    ``"mem"`` gives a :class:`MemoryStore` (optionally seeded with
    *db*); ``"sqlite:PATH"`` -- or a bare path ending in ``.tdlog`` --
    opens a :class:`SqliteStore` at PATH.  A durable store that already
    holds facts keeps them (that is the point); *db* seeds it only when
    the file is fresh and empty.

    ``readonly=True`` opens a durable store without the writer lease
    and degraded-tolerant (recovery stops at -- rather than raises on
    -- damaged bytes; see ``stats()["degraded"]``), so an operator can
    always inspect a damaged or in-use store.  Volatile stores have
    nothing to inspect, so ``mem`` + ``readonly`` is an error.
    """
    if spec == "mem":
        if readonly:
            raise StoreError("readonly open is only meaningful for durable stores")
        return MemoryStore(db)
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
    elif spec.endswith(STORE_SUFFIX):
        path = spec
    else:
        raise StoreError(
            "unknown store spec %r (expected 'mem', 'sqlite:PATH', "
            "or a path ending in %r)" % (spec, STORE_SUFFIX)
        )
    if not path:
        raise StoreError("empty path in store spec %r" % (spec,))
    kwargs = {"faults": faults, "readonly": readonly}
    if snapshot_every is not None:
        kwargs["snapshot_every"] = snapshot_every
    store = SqliteStore(path, **kwargs)
    if db is not None and not readonly and len(store) == 0 and len(db) > 0:
        store.insert_all(db)
    return store
