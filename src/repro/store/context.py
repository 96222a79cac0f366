"""Ambient store provider: attach a storage backend to a whole region
of code without threading ``store=`` through every call.

Mirrors the explicit-beats-ambient pattern of
:mod:`repro.obs.provenance`: engines that were not given an explicit
``store=`` consult :func:`active_store_provider` at solve entry; an
explicit keyword always wins.  A *provider* is anything with
``provide(db) -> Store | None`` -- it may hand out one shared store, or
mint a fresh one per solve (what the backend-differential test and the
``STORE=sqlite`` CI matrix do, so each engine run gets its own file).

This module deliberately imports nothing from :mod:`repro.core`: the
core duck-types the stores it receives, and this file keeps the
provider state equally dependency-free, so there is no import cycle
anywhere in the package.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "StoreProvider",
    "active_store_provider",
    "using_store_provider",
    "provide_store",
]

_ACTIVE: Optional["StoreProvider"] = None


class StoreProvider:
    """Hand out the same store to every consulting engine.

    Subclass (or just supply any object with ``provide``) to mint
    per-solve stores instead.
    """

    def __init__(self, store):
        self.store = store

    def provide(self, db):
        """Return a store for a solve starting from *db* (may ignore
        *db*, may return ``None`` to decline)."""
        return self.store


def active_store_provider() -> Optional[StoreProvider]:
    """The provider installed by :func:`using_store_provider`, if any."""
    return _ACTIVE


@contextmanager
def using_store_provider(provider) -> Iterator:
    """Install *provider* as the ambient store source for the dynamic
    extent of the ``with`` block (providers do not nest meaningfully;
    the innermost wins, and the previous one is restored on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = provider
    try:
        yield provider
    finally:
        _ACTIVE = previous


def provide_store(db):
    """Consult the ambient provider for a store seeded from *db*
    (``None`` when no provider is installed or it declines)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.provide(db)
