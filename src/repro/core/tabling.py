"""Answer tabling for the concurrent interpreter.

The T6 row of the paper observes that test+insert TD admits
Datalog-style tabled evaluation; Fodor & Kifer ("Efficient Tabling
Mechanisms for Transaction Logic Programs") give the algorithms for the
sequential Horn case, which :mod:`repro.core.seqeval` already
implements.  This module brings the same idea to the *concurrent*
interpreter (:class:`repro.core.interpreter.Interpreter`), where it is
only sound in restricted positions:

* A call in **head position** -- the whole process is ``p(t)`` or
  ``p(t) * rest`` -- executes with no possibility of external
  interleaving: sequential composition is a barrier, so every complete
  execution of ``p(t)`` from the current database is a pure function of
  the pair ``(canonical call, database)``.  Those executions are what an
  :class:`AnswerTable` caches.  A call *inside* a concurrent
  composition is never tabled (big-stepping it would erase the
  interleavings the bank example of the paper depends on).

* An ``iso(body)`` sub-search is atomic by construction, so its
  complete execution set is likewise a pure function of
  ``(canonical body, database)`` and is memoized the same way.

Keys are **delta-encoded**: the first database seen for a canonical
call shape becomes the shape's *base snapshot*, and every further state
is keyed by the two fact sets that differ from the base
(:meth:`repro.core.database.Database.difference` both ways).  A table
entry therefore costs the changed tuples, not a full database copy, and
the ``table.delta_bytes`` counter reports the encoded size.

Answers support **subsumption**: an answer binding strictly fewer
argument positions than an existing one -- same final database --
retires the more specific answer (and an arriving answer that is an
instance of a stored one is dropped).  This is the classic
answer-subsumption order; on workloads whose answers are ground (all of
the profile suite and chaos workloads) it is invisible in the solution
set, which is what the differential oracle in
``tests/core/test_tabling.py`` pins.

Recursive calls use consumer/generator **suspension** in the local-SLG
style: the generator for a key iterates the matching rule bodies; a
nested occurrence of an in-progress key consumes the current answer
snapshot instead of re-expanding, and the generator loops until a
global answer stamp stabilizes.  An entry is marked complete only when
its final round depended on no in-progress key other than itself.

``tabling=False`` on the interpreter keeps the naive search as the
differential oracle, and -- same discipline as ``por=False`` -- tabling
is bypassed entirely while a fault injector is attached, so chaos
reports stay byte-identical.  :func:`tabling_disabled` force-disables
it process-wide for audits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from .database import Database
from .terms import Atom, Term, Variable

__all__ = [
    "AnswerTable",
    "TableEntry",
    "canonical_call",
    "subsumes",
    "tabling_disabled",
    "tabling_forced_off",
]

#: Process-wide force-off switch, mirrored from the POR reducer's
#: discipline (:func:`repro.core.por.por_disabled`): audits flip it to
#: rebuild a workload with tabling off without threading a parameter
#: through every construction site.
_FORCE_DISABLED = False


def tabling_forced_off() -> bool:
    """True while a :func:`tabling_disabled` block is active."""
    return _FORCE_DISABLED


@contextmanager
def tabling_disabled():
    """Force-disable tabling for interpreters *constructed* inside the
    block (the differential smoke in CI and the profile audits)."""
    global _FORCE_DISABLED
    prev = _FORCE_DISABLED
    _FORCE_DISABLED = True
    try:
        yield
    finally:
        _FORCE_DISABLED = prev


def canonical_call(atom: Atom) -> Tuple[Atom, List[Variable]]:
    """Rename the atom's variables to V0, V1, ... in order of occurrence.

    Same convention as the sequential engine's table keys: constants
    stay, repeated variables share one canonical name.  Returns the
    canonical atom and the original variables in canonical index order,
    so served answers can be mapped back onto the caller's terms.
    """
    mapping: Dict[Variable, Variable] = {}
    originals: List[Variable] = []
    args: List[Term] = []
    for t in atom.args:
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable("V%d" % len(mapping))
                originals.append(t)
            args.append(mapping[t])
        else:
            args.append(t)
    return Atom(atom.pred, tuple(args)), originals


def _normalize_values(values: Tuple[Term, ...]) -> Tuple[Term, ...]:
    """Canonicalize the unbound positions of an answer tuple.

    Distinct unbound variables become A0, A1, ... in order of
    occurrence (repeats share a name), so two answers differing only in
    fresh-variable identity deduplicate, and the subsumption check can
    treat any ``A``-variable as "unbound here".
    """
    mapping: Dict[Variable, Variable] = {}
    out: List[Term] = []
    for t in values:
        if isinstance(t, Variable):
            if t not in mapping:
                mapping[t] = Variable("A%d" % len(mapping))
            out.append(mapping[t])
        else:
            out.append(t)
    return tuple(out)


def subsumes(general: Tuple[Term, ...], specific: Tuple[Term, ...]) -> bool:
    """True if *general* covers *specific*: every bound position of
    *general* is identical in *specific* (an unbound -- variable --
    position of *general* matches anything).  Both tuples must be
    normalized (:func:`_normalize_values`); equal tuples subsume."""
    if len(general) != len(specific):
        return False
    for g, s in zip(general, specific):
        if isinstance(g, Variable):
            continue
        if isinstance(s, Variable) or g != s:
            return False
    return True


#: One cached answer: canonical values per argument position, the final
#: database, and the elementary-action trace of the execution that
#: produced it (replayable via ``replay_actions``).
_Answer = Tuple[Tuple[Term, ...], Database, Tuple[object, ...]]


class TableEntry:
    """All known answers for one ``(canonical call, database)`` key.

    ``order`` preserves discovery order (the serve order, which keeps
    tabled runs deterministic); ``answers`` indexes the same records by
    ``(values, final_db)`` for dedup and subsumption.  ``active`` is
    True while this entry's generator is on the stack; ``round_deps``
    collects the in-progress entries whose snapshots this entry's
    current generation round consumed (completion is only sound when
    the final round depended on nothing in flight but itself).
    """

    __slots__ = ("answers", "order", "complete", "active", "round_deps")

    def __init__(self):
        self.answers: Dict[Tuple[Tuple[Term, ...], Database], _Answer] = {}
        self.order: List[_Answer] = []
        self.complete = False
        self.active = False
        self.round_deps: set = set()

    def add(self, values, final_db, trace) -> Tuple[Optional[_Answer], int]:
        """Record an answer; returns ``(answer, retired)`` where
        *answer* is the normalized record if it was new (``None`` if a
        stored answer already subsumes it) and *retired* counts the more
        specific stored answers the new one displaced."""
        values = _normalize_values(values)
        key = (values, final_db)
        if key in self.answers:
            return None, 0
        for (stored, db), _ in self.answers.items():
            if db == final_db and subsumes(stored, values):
                return None, 0
        retired = [
            k
            for k, _ in self.answers.items()
            if k[1] == final_db and subsumes(values, k[0])
        ]
        for k in retired:
            record = self.answers.pop(k)
            self.order.remove(record)
        answer = (values, final_db, trace)
        self.answers[key] = answer
        self.order.append(answer)
        return answer, len(retired)


class _ShapeTable:
    """Entries for one canonical call shape, keyed by the delta between
    each database and the shape's base snapshot (the first database the
    shape was called from).  The delta is a bijection of the database
    given the base, so two states share an entry iff they are equal --
    the entry just never stores a second full database."""

    __slots__ = ("base", "entries")

    def __init__(self, base: Database):
        self.base = base
        self.entries: Dict[
            Tuple[frozenset, frozenset], TableEntry
        ] = {}

    def delta_key(self, db: Database) -> Tuple[frozenset, frozenset]:
        if db is self.base:
            return (frozenset(), frozenset())
        return (db.difference(self.base), self.base.difference(db))


def _delta_cost(delta: Tuple[frozenset, frozenset]) -> int:
    """Encoded size of a delta key: the rendered changed tuples."""
    added, removed = delta
    return sum(len(str(f)) for f in added) + sum(len(str(f)) for f in removed)


class AnswerTable:
    """The per-interpreter table: call-shape tables plus the iso memo.

    ``stamp`` increments on every stored answer anywhere, which is the
    generators' global fixpoint signal.  ``generating`` is the stack of
    entries whose generators are currently running; consuming an
    in-progress entry's snapshot marks every stacked generator so none
    of them completes on stale information.

    ``max_keys`` bounds the number of interned keys (call and iso
    combined): past it, new keys run untabled (``table.capped``
    counts), so an adversarial workload degrades to the naive search
    instead of exhausting memory.
    """

    def __init__(self, max_keys: int = 100_000):
        self.max_keys = max_keys
        self._shapes: Dict[Atom, _ShapeTable] = {}
        self._iso: Dict[object, _ShapeTable] = {}
        self.stamp = 0
        self.generating: List[TableEntry] = []
        self.keys = 0
        self.capped = 0

    # -- call tables -------------------------------------------------------------

    def entry(
        self, canon: Atom, db: Database
    ) -> Tuple[Optional[TableEntry], int]:
        """The entry for ``(canon, db)``, interning a key if needed;
        returns ``(entry, delta_bytes)`` where *delta_bytes* is the cost
        of a newly interned key (0 for an existing one) -- or
        ``(None, 0)`` when the key cap is reached."""
        return self._intern(self._shapes, canon, db)

    def peek(self, canon: Atom, db: Database) -> Optional[TableEntry]:
        """The entry for ``(canon, db)`` if one exists (no interning)."""
        shape = self._shapes.get(canon)
        if shape is None:
            return None
        return shape.entries.get(shape.delta_key(db))

    # -- iso memo ----------------------------------------------------------------

    def iso_entry(
        self, body_key: object, db: Database
    ) -> Tuple[Optional[TableEntry], int]:
        """Same contract as :meth:`entry`, keyed by a canonical body
        shape (``transitions._ckey_pair``) instead of a call atom."""
        return self._intern(self._iso, body_key, db)

    def _intern(
        self, shapes: Dict[object, "_ShapeTable"], shape_key: object, db: Database
    ) -> Tuple[Optional[TableEntry], int]:
        shape = shapes.get(shape_key)
        if shape is None:
            shape = shapes[shape_key] = _ShapeTable(db)
        delta = shape.delta_key(db)
        entry = shape.entries.get(delta)
        if entry is not None:
            return entry, 0
        if self.keys >= self.max_keys:
            self.capped += 1
            return None, 0
        entry = shape.entries[delta] = TableEntry()
        self.keys += 1
        return entry, _delta_cost(delta)

    # -- bookkeeping -------------------------------------------------------------

    def note_consumed(self, entry: TableEntry) -> None:
        """An in-progress *entry*'s snapshot was served: no generator on
        the stack may complete this round on the strength of it."""
        for g in self.generating:
            g.round_deps.add(id(entry))

    def answer_count(self) -> int:
        return sum(
            len(e.order)
            for shape in list(self._shapes.values()) + list(self._iso.values())
            for e in shape.entries.values()
        )

    # -- checkpoint support ------------------------------------------------------

    def snapshot(self) -> tuple:
        """A picklable warm-table snapshot for :class:`Checkpoint`.

        Captures every entry's answers and completion flag (an entry
        interrupted mid-generation is kept as a warm incomplete entry);
        the transient generator state (``active``, ``round_deps``) is
        deliberately not part of it.
        """

        def dump(shapes):
            return tuple(
                (
                    key,
                    shape.base,
                    tuple(
                        (
                            delta,
                            entry.complete and not entry.active,
                            tuple(entry.order),
                        )
                        for delta, entry in shape.entries.items()
                    ),
                )
                for key, shape in shapes.items()
            )

        return (dump(self._shapes), dump(self._iso), self.max_keys)

    @classmethod
    def restore(cls, snap: tuple) -> "AnswerTable":
        calls, isos, max_keys = snap
        table = cls(max_keys=max_keys)

        def load(dumped, target):
            for key, base, entries in dumped:
                shape = target[key] = _ShapeTable(base)
                for delta, complete, answers in entries:
                    entry = shape.entries[delta] = TableEntry()
                    table.keys += 1
                    for values, final_db, trace in answers:
                        entry.add(values, final_db, trace)
                    entry.complete = complete

        load(calls, table._shapes)
        load(isos, table._iso)
        return table
