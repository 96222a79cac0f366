"""Answer tabling for the interpreter.

The T6 row of the paper observes that test+insert TD admits
Datalog-style tabled evaluation; Fodor & Kifer ("Efficient Tabling
Mechanisms for Transaction Logic Programs") give the algorithms for the
sequential Horn case.  This module tables the interpreter
(:class:`repro.core.interpreter.Interpreter`), which the engine façade
runs on every goal that updates, so on ``|``-free programs it is the
decision procedure of sequential TD (docs/SEMANTICS.md section 3);
reads run bottom-up on the Datalog reader (:mod:`repro.datalog.reader`).
A table is only sound in restricted positions:

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
  ``(canonical body, database)``.  It is an entry of the same table,
  generated like a call whose only rule body is ``body``.

A table key is the pair ``(canonical call or body shape, database)``:
states are immutable and cache their hash, so a lookup costs one dict
probe.  Each entry keeps its answers -- normalized values plus final
database -- in one insertion-ordered dict, which is both the dedup
index and the serve order.  Every answer is kept, non-ground ones
included, so the tabled search returns exactly the naive search's
(answers, final database) pairs; the differential oracles in
``tests/core/test_tabling.py`` and ``tests/property/`` pin that.

Recursive calls use consumer/generator **suspension** in the local-SLG
style: the generator for a key iterates its alternatives (the matching
rule bodies of a call, or the one body of an ``iso``); a nested
occurrence of an in-progress call consumes the current answer snapshot
instead of re-expanding, and the generator loops until a global answer
stamp stabilizes.  An entry is marked complete only when its final
round depended on no in-progress key other than itself.  An
in-progress ``iso`` body met again runs untabled instead: the
depth-first scheduler pulls steps lazily, so its generator may be a
paused earlier step rather than an enclosing one.

``tabling=False`` on the interpreter keeps the naive search as the
differential oracle, and -- same discipline as ``por=False`` -- tabling
is bypassed entirely while a fault injector is attached, so chaos
reports stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .database import Database
from .terms import Atom, Term, Variable

__all__ = ["AnswerTable", "TableEntry", "canonical_call"]


def canonical_call(atom: Atom) -> Tuple[Atom, List[Variable]]:
    """Rename the atom's variables to V0, V1, ... in order of occurrence.

    Constants stay, and repeated variables share one canonical name.
    Returns the
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
    fresh-variable identity deduplicate and the answer set stays finite.
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


#: One cached answer: canonical values per argument position, the final
#: database, and the elementary-action trace of the execution that
#: produced it (replayable via ``replay_actions``).
_Answer = Tuple[Tuple[Term, ...], Database, Tuple[object, ...]]

#: Bound on the interned keys of one table (calls and iso bodies alike):
#: past it, new keys run untabled (``table.capped`` counts), so an
#: adversarial workload degrades to the naive search instead of
#: exhausting memory.
MAX_KEYS = 100_000


class TableEntry:
    """All known answers for one ``(canonical call or body, database)`` key.

    ``answers`` maps each normalized ``(values, final_db)`` pair to its
    record, in discovery order -- the serve order, which keeps tabled
    runs deterministic.  ``active`` is True while this entry's
    generator is on the stack; ``round_deps`` collects the in-progress
    entries whose snapshots this entry's current generation round
    consumed (completion is only sound when the final round depended
    on nothing in flight but itself).
    """

    __slots__ = ("answers", "complete", "active", "round_deps")

    def __init__(self):
        self.answers: Dict[Tuple[Tuple[Term, ...], Database], _Answer] = {}
        self.complete = False
        self.active = False
        self.round_deps: set = set()

    def add(self, values, final_db, trace) -> Optional[_Answer]:
        """Record an answer; returns the normalized record if it is new,
        ``None`` if an equal answer is already stored."""
        values = _normalize_values(values)
        key = (values, final_db)
        if key in self.answers:
            return None
        answer = self.answers[key] = (values, final_db, trace)
        return answer


class AnswerTable:
    """The per-interpreter table: one entry per ``(key, database)``, where
    the key is a canonical call atom or a canonical ``iso`` body shape
    (``transitions._ckey_pair``).  An atom never equals a shape tuple,
    so calls and ``iso`` bodies share one key space without colliding.

    ``stamp`` increments on every stored answer anywhere, which is the
    generators' global fixpoint signal.  ``generating`` is the stack of
    entries whose generators are currently running; consuming an
    in-progress entry's snapshot marks every stacked generator so none
    of them completes on stale information.  Past :data:`MAX_KEYS`
    interned keys, lookups return ``None`` and count in ``capped``.
    """

    def __init__(self):
        self._entries: Dict[Tuple[object, Database], TableEntry] = {}
        self.stamp = 0
        self.generating: List[TableEntry] = []
        self.capped = 0

    @property
    def keys(self) -> int:
        return len(self._entries)

    def entry(self, key: object, db: Database) -> Optional[TableEntry]:
        """The entry for ``(key, db)``, interning one if needed;
        ``None`` when the key cap is reached."""
        entry = self._entries.get((key, db))
        if entry is None:
            if len(self._entries) >= MAX_KEYS:
                self.capped += 1
                return None
            entry = self._entries[(key, db)] = TableEntry()
        return entry

    def note_consumed(self, entry: TableEntry) -> None:
        """An in-progress *entry*'s snapshot was served: no generator on
        the stack may complete this round on the strength of it."""
        for g in self.generating:
            g.round_deps.add(id(entry))

    def answer_count(self) -> int:
        return sum(len(e.answers) for e in self._entries.values())

    # -- checkpoint support ------------------------------------------------------

    def snapshot(self) -> tuple:
        """A picklable warm-table snapshot for :class:`Checkpoint`: one
        ``(key, complete, answers)`` row per entry.

        An entry interrupted mid-generation is kept as a warm incomplete
        entry; the transient generator state (``active``,
        ``round_deps``) is deliberately not part of it.
        """
        return tuple(
            (key, e.complete and not e.active, tuple(e.answers.values()))
            for key, e in self._entries.items()
        )

    @classmethod
    def restore(cls, snap: tuple) -> "AnswerTable":
        table = cls()
        for key, complete, answers in snap:
            entry = table._entries[key] = TableEntry()
            entry.answers = {(a[0], a[1]): a for a in answers}
            entry.complete = complete
        return table
