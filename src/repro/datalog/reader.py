"""The engine's reader: query-only TD goals on the Datalog engine.

A goal that is one tuple test, or one call whose reachable rules
:func:`repro.datalog.from_td` translates, reads one database state and
leaves it as it was: its meaning is a set of answer bindings, and the
paper's T5 row says that is classical Datalog.  :class:`DatalogReader`
evaluates such a goal bottom-up:

* a test is one :meth:`Database.match`;
* a call with a constant argument runs the magic-sets program of its
  binding pattern (:mod:`repro.datalog.magic`), seeded with the call's
  constants, so only facts relevant to the call are derived;
* any other call runs seminaive evaluation of the rules it reaches.

Both fixpoints run over in-memory states only: unlike
:func:`repro.datalog.evaluate`, a read never materializes derived facts
into a store.  The translation is cached per program (rules per
signature, magic program per binding pattern), so engines built afresh
for each goal over one program translate once.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from ..core.database import Database
from ..core.errors import UnsupportedProgramError
from ..core.formulas import Call, Formula, Test, ordered_variables, walk_formulas
from ..core.interpreter import Solution, _resolve_store
from ..core.parser import as_goal
from ..core.program import Program
from ..core.terms import Atom, Constant, Signature
from ..core.unify import apply_atom
from ..obs import context as _context
from .ast import DatalogProgram
from .engine import _evaluate_seminaive, _rule_from_td
from .magic import magic_seed, magic_transform

__all__ = ["DatalogReader"]


class _Translation:
    """One program's Datalog translation: per called signature, the
    rules it reaches (``None`` when :func:`from_td` refuses one), and
    per binding pattern, the magic program and its answer predicate.
    Holds no reference to the program, which keys it weakly."""

    __slots__ = ("rules", "magic")

    def __init__(self):
        self.rules: Dict[Signature, Optional[DatalogProgram]] = {}
        self.magic: Dict[Tuple[Signature, str], Tuple[DatalogProgram, str]] = {}


_TRANSLATIONS: "weakref.WeakKeyDictionary[Program, _Translation]" = (
    weakref.WeakKeyDictionary()
)


def _translated(program: Program, sig: Signature) -> Optional[DatalogProgram]:
    """The Datalog program of the rules a call to *sig* reaches, or
    ``None`` when one of them has no Datalog meaning (cached)."""
    translation = _TRANSLATIONS.get(program)
    if translation is None:
        translation = _TRANSLATIONS[program] = _Translation()
    try:
        return translation.rules[sig]
    except KeyError:
        pass
    reached: Set[Signature] = {sig}
    stack = [sig]
    while stack:
        for rule in program.rules_for(stack.pop()):
            for sub in walk_formulas(rule.body):
                if isinstance(sub, Call) and sub.atom.signature not in reached:
                    reached.add(sub.atom.signature)
                    stack.append(sub.atom.signature)
    try:
        datalog = DatalogProgram(
            _rule_from_td(rule) for rule in program.rules
            if rule.head.signature in reached
        )
    except ValueError:
        datalog = None
    translation.rules[sig] = datalog
    return datalog


def _magic(program: Program, datalog: DatalogProgram, call: Atom, seed: Atom):
    """``(magic program, answer predicate)`` for *call*'s binding
    pattern, which *seed*'s predicate names (cached)."""
    cache = _TRANSLATIONS[program].magic
    key = (call.signature, seed.pred)
    entry = cache.get(key)
    if entry is None:
        magic_program, _seeds, answer_pred = magic_transform(datalog, call)
        entry = cache[key] = (magic_program, answer_pred)
    return entry


def _edb(db: Database, datalog: DatalogProgram) -> Database:
    """*db* without stored facts of *datalog*'s derived predicates: a TD
    call unfolds its rules and never reads such facts."""
    stale = [
        fact for pred, arity in datalog.idb for fact in db.facts(pred)
        if fact.arity == arity
    ]
    return db.delete_all(stale) if stale else db


class DatalogReader:
    """Evaluates the reads :meth:`serves` accepts, bottom-up.

    ``store`` (duck-typed, see :class:`repro.store.Store`) supplies the
    state when ``solve`` is called without a database; the reader only
    reads it.  Raises :class:`UnsupportedProgramError` on a goal it does
    not serve.
    """

    def __init__(self, program: Program, *, store=None):
        self.program = program
        self.store = store

    def serves(self, goal: Formula) -> bool:
        """True for a single tuple test, and for a single call whose
        reachable rules all translate to Datalog."""
        goal = self.program.resolve_goal(goal)
        if isinstance(goal, Test):
            return True
        return isinstance(goal, Call) and (
            _translated(self.program, goal.atom.signature) is not None
        )

    def solve(
        self, goal: Union[str, Formula], db: Optional[Database] = None
    ) -> Iterator[Solution]:
        """Enumerate the answer bindings of *goal*, each with the state
        it read.  With ``db=None`` the state comes from the attached
        store (explicit ``store=`` or the ambient provider)."""
        _, db = _resolve_store(self.store, db)
        goal = self.program.resolve_goal(as_goal(goal))
        if not self.serves(goal):
            raise UnsupportedProgramError(
                "the reader runs one tuple test, or one call whose rules "
                "translate to Datalog; %s needs the interpreter" % (goal,)
            )
        ev = _context.capture()
        yield from _context.observed_pulls(
            ev, self._answers(goal, db, ev), "seminaive"
        )

    def _answers(self, goal, db: Database, ev) -> Iterator[Solution]:
        goal_vars = ordered_variables(goal)
        root = ev.config(goal) if ev is not None else None
        with _context.span(ev, "solve", engine="datalog", goal=str(goal)):
            pattern = goal.atom
            facts = db
            if isinstance(goal, Call):
                datalog = _translated(self.program, pattern.signature)
                fixpoint_ev = ev.nested(root) if ev is not None else None
                if any(isinstance(t, Constant) for t in pattern.args):
                    seed = magic_seed(pattern)
                    magic_program, answer_pred = _magic(
                        self.program, datalog, pattern, seed
                    )
                    edb = _edb(db, magic_program).insert(seed)
                    facts = _evaluate_seminaive(magic_program, edb, True, fixpoint_ev)
                    pattern = Atom(answer_pred, pattern.args)
                else:
                    facts = _evaluate_seminaive(
                        datalog, _edb(db, datalog), True, fixpoint_ev
                    )
            for theta in facts.match(pattern):
                bindings = {v: theta[v] for v in goal_vars}
                if ev is not None:
                    # Label the answer with the bindings applied, so the
                    # proof reads `path(a, b)`, not the open `path(a, X)`.
                    ev.answer(root, lambda: (apply_atom(goal.atom, bindings), bindings))
                yield Solution(bindings, db)

    def succeeds(self, goal: Union[str, Formula], db: Optional[Database] = None) -> bool:
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(
        self, goal: Union[str, Formula], db: Optional[Database] = None
    ) -> Set[Database]:
        return {sol.database for sol in self.solve(goal, db)}
