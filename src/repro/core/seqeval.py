"""Tabled big-step evaluator for the reads of sequential Transaction
Datalog.

A goal that uses no ``|`` and whose closure -- the goal plus every rule
it can reach -- neither inserts nor deletes is a *query*: it reads one
database state and leaves it as it was, and its meaning is a set of
answer bindings.  That is classical Datalog with negation and builtins
(the paper's T5 row), and this module is its tabled, top-down decision
procedure.  The engine façade routes such goals here; every goal that
updates runs on the tabled interpreter (:mod:`repro.core.tabling`,
docs/SEMANTICS.md sections 3 and 4), and this engine rejects it with
:class:`UnsupportedProgramError`.

Over one state, the meaning of a call is the relation

    canonical call atom  -->  { answer bindings }

which has a finite table (no new constants are invented), computable
as a least fixpoint.  We compute it by *tabling* with a
dependency-driven worklist: evaluation registers every call it
encounters as a table key and records which keys consulted it; when a
key's answer set grows, only its recorded dependents are re-evaluated.
Termination follows from the finiteness of keys and answers, and
completeness from the monotone least-fixpoint argument.  Recursion
depth is not bounded: a call that revisits a key reads its answers so
far and closes the loop.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import context as _context
from ..obs.context import Observers
from .database import Database, plan_join
from .errors import SafetyError, UnsupportedProgramError
from .analysis import reads_only
from .formulas import (
    Builtin,
    Call,
    Conc,
    Formula,
    Isol,
    Neg,
    NonIntegerArithmetic,
    Seq,
    Test,
    Truth,
    ordered_variables,
    walk_formulas,
)
from .interpreter import Solution, _resolve_store, _same_state
from .parser import as_goal
from .program import Program
from .tabling import canonical_call
from .terms import Atom, Constant, Variable
from .unify import Substitution, apply_atom, walk

__all__ = ["SequentialEngine"]

#: A table answer: constants for the canonical call's variables.
_Answer = Tuple[Constant, ...]

#: Safety bound on worklist drains and goal-seeding passes.  The table is
#: finite for safe programs, so a fixpoint never comes near it; reaching
#: it raises :class:`SearchExhausted_impossible`.
_MAX_ROUNDS = 10_000_000


class _Table:
    """The answer table of one database, keyed by canonical call atom,
    with the worklist's bookkeeping: each callee key's caller keys, in
    the order they first consulted it, and the keys whose rules have
    been evaluated at least once (a key can be computed and still have
    an empty answer set)."""

    __slots__ = ("answers", "dependents", "computed")

    def __init__(self):
        self.answers: Dict[Atom, Set[_Answer]] = {}
        self.dependents: Dict[Atom, Dict[Atom, None]] = {}
        self.computed: Set[Atom] = set()


class SequentialEngine:
    """Decision procedure for query-only sequential TD via tabled
    evaluation.

    Raises :class:`UnsupportedProgramError` on a goal that uses
    concurrent composition or reaches an update.  ``iso(a)`` is
    accepted and equals ``a``: a read has nothing to isolate.
    """

    def __init__(self, program: Program, *, join_order: bool = True, store=None):
        self.program = program
        #: Optional storage backend (see :class:`repro.store.Store` and
        #: docs/STORAGE.md), duck-typed; supplies the initial state when
        #: ``solve`` is called without a database.  Explicit beats the
        #: ambient provider.
        self.store = store
        #: Reorder maximal runs of consecutive tuple tests inside each
        #: sequence by bound-argument selectivity before evaluating.
        #: Sound because tests read but never write: a contiguous test
        #: run is a conjunctive query, and any join order enumerates the
        #: same substitutions.  Negation and builtins are never moved.
        #: Disable to pin the textual order.
        self.join_order = join_order
        # Kept across queries of one database: the table only grows,
        # and its entries are valid whichever goal asked for them.
        self._table = _Table()
        self._table_db: Optional[Database] = None
        # Per-evaluation scratch: keys consulted (insertion-ordered, so
        # the worklist order never depends on hashing) / newly
        # registered.
        self._consulted: Dict[Atom, None] = {}
        self._new_keys: List[Atom] = []

    # -- public API -------------------------------------------------------------

    def solve(
        self, goal: "str | Formula", db: Optional[Database] = None
    ) -> Iterator[Solution]:
        """Enumerate all answer bindings for *goal*, each with the
        database it read.

        *goal* may be a formula or concrete syntax.  Complete and
        terminating: this is a decision procedure.  With ``db=None``
        the initial state comes from the attached store (explicit
        ``store=`` or the ambient provider).
        """
        _, db = _resolve_store(self.store, db)
        goal = self.program.resolve_goal(as_goal(goal))
        if not reads_only(self.program, goal):
            raise UnsupportedProgramError(
                "goal uses | or updates the database; the sequential "
                "evaluator only reads, use the interpreter"
            )
        # Only a call reads the table: a goal without one needs no
        # fixpoint, just the one evaluation that enumerates its answers.
        reads_table = any(isinstance(sub, Call) for sub in walk_formulas(goal))
        table = self._table
        if reads_table:
            # A table serves one database, as the interpreter's does: a
            # solve over another state starts with an empty table, so an
            # engine over a store keeps one state's keys, not every
            # state's.  The solve keeps the table it started with,
            # because its answer replay reads it lazily.  A goal without
            # a call keeps no state alive, so a store's old state is
            # freed when the store moves on, not in a read.
            if table.answers and not _same_state(db, self._table_db):
                table = self._table = _Table()
            self._table_db = db
        goal_vars = ordered_variables(goal)
        ev = _context.capture()
        root = ev.config(goal) if ev is not None else None

        def _search():
            with _context.span(ev, "solve", engine="seqeval", goal=str(goal)):
                if reads_table:
                    with _context.span(ev, "table-fixpoint"), \
                            _context.observing(ev, "fixpoint"):
                        self._run_fixpoint(goal, db, ev, root, table)
                if ev is not None:
                    ev.table_size(*self.table_size)
                emitted = set()
                for theta in self._eval(goal, db, {}, ev, table):
                    bindings = {v: walk(v, theta) for v in goal_vars}
                    key = tuple(sorted(bindings.items()))
                    if key not in emitted:
                        emitted.add(key)
                        if ev is not None:
                            # Label the answer with the bindings applied, so
                            # the proof reads `path(a, b)` rather than the
                            # open goal `path(a, X)`.
                            ev.answer(root, lambda: (
                                apply_atom(goal.atom, bindings)
                                if isinstance(goal, Call) else goal,
                                bindings,
                            ))
                        yield Solution(bindings, db)

        yield from _context.observed_pulls(ev, _search(), "seqeval")

    def succeeds(self, goal: Formula, db: Database) -> bool:
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(self, goal: Formula, db: Database) -> Set[Database]:
        return {sol.database for sol in self.solve(goal, db)}

    @property
    def table_size(self) -> Tuple[int, int]:
        """(number of keys, number of answers) of the current table."""
        answers = self._table.answers
        return len(answers), sum(len(v) for v in answers.values())

    # -- fixpoint driver ----------------------------------------------------------
    #
    # Dependency-driven (semi-naive) tabling: evaluating a key records
    # which callee keys it consulted; when a key's answer set grows, only
    # its recorded dependents are re-evaluated.  Far cheaper than naive
    # rounds -- work is proportional to actual answer propagation, the
    # classical tabling argument.

    def _run_fixpoint(
        self, goal: Formula, db: Database, ev: Optional[Observers], root,
        table: _Table,
    ) -> None:
        answers = table.answers
        dependents = table.dependents
        worklist: List[Atom] = []
        in_worklist: Set[Atom] = set()
        # This solve's call node per key (the table outlives the solve).
        calls: Dict[Atom, Optional[int]] = {}

        def enqueue(key: Atom) -> None:
            if key not in in_worklist:
                in_worklist.add(key)
                worklist.append(key)

        def drain() -> None:
            steps = 0
            while worklist:
                steps += 1
                if steps > _MAX_ROUNDS:  # pragma: no cover - bound
                    raise SearchExhausted_impossible()
                key = worklist.pop()
                in_worklist.discard(key)
                table.computed.add(key)
                before = len(answers.get(key, ()))
                self._consulted = {}
                self._new_keys = []
                self._recompute(key, db, ev, calls, root, table)
                for callee in self._consulted:
                    dependents.setdefault(callee, {})[key] = None
                for fresh in self._new_keys:
                    enqueue(fresh)
                if len(answers.get(key, ())) != before:
                    for dependent in dependents.get(key, ()):
                        enqueue(dependent)

        # Alternate goal-seeding passes with worklist drains: a drain can
        # grow answers that let the *goal* reach call patterns it could
        # not instantiate before, so re-seed until the goal discovers
        # nothing new.
        for _ in range(_MAX_ROUNDS):  # pragma: no branch - returns inside
            self._consulted = {}
            self._new_keys = []
            for _ in self._eval(goal, db, {}, ev, table):
                pass
            for key in self._new_keys:
                enqueue(key)
            for key in self._consulted:
                if key not in table.computed:
                    enqueue(key)
            if not worklist:
                self._consulted = {}
                self._new_keys = []
                return
            drain()
        raise SearchExhausted_impossible()  # pragma: no cover - loop bound

    def _recompute(
        self, canon_atom: Atom, db: Database, ev: Optional[Observers], calls,
        root, table: _Table,
    ) -> None:
        answers = table.answers[canon_atom]
        call_node = None
        if ev is not None:
            call_node = ev.recompute(calls, canon_atom, root)
        canon_vars = [t for t in canon_atom.args if isinstance(t, Variable)]
        # Deduplicate canonical variables preserving order.
        seen: Dict[Variable, None] = {}
        for v in canon_vars:
            seen.setdefault(v, None)
        canon_vars = list(seen)
        # Indexed dispatch: head matching for this canonical call shape
        # is memoized on the program (see Program.match_rules).
        for rule, theta in self.program.match_rules(canon_atom):
            # One attribution frame per rule-body evaluation: _recompute
            # runs eagerly (never suspends), so push/pop bracket exactly.
            token = ev.rule(rule.head, canon_atom.pred) if ev is not None else None
            try:
                for theta_out in self._eval(rule.body, db, theta, ev, table):
                    values = []
                    ground = True
                    for v in canon_vars:
                        t = walk(v, theta_out)
                        if isinstance(t, Variable):
                            ground = False
                            break
                        values.append(t)
                    if not ground:
                        raise SafetyError(
                            "rule for %s does not bind all head variables"
                            % (canon_atom,)
                        )
                    entry = tuple(values)
                    if entry in answers:
                        continue
                    answers.add(entry)
                    if ev is not None:
                        ev.derived(call_node, rule.head, lambda: (
                            apply_atom(canon_atom, dict(zip(canon_vars, values))),
                            dict(zip(canon_vars, values)),
                        ))
            finally:
                if token is not None:
                    ev.leave(token)

    # -- big-step evaluation ---------------------------------------------------------

    def _eval(
        self, f: Formula, db: Database, theta: Substitution,
        ev: Optional[Observers], table: _Table,
    ) -> Iterator[Substitution]:
        if isinstance(f, Truth):
            yield theta
            return
        if isinstance(f, Test):
            yield from db.match(f.atom, theta)
            return
        if isinstance(f, Neg):
            if not db.holds(f.atom, theta):
                yield theta
            return
        if isinstance(f, Builtin):
            try:
                out = f.evaluate(theta)
            except NonIntegerArithmetic:
                return  # fails the branch, as in the interpreter
            except ValueError as exc:
                raise SafetyError(str(exc)) from exc
            if out is not None:
                yield out
            return
        if isinstance(f, Seq):
            parts = f.parts
            if self.join_order:
                parts = self._plan_seq(parts, db, theta, ev)
            yield from self._eval_seq(parts, 0, db, theta, ev, table)
            return
        if isinstance(f, Isol):
            # A read has nothing to isolate.
            yield from self._eval(f.body, db, theta, ev, table)
            return
        if isinstance(f, Call):
            yield from self._eval_call(f.atom, db, theta, ev, table)
            return
        if isinstance(f, Conc):
            raise UnsupportedProgramError(
                "concurrent composition reached the sequential evaluator"
            )
        raise TypeError("cannot evaluate formula %r" % type(f).__name__)

    def _plan_seq(
        self, parts: Tuple[Formula, ...], db: Database, theta: Substitution,
        ev: Optional[Observers],
    ) -> Tuple[Formula, ...]:
        """Join-order each maximal run of consecutive ``Test`` parts
        (:func:`repro.core.database.plan_join`).

        Only tests are moved, and only within their contiguous run: a
        run of tests is a conjunctive query whose answer set is
        order-independent.  Negation stays put (its meaning depends on
        which variables the *preceding* conjuncts bound), and so do
        calls and builtins (which raise :class:`SafetyError` on unbound
        input).  Selectivity uses the database read -- a heuristic
        only; correctness never depends on the plan.
        """
        out: List[Formula] = []
        changed = False
        i, n = 0, len(parts)
        while i < n:
            j = i
            while j < n and isinstance(parts[j], Test):
                j += 1
            if j - i > 1:
                run = parts[i:j]
                order = plan_join([test.atom for test in run], db, theta)
                if order != sorted(order):
                    changed = True
                out.extend(run[k] for k in order)
                i = j
            elif j > i:
                out.append(parts[i])
                i = j
            else:
                out.append(parts[i])
                i += 1
        if not changed:
            return parts
        if ev is not None:
            ev.reordered()
        return tuple(out)

    def _eval_seq(
        self, parts: Tuple[Formula, ...], idx: int, db: Database,
        theta: Substitution, ev: Optional[Observers], table: _Table,
    ) -> Iterator[Substitution]:
        if idx == len(parts):
            yield theta
            return
        for theta2 in self._eval(parts[idx], db, theta, ev, table):
            yield from self._eval_seq(parts, idx + 1, db, theta2, ev, table)

    def _eval_call(
        self, atom: Atom, db: Database, theta: Substitution,
        ev: Optional[Observers], table: _Table,
    ) -> Iterator[Substitution]:
        key, originals = canonical_call(apply_atom(atom, theta))
        self._consulted[key] = None
        answers = table.answers.get(key)
        if ev is not None:
            ev.table_probe(answers is not None)
        if answers is None:
            # Register the key; the worklist driver will compute it.
            table.answers[key] = set()
            self._new_keys.append(key)
            return
        # Set iteration order follows the hash seed; replaying in the
        # order of the values' strings (then of the values, which keeps
        # ``1`` apart from ``"1"``) keeps solution order, and everything
        # downstream of it, the same in every process.
        for values in sorted(answers, key=lambda a: (tuple(map(str, a)), a)):
            out = dict(theta)
            consistent = True
            for v, value in zip(originals, values):
                bound = walk(v, out)
                if isinstance(bound, Variable):
                    out[bound] = value
                elif bound != value:
                    consistent = False
                    break
            if consistent:
                yield out


class SearchExhausted_impossible(RuntimeError):
    """Internal guard: the fixpoint loop bound was reached.  The table is
    finite for safe programs, so hitting this indicates a safety bug."""
