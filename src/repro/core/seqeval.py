"""Tabled big-step evaluator for *sequential* Transaction Datalog.

Sequential TD is the sublanguage without concurrent composition.  The
paper (Theorem 4.5) shows it is data complete for EXPTIME -- in sharp
contrast to full TD's RE-completeness -- and in particular *decidable*.
This module is the decision procedure.  The engine façade also routes
the ``|``-free query-only and nonrecursive programs here; on an acyclic
call graph the worklist below stays polynomial in the data
(docs/SEMANTICS.md section 4).

The semantic insight it implements: the meaning of a sequential TD
predicate is a binary relation on database states.  For a fixed program
and initial state, the reachable states are subsets of a finite Herbrand
base (TD is safe: no new constants are invented), so the relation

    (call atom, input state)  -->  { (answer bindings, output state) }

has a finite table, computable as a least fixpoint.  We compute it by
*tabling* with a dependency-driven worklist: evaluation registers every
call it encounters as a table key and records which keys consulted it;
when a key's answer set grows, only its recorded dependents are
re-evaluated.  Termination is guaranteed by the finiteness of keys and
answers; completeness by the monotone least-fixpoint argument, lifted
from Datalog to state pairs -- this is exactly the sense in which the
paper says Datalog optimization techniques like tabling apply to TD.

Recursion depth is *not* bounded here, which matters: sequential TD can
still use recursion-as-storage (a counter encoded in recursion depth),
and top-down evaluation would diverge on it.  The table is what restores
termination -- recursion that revisits a (call, state) pair contributes
nothing new and closes the loop.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import context as _context
from ..obs.context import Observers
from .database import Database, plan_join
from .errors import SafetyError, UnsupportedProgramError
from .formulas import (
    Builtin,
    Call,
    Conc,
    Del,
    Formula,
    Ins,
    Isol,
    Neg,
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

#: A table key: the canonicalized call atom plus the input state.
_Key = Tuple[Atom, Database]
#: A table answer: constants for the canonical variables, plus the output
#: state.
_Answer = Tuple[Tuple[Constant, ...], Database]

#: Safety bound on worklist drains and goal-seeding passes.  The table is
#: finite for safe programs, so a fixpoint never comes near it; reaching
#: it raises :class:`SearchExhausted_impossible`.
_MAX_ROUNDS = 10_000_000


class _Table:
    """The answer table of one initial database, with the worklist's
    bookkeeping: each callee key's caller keys, in the order they first
    consulted it, and the keys whose rules have been evaluated at least
    once (a key can be computed and still have an empty answer set)."""

    __slots__ = ("answers", "dependents", "computed")

    def __init__(self):
        self.answers: Dict[_Key, Set[_Answer]] = {}
        self.dependents: Dict[_Key, Dict[_Key, None]] = {}
        self.computed: Set[_Key] = set()


class SequentialEngine:
    """Decision procedure for sequential TD via tabled evaluation.

    Raises :class:`UnsupportedProgramError` if the program or goal uses
    concurrent composition.  ``iso(a)`` is accepted and equals ``a``:
    with no siblings to interleave, isolation is a no-op.
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
        #: same substitutions.  Updates, negation, and builtins are
        #: never moved.  Disable to pin the textual order.
        self.join_order = join_order
        self._check_sequential()
        # Kept across queries from one initial database: the table only
        # grows, and its entries are valid whichever goal asked for them.
        self._table = _Table()
        self._table_db: Optional[Database] = None
        # Per-evaluation scratch: keys consulted (insertion-ordered, so
        # the worklist order never depends on hashing) / newly
        # registered.
        self._consulted: Dict[_Key, None] = {}
        self._new_keys: List[_Key] = []

    def _check_sequential(self) -> None:
        for rule in self.program.rules:
            for sub in walk_formulas(rule.body):
                if isinstance(sub, Conc):
                    raise UnsupportedProgramError(
                        "rule for %s uses concurrent composition; "
                        "the sequential engine cannot evaluate it"
                        % (rule.head,)
                    )

    # -- public API -------------------------------------------------------------

    def solve(
        self, goal: "str | Formula", db: Optional[Database] = None
    ) -> Iterator[Solution]:
        """Enumerate all (bindings, final state) pairs for *goal*.

        *goal* may be a formula or concrete syntax.  Complete and
        terminating: this is a decision procedure.  With ``db=None``
        the initial state comes from the attached store (explicit
        ``store=`` or the ambient provider); the evaluation is a
        read-only query on it.
        """
        _, db = _resolve_store(self.store, db)
        goal = self.program.resolve_goal(as_goal(goal))
        # Only a call reads the table: a goal without one needs no
        # fixpoint, just the one evaluation that enumerates its answers.
        reads_table = False
        for sub in walk_formulas(goal):
            if isinstance(sub, Conc):
                raise UnsupportedProgramError(
                    "goal uses concurrent composition; use the full interpreter"
                )
            if isinstance(sub, Call):
                reads_table = True
        table = self._table
        if reads_table:
            # A table serves one initial database, as the interpreter's
            # does: a solve from another state starts with an empty
            # table, so an engine over a store keeps one state's keys,
            # not every state's.  The solve keeps the table it started
            # with, because its answer replay reads it lazily.  A goal
            # without a call keeps no state alive, so a store's old
            # state is freed when the store moves on, not in a read.
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
                for theta, final_db in self._eval(goal, db, {}, ev, table):
                    bindings = {v: walk(v, theta) for v in goal_vars}
                    key = (tuple(sorted(bindings.items())), final_db)
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
                            ), db, final_db)
                        yield Solution(bindings, final_db)

        yield from _context.observed_pulls(ev, _search(), "seqeval")

    def succeeds(self, goal: Formula, db: Database) -> bool:
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(self, goal: Formula, db: Database) -> Set[Database]:
        return {sol.database for sol in self.solve(goal, db)}

    @property
    def table_size(self) -> Tuple[int, int]:
        """(number of keys, number of answers) -- exposed for the
        EXPTIME scaling benchmark."""
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
        worklist: List[_Key] = []
        in_worklist: Set[_Key] = set()
        # This solve's call node per key (the table outlives the solve).
        calls: Dict[_Key, Optional[int]] = {}

        def enqueue(key: _Key) -> None:
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
                self._recompute(key, ev, calls, root, table)
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
        self, key: _Key, ev: Optional[Observers], calls, root, table: _Table
    ) -> None:
        canon_atom, db_in = key
        answers = table.answers[key]
        call_node = None
        if ev is not None:
            call_node = ev.recompute(calls, key, canon_atom, root)
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
                for theta_out, db_out in self._eval(
                    rule.body, db_in, theta, ev, table
                ):
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
                    entry = (tuple(values), db_out)
                    if entry in answers:
                        continue
                    answers.add(entry)
                    if ev is not None:
                        ev.derived(call_node, rule.head, lambda: (
                            apply_atom(canon_atom, dict(zip(canon_vars, values))),
                            dict(zip(canon_vars, values)),
                        ), db_in, db_out)
            finally:
                if token is not None:
                    ev.leave(token)

    # -- big-step evaluation ---------------------------------------------------------

    def _eval(
        self, f: Formula, db: Database, theta: Substitution,
        ev: Optional[Observers], table: _Table,
    ) -> Iterator[Tuple[Substitution, Database]]:
        if isinstance(f, Truth):
            yield theta, db
            return
        if isinstance(f, Test):
            yield from ((t, db) for t in db.match(f.atom, theta))
            return
        if isinstance(f, Neg):
            if not db.holds(f.atom, theta):
                yield theta, db
            return
        if isinstance(f, Ins):
            a = apply_atom(f.atom, theta)
            if not a.is_ground():
                raise SafetyError("ins with unbound variables: %s" % (a,))
            yield theta, db.insert(a)
            return
        if isinstance(f, Del):
            a = apply_atom(f.atom, theta)
            if not a.is_ground():
                raise SafetyError("del with unbound variables: %s" % (a,))
            yield theta, db.delete(a)
            return
        if isinstance(f, Builtin):
            try:
                out = f.evaluate(theta)
            except ValueError as exc:
                raise SafetyError(str(exc)) from exc
            if out is not None:
                yield out, db
            return
        if isinstance(f, Seq):
            parts = f.parts
            if self.join_order:
                parts = self._plan_seq(parts, db, theta, ev)
            yield from self._eval_seq(parts, 0, db, theta, ev, table)
            return
        if isinstance(f, Isol):
            # Sequential execution has no siblings; isolation is identity.
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
        test neither updates the database nor can fail for safety
        reasons, so the run is a conjunctive query whose answer set is
        order-independent.  Negation stays put (its meaning depends on
        which variables the *preceding* conjuncts bound) and so do
        builtins (which raise :class:`SafetyError` on unbound input).
        Selectivity uses the database at sequence entry -- a heuristic
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
    ) -> Iterator[Tuple[Substitution, Database]]:
        if idx == len(parts):
            yield theta, db
            return
        for theta2, db2 in self._eval(parts[idx], db, theta, ev, table):
            yield from self._eval_seq(parts, idx + 1, db2, theta2, ev, table)

    def _eval_call(
        self, atom: Atom, db: Database, theta: Substitution,
        ev: Optional[Observers], table: _Table,
    ) -> Iterator[Tuple[Substitution, Database]]:
        instantiated = apply_atom(atom, theta)
        canon_atom, originals = canonical_call(instantiated)
        key = (canon_atom, db)
        self._consulted[key] = None
        answers = table.answers.get(key)
        if ev is not None:
            ev.table_probe(answers is not None)
        if answers is None:
            # Register the key; the worklist driver will compute it.
            table.answers[key] = set()
            self._new_keys.append(key)
            return
        for values, db_out in _replay_order(answers):
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
                yield out, db_out


def _replay_order(answers: Set[_Answer]) -> List[_Answer]:
    """A table entry's answers in a fixed order: by the strings of their
    values, ties broken by the strings of the output database's facts.

    Set iteration order follows ``PYTHONHASHSEED``; a fixed replay order
    keeps solution order, and everything downstream of it, the same in
    every process.  Only answers whose value strings tie have their
    databases rendered, each database at most once: a query-only call's
    answers share one state and differ in their values, so a table hit
    costs in proportion to its answers, not to the size of the state.
    """
    by_values = sorted(
        ((tuple(map(str, answer[0])), answer) for answer in answers),
        key=itemgetter(0),
    )
    rendered: Dict[Database, Tuple[str, ...]] = {}

    def render(answer: _Answer) -> Tuple[str, ...]:
        db = answer[1]
        if db not in rendered:
            rendered[db] = tuple(str(f) for f in db)
        return rendered[db]

    order: List[_Answer] = []
    for _, run in itertools.groupby(by_values, key=itemgetter(0)):
        tied = [answer for _, answer in run]
        if len(tied) > 1:
            tied.sort(key=render)
        order.extend(tied)
    return order


class SearchExhausted_impossible(RuntimeError):
    """Internal guard: the fixpoint loop bound was reached.  The table is
    finite for safe programs, so hitting this indicates a safety bug."""
