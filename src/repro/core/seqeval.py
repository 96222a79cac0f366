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

from ..obs import hotspots as _hot
from ..obs.context import Instrumentation, NOOP, active
from ..obs.provenance import active_recorder, db_delta, render_bindings
from .database import Database
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
from .interpreter import Solution, _resolve_store
from .parser import as_goal
from .program import Program
from .tabling import canonical_call
from .terms import Atom, Constant, Variable
from .unify import Substitution, apply_atom, unify_atoms, walk

__all__ = ["SequentialEngine"]

#: A table key: the canonicalized call atom plus the input state.
_Key = Tuple[Atom, Database]
#: A table answer: constants for the canonical variables, plus the output
#: state.
_Answer = Tuple[Tuple[Constant, ...], Database]


class SequentialEngine:
    """Decision procedure for sequential TD via tabled evaluation.

    Raises :class:`UnsupportedProgramError` if the program or goal uses
    concurrent composition.  ``iso(a)`` is accepted and equals ``a``:
    with no siblings to interleave, isolation is a no-op.
    """

    def __init__(
        self,
        program: Program,
        max_rounds: int = 10_000_000,
        join_order: bool = True,
        provenance=None,
        *,
        store=None,
    ):
        self.program = program
        self.max_rounds = max_rounds
        #: Optional storage backend (see :class:`repro.store.Store` and
        #: docs/STORAGE.md), duck-typed; supplies the initial state when
        #: ``solve`` is called without a database.  Explicit beats the
        #: ambient provider, as for ``provenance``.
        self.store = store
        #: Derivation recorder (see :mod:`repro.obs.provenance`); falls
        #: back to the ambient recorder when unset, costs nothing when
        #: neither is attached.
        self.provenance = provenance
        #: Reorder maximal runs of consecutive tuple tests inside each
        #: sequence by bound-argument selectivity before evaluating.
        #: Sound because tests read but never write: a contiguous test
        #: run is a conjunctive query, and any join order enumerates the
        #: same substitutions.  Updates, negation, and builtins are
        #: never moved.  Disable to pin the textual order.
        self.join_order = join_order
        self._check_sequential()
        # Persistent across queries: the table only ever grows, and its
        # entries are valid independently of which goal asked for them.
        self._table: Dict[_Key, Set[_Answer]] = {}
        # Dependency graph for the worklist driver: callee -> callers.
        self._dependents: Dict[_Key, Set[_Key]] = {}
        # Keys whose rules have been evaluated at least once (a key can
        # be computed and still have an empty answer set).
        self._computed: Set[_Key] = set()
        # Per-evaluation scratch: keys consulted / newly registered.
        self._consulted: Set[_Key] = set()
        self._new_keys: List[_Key] = []
        # Instrumentation for the current solve (NOOP when inactive).
        self._obs: Instrumentation = NOOP
        # Provenance scratch for the current solve.
        self._prov_rec = None
        self._prov_root: Optional[int] = None
        self._prov_key_nodes: Dict[_Key, Optional[int]] = {}
        # Cost attributor scratch for the current solve (None when off).
        self._attr_cur = None

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
        goal_vars = ordered_variables(goal)
        obs = self._obs = active()
        prov = self._prov_rec = (
            self.provenance if self.provenance is not None else active_recorder()
        )
        attr = self._attr_cur = _hot.active_attributor()
        self._prov_root = (
            prov.record("config", str(goal), disposition="root")
            if prov is not None
            else None
        )
        # Key nodes are per-recorder; the table persists across solves
        # but node ids do not.
        self._prov_key_nodes = {}

        def _search():
            with obs.span("solve", engine="seqeval", goal=str(goal)):
                if reads_table:
                    with obs.span("table-fixpoint"):
                        if attr is not None:
                            with attr.frame(phase="fixpoint"):
                                self._run_fixpoint(goal, db)
                        else:
                            self._run_fixpoint(goal, db)
                if obs.enabled:
                    keys, answers = self.table_size
                    obs.metrics.set_gauge("table.keys", keys)
                    obs.metrics.set_gauge("table.answers", answers)
                emitted = set()
                for theta, final_db in self._eval(goal, db, {}):
                    bindings = {v: walk(v, theta) for v in goal_vars}
                    key = (tuple(sorted(bindings.items())), final_db)
                    if key not in emitted:
                        emitted.add(key)
                        if obs.enabled:
                            obs.metrics.inc("search.solutions")
                        if prov is not None:
                            ins, dels = db_delta(db, final_db)
                            # Label the answer with the bindings applied, so
                            # the proof reads `path(a, b)` rather than the
                            # open goal `path(a, X)`.
                            label = (
                                str(apply_atom(goal.atom, bindings))
                                if isinstance(goal, Call)
                                else str(goal)
                            )
                            prov.record(
                                "answer",
                                label,
                                parent=self._prov_root,
                                disposition="solution",
                                bindings=render_bindings(bindings),
                                inserted=ins,
                                deleted=dels,
                            )
                        yield Solution(bindings, final_db)

        yield from _hot.meter_engine(attr, _search(), "seqeval")

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
        return len(self._table), sum(len(v) for v in self._table.values())

    # -- fixpoint driver ----------------------------------------------------------
    #
    # Dependency-driven (semi-naive) tabling: evaluating a key records
    # which callee keys it consulted; when a key's answer set grows, only
    # its recorded dependents are re-evaluated.  Far cheaper than naive
    # rounds -- work is proportional to actual answer propagation, the
    # classical tabling argument.

    def _run_fixpoint(self, goal: Formula, db: Database) -> None:
        worklist: List[_Key] = []
        in_worklist: Set[_Key] = set()

        def enqueue(key: _Key) -> None:
            if key not in in_worklist:
                in_worklist.add(key)
                worklist.append(key)

        def drain() -> None:
            steps = 0
            while worklist:
                steps += 1
                if steps > self.max_rounds:  # pragma: no cover - bound
                    raise SearchExhausted_impossible()
                key = worklist.pop()
                in_worklist.discard(key)
                self._computed.add(key)
                before = len(self._table.get(key, ()))
                self._consulted = set()
                self._new_keys = []
                self._recompute(key)
                for callee in self._consulted:
                    self._dependents.setdefault(callee, set()).add(key)
                for fresh in self._new_keys:
                    enqueue(fresh)
                if len(self._table.get(key, ())) != before:
                    for dependent in self._dependents.get(key, ()):
                        enqueue(dependent)

        # Alternate goal-seeding passes with worklist drains: a drain can
        # grow answers that let the *goal* reach call patterns it could
        # not instantiate before, so re-seed until the goal discovers
        # nothing new.
        for _ in range(self.max_rounds):  # pragma: no branch - returns inside
            self._consulted = set()
            self._new_keys = []
            for _ in self._eval(goal, db, {}):
                pass
            for key in self._new_keys:
                enqueue(key)
            for key in self._consulted:
                if key not in self._computed:
                    enqueue(key)
            if not worklist:
                self._consulted = set()
                self._new_keys = []
                return
            drain()
        raise SearchExhausted_impossible()  # pragma: no cover - loop bound

    def _recompute(self, key: _Key) -> None:
        if self._obs.enabled:
            self._obs.metrics.inc("table.recomputes")
        canon_atom, db_in = key
        answers = self._table[key]
        prov = self._prov_rec
        call_node: Optional[int] = None
        if prov is not None:
            if key not in self._prov_key_nodes:
                self._prov_key_nodes[key] = prov.record(
                    "call", str(canon_atom), parent=self._prov_root
                )
            call_node = self._prov_key_nodes[key]
        canon_vars = [t for t in canon_atom.args if isinstance(t, Variable)]
        # Deduplicate canonical variables preserving order.
        seen: Dict[Variable, None] = {}
        for v in canon_vars:
            seen.setdefault(v, None)
        canon_vars = list(seen)
        attr = self._attr_cur
        # Indexed dispatch: head matching for this canonical call shape
        # is memoized on the program (see Program.match_rules).
        for rule, theta in self.program.match_rules(canon_atom):
            # One attribution frame per rule-body evaluation: _recompute
            # runs eagerly (never suspends), so push/pop bracket exactly.
            rule_token = (
                attr.push(rule=_hot.rule_label(rule.head), predicate=canon_atom.pred)
                if attr is not None
                else None
            )
            try:
                for theta_out, db_out in self._eval(rule.body, db_in, theta):
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
                    if attr is not None:
                        attr.charge("steps.expansions", 1)
                        ins_a, dels_a = db_delta(db_in, db_out)
                        delta = len(ins_a) + len(dels_a)
                        if delta:
                            attr.charge("db.delta", delta)
                    if prov is not None:
                        ins, dels = db_delta(db_in, db_out)
                        prov.record(
                            "answer",
                            str(
                                apply_atom(
                                    canon_atom, dict(zip(canon_vars, values))
                                )
                            ),
                            parent=call_node,
                            bindings=render_bindings(
                                dict(zip(canon_vars, values))
                            ),
                            inserted=ins,
                            deleted=dels,
                            witness={"rule": str(rule.head)},
                        )
            finally:
                if rule_token is not None:
                    attr.pop(rule_token)

    # -- big-step evaluation ---------------------------------------------------------

    def _eval(
        self, f: Formula, db: Database, theta: Substitution
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
                parts = self._plan_seq(parts, db, theta)
            yield from self._eval_seq(parts, 0, db, theta)
            return
        if isinstance(f, Isol):
            # Sequential execution has no siblings; isolation is identity.
            yield from self._eval(f.body, db, theta)
            return
        if isinstance(f, Call):
            yield from self._eval_call(f.atom, db, theta)
            return
        if isinstance(f, Conc):
            raise UnsupportedProgramError(
                "concurrent composition reached the sequential evaluator"
            )
        raise TypeError("cannot evaluate formula %r" % type(f).__name__)

    def _plan_seq(
        self, parts: Tuple[Formula, ...], db: Database, theta: Substitution
    ) -> Tuple[Formula, ...]:
        """Join-order each maximal run of consecutive ``Test`` parts.

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
                run = list(parts[i:j])
                ordered = self._order_tests(run, db, theta)
                if ordered != run:
                    changed = True
                out.extend(ordered)
                i = j
            elif j > i:
                out.append(parts[i])
                i = j
            else:
                out.append(parts[i])
                i += 1
        if not changed:
            return parts
        if self._obs.enabled:
            self._obs.metrics.inc("join.reorders")
        return tuple(out)

    def _order_tests(
        self, run: List[Formula], db: Database, theta: Substitution
    ) -> List[Formula]:
        """Greedy selectivity order for a contiguous test run: fewest
        still-unbound variable arguments first (bound arguments probe the
        per-position index), ties by relation size, then textual
        position."""
        bound: Set[Variable] = set()

        def unbound(test: Formula) -> int:
            count = 0
            for arg in test.atom.args:
                resolved = walk(arg, theta)
                if isinstance(resolved, Variable) and resolved not in bound:
                    count += 1
            return count

        remaining = list(enumerate(run))
        chosen: List[Formula] = []
        while remaining:
            pos, test = min(
                remaining,
                key=lambda item: (
                    unbound(item[1]),
                    len(db.facts(item[1].atom.pred)),
                    item[0],
                ),
            )
            remaining.remove((pos, test))
            chosen.append(test)
            for arg in test.atom.args:
                resolved = walk(arg, theta)
                if isinstance(resolved, Variable):
                    bound.add(resolved)
        return chosen

    def _eval_seq(
        self, parts: Tuple[Formula, ...], idx: int, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        if idx == len(parts):
            yield theta, db
            return
        for theta2, db2 in self._eval(parts[idx], db, theta):
            yield from self._eval_seq(parts, idx + 1, db2, theta2)

    def _eval_call(
        self, atom: Atom, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        instantiated = apply_atom(atom, theta)
        canon_atom, originals = canonical_call(instantiated)
        key = (canon_atom, db)
        self._consulted.add(key)
        answers = self._table.get(key)
        obs = self._obs
        if answers is None:
            # Register the key; the worklist driver will compute it.
            if obs.enabled:
                obs.metrics.inc("table.misses")
            self._table[key] = set()
            self._new_keys.append(key)
            return
        if obs.enabled:
            obs.metrics.inc("table.hits")
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
