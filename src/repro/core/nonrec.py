"""Evaluator for *nonrecursive* Transaction Datalog.

Theorem 4.7 of the paper: dropping recursion collapses data complexity
from RE to below PTIME.  The reason is visible in the evaluator below --
with an acyclic call graph, top-down evaluation bottoms out after at most
``depth(call graph)`` unfoldings, and memoizing on ``(call, state)``
pairs keeps the work polynomial in the database for a fixed program.

The evaluator accepts sequential nonrecursive programs directly.  For
nonrecursive programs that *do* use concurrent composition, the engine
delegates to the small-step interpreter, which terminates on them (the
configuration space is finite because processes cannot grow), but note
that naive interleaving search is exponential in the number of branches:
the paper's polynomial bound relies on cleverer algorithms than
interleaving enumeration.  The benchmark suite measures exactly this
contrast.
"""

from __future__ import annotations

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
from .interpreter import Interpreter, Solution, _resolve_store
from .parser import as_goal
from .program import Program
from .tabling import canonical_call
from .terms import Atom, Variable
from .unify import Substitution, apply_atom, unify_atoms, walk

__all__ = ["NonrecursiveEngine"]


class NonrecursiveEngine:
    """Memoized top-down evaluator for nonrecursive TD.

    Use :func:`repro.core.analysis.analyze` (or the engine façade) to
    check nonrecursiveness; this class trusts its caller and would loop
    on recursive programs like any top-down evaluator.
    """

    def __init__(
        self, program: Program, provenance=None, attribution=None, *, store=None
    ):
        self.program = program
        #: Optional storage backend (see :class:`repro.store.Store` and
        #: docs/STORAGE.md), duck-typed; supplies the initial state when
        #: ``solve`` is called without a database.  Explicit beats the
        #: ambient provider.
        self.store = store
        #: Derivation recorder (see :mod:`repro.obs.provenance`); falls
        #: back to the ambient recorder when unset.
        self.provenance = provenance
        #: Cost attributor (see :mod:`repro.obs.hotspots`); same
        #: explicit-beats-ambient resolution as ``provenance``.
        self.attribution = attribution
        self._has_conc = any(
            isinstance(sub, Conc)
            for rule in program.rules
            for sub in walk_formulas(rule.body)
        )
        self._fallback = (
            Interpreter(
                program,
                provenance=provenance,
                attribution=attribution,
                store=store,
            )
            if self._has_conc
            else None
        )
        # Memo: (canonical call atom, db) -> list of (values, db_out).
        self._memo: Dict[Tuple[Atom, Database], List] = {}
        # Instrumentation for the current solve (NOOP when inactive).
        self._obs: Instrumentation = NOOP
        # Provenance scratch for the current solve.
        self._prov_rec = None
        self._prov_root = None
        # Cost attributor scratch for the current solve (None when off).
        self._attr_cur = None

    def solve(
        self, goal: "str | Formula", db: Optional[Database] = None
    ) -> Iterator[Solution]:
        _, db = _resolve_store(self.store, db)
        goal = self.program.resolve_goal(as_goal(goal))
        goal_has_conc = any(isinstance(s, Conc) for s in walk_formulas(goal))
        if self._fallback is not None or goal_has_conc:
            fallback = self._fallback or Interpreter(
                self.program,
                provenance=self.provenance,
                attribution=self.attribution,
                store=self.store,
            )
            yield from fallback.solve(goal, db)
            return
        goal_vars = ordered_variables(goal)
        obs = self._obs = active()
        prov = self._prov_rec = (
            self.provenance if self.provenance is not None else active_recorder()
        )
        attr = self._attr_cur = (
            self.attribution
            if self.attribution is not None
            else _hot.active_attributor()
        )
        self._prov_root = (
            prov.record("config", str(goal), disposition="root")
            if prov is not None
            else None
        )

        def _search():
            with obs.span("solve", engine="nonrec", goal=str(goal)):
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
                            # Answer labels carry the bindings applied (see
                            # the same rendering choice in seqeval.solve).
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
                if obs.enabled:
                    obs.metrics.set_gauge("table.keys", len(self._memo))
                    obs.metrics.set_gauge(
                        "table.answers", sum(len(v) for v in self._memo.values())
                    )

        yield from _hot.meter_engine(attr, _search(), "nonrec")

    def succeeds(self, goal: Formula, db: Database) -> bool:
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(self, goal: Formula, db: Database) -> Set[Database]:
        return {sol.database for sol in self.solve(goal, db)}

    # -- evaluation ---------------------------------------------------------------

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
            yield from self._eval_seq(f.parts, 0, db, theta)
            return
        if isinstance(f, Isol):
            yield from self._eval(f.body, db, theta)
            return
        if isinstance(f, Call):
            yield from self._eval_call(f.atom, db, theta)
            return
        raise UnsupportedProgramError(
            "formula %r is outside the nonrecursive sequential fragment"
            % type(f).__name__
        )

    def _eval_seq(self, parts, idx, db, theta):
        if idx == len(parts):
            yield theta, db
            return
        for theta2, db2 in self._eval(parts[idx], db, theta):
            yield from self._eval_seq(parts, idx + 1, db2, theta2)

    def _eval_call(self, atom: Atom, db: Database, theta: Substitution):
        instantiated = apply_atom(atom, theta)
        canon_atom, originals = canonical_call(instantiated)
        key = (canon_atom, db)
        answers = self._memo.get(key)
        obs = self._obs
        prov = self._prov_rec
        if obs.enabled:
            obs.metrics.inc("table.misses" if answers is None else "table.hits")
        if answers is None:
            call_node = None
            if prov is not None:
                parent = prov.current_parent
                call_node = prov.record(
                    "call",
                    str(canon_atom),
                    parent=parent if parent is not None else self._prov_root,
                    witness={"table": "miss"},
                )
                # The compute section below runs to completion inside
                # this generator's first ``next()``, so push/pop nesting
                # is well-bracketed even across lazy consumers.
                prov.push(call_node)
            answers = []
            seen = set()
            canon_vars: List[Variable] = []
            seen_vars: Dict[Variable, None] = {}
            for t in canon_atom.args:
                if isinstance(t, Variable):
                    seen_vars.setdefault(t, None)
            canon_vars = list(seen_vars)
            attr = self._attr_cur
            try:
                # Indexed dispatch: head matching for this canonical call
                # shape is memoized on the program (see Program.match_rules).
                for rule, theta0 in self.program.match_rules(canon_atom):
                    # The compute section runs to completion inside the
                    # first ``next()``, so the per-rule attribution frame
                    # brackets exactly (same argument as the prov push).
                    rule_token = (
                        attr.push(rule=_hot.rule_label(rule.head), predicate=canon_atom.pred)
                        if attr is not None
                        else None
                    )
                    try:
                        for theta1, db_out in self._eval(rule.body, db, theta0):
                            values = tuple(walk(v, theta1) for v in canon_vars)
                            if any(isinstance(v, Variable) for v in values):
                                raise SafetyError(
                                    "rule for %s does not bind all head variables"
                                    % (canon_atom,)
                                )
                            entry = (values, db_out)
                            if entry not in seen:
                                seen.add(entry)
                                answers.append(entry)
                                if attr is not None:
                                    attr.charge("steps.expansions", 1)
                                    ins_a, dels_a = db_delta(db, db_out)
                                    delta = len(ins_a) + len(dels_a)
                                    if delta:
                                        attr.charge("db.delta", delta)
                                if prov is not None:
                                    ins, dels = db_delta(db, db_out)
                                    prov.record(
                                        "answer",
                                        str(
                                            apply_atom(
                                                canon_atom,
                                                dict(zip(canon_vars, values)),
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
            finally:
                if prov is not None:
                    prov.pop()
            self._memo[key] = answers
        for values, db_out in answers:
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
