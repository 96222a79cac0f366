"""Bottom-up Datalog evaluation: naive and seminaive, stratum by stratum.

Seminaive evaluation is the classical optimization the paper alludes to
when it says Datalog techniques apply to the tame TD sublanguages: each
iteration joins only against the *delta* (facts new in the previous
round), so the fixpoint costs O(|derivations|) instead of re-deriving
everything every round.  Naive evaluation is kept alongside as the
obviously-correct oracle for property tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.database import Database, plan_join
from ..core.formulas import Call, Conc, Isol, Neg, Seq, Test, Truth, walk_formulas
from ..core.interpreter import _resolve_store
from ..core.program import Program
from ..core.terms import Atom
from ..core.unify import Substitution, apply_atom
from ..obs import context as _context
from .ast import DatalogProgram, DatalogRule, Literal

__all__ = ["evaluate", "evaluate_naive", "query", "from_td"]


def _order_body(body: Sequence[Literal]) -> List[Literal]:
    """Positive literals first (in given order), then negative ones.

    Safety checking guarantees negated variables are bound by positive
    literals, so this order always evaluates negation on ground atoms.
    """
    return [l for l in body if l.positive] + [l for l in body if not l.positive]


def _plan_body(
    body: Sequence[Literal], facts: Database, reorder: bool = True,
    ev: Optional[_context.Observers] = None,
) -> List[Literal]:
    """Choose a join order for *body* against the current *facts*: the
    positive literals in :func:`repro.core.database.plan_join` order,
    then the negative ones, so safety -- negation on ground atoms only
    -- is untouched.

    Reports ``reordered`` to *ev* whenever the plan differs from the
    textual :func:`_order_body` baseline.
    """
    positives = [l for l in body if l.positive]
    negatives = [l for l in body if not l.positive]
    if not reorder or len(positives) <= 1:
        return positives + negatives
    order = plan_join([l.atom for l in positives], facts)
    if ev is not None and order != sorted(order):
        ev.reordered()
    return [positives[i] for i in order] + negatives


def _join(
    body: Sequence[Literal],
    facts: Database,
    delta_index: Optional[Tuple[int, Set[Atom]]] = None,
    plan: Optional[Sequence[Literal]] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying *body* against *facts*.

    With ``delta_index = (i, delta)``, the i-th positive literal *of the
    evaluation order* is matched against *delta* only -- the seminaive
    trick.  *plan* overrides the textual :func:`_order_body` order (the
    caller must compute ``delta_index`` against the same plan).
    """

    ordered = list(plan) if plan is not None else _order_body(body)
    # An indexed state for the delta: a literal with a bound argument
    # probes it instead of trying every delta fact.
    delta = Database(delta_index[1]) if delta_index is not None else None

    def recurse(idx: int, subst: Substitution) -> Iterator[Substitution]:
        if idx == len(ordered):
            yield subst
            return
        lit = ordered[idx]
        if lit.positive:
            source = delta if delta is not None and idx == delta_index[0] else facts
            for theta in source.match(lit.atom, subst):
                yield from recurse(idx + 1, theta)
        else:
            if not facts.holds(lit.atom, subst):
                yield from recurse(idx + 1, subst)

    yield from recurse(0, {})


def evaluate_naive(program: DatalogProgram, edb: Database) -> Database:
    """Naive (Jacobi-style) stratified evaluation: recompute all rules
    until nothing changes.  The oracle implementation."""
    facts = edb
    for stratum in program.strata:
        rules = program.rules_for_stratum(stratum)
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for theta in _join(rule.body, facts):
                    fact = apply_atom(rule.head, theta)
                    if not fact.is_ground():
                        raise ValueError("derived non-ground fact %s" % (fact,))
                    if fact not in facts:
                        facts = facts.insert(fact)
                        changed = True
    return facts


def evaluate(
    program: DatalogProgram,
    edb: Optional[Database] = None,
    reorder: bool = True,
    *,
    store=None,
) -> Database:
    """Seminaive stratified evaluation (the production evaluator).

    With *reorder* (the default), each rule body is join-ordered by
    :func:`_plan_body` before every pass; the plan is recomputed per
    round because selectivity shifts as relations grow.  Pass
    ``reorder=False`` to pin the textual order (the differential tests
    compare the two, and both against :func:`evaluate_naive`).

    The observers active at the call (:mod:`repro.obs.context`) see one
    ``fact`` event per derived IDB fact -- a ``steps.expansions``
    charge, and a recorder node parented on the first derived positive
    premise of its first derivation, with the instantiated rule as
    witness -- each rule's join work under a per-rule attribution frame
    in a ``seminaive`` phase, and the per-round delta sizes as
    ``db.delta``.

    *store* (or the ambient provider, see :mod:`repro.store.context`)
    attaches a storage backend: with ``edb=None`` it supplies the EDB,
    and after the fixpoint the derived IDB facts are materialized into
    it with one batched ``insert_all`` -- a durable materialized view.
    The fixpoint itself runs over in-memory states either way.
    """
    store, edb = _resolve_store(store, edb)
    ev = _context.capture()
    with _context.observing(ev, "seminaive"):
        result = _evaluate_seminaive(program, edb, reorder, ev)
    if store is not None:
        # Sorted so the WAL records the derived delta deterministically.
        store.insert_all(sorted(result.difference(edb)))
    return result


def _evaluate_seminaive(
    program: DatalogProgram, edb: Database, reorder,
    ev: Optional[_context.Observers],
) -> Database:
    fact_nodes: Dict[Atom, Optional[int]] = {}
    root = ev.config("datalog fixpoint") if ev is not None else None

    def note(rule: DatalogRule, theta: Substitution, fact: Atom) -> None:
        ev.fact(fact, rule.head, lambda: [
            apply_atom(lit.atom, theta) for lit in rule.body if lit.positive
        ], fact_nodes, root)

    facts = edb
    for stratum in program.strata:
        rules = program.rules_for_stratum(stratum)
        stratum_sigs = set(stratum)

        # Round 0: all-new facts = plain evaluation of each rule once.
        delta: Set[Atom] = set()
        for rule in rules:
            token = ev.rule(rule.head, rule.head.pred) if ev is not None else None
            try:
                plan = _plan_body(rule.body, facts, reorder, ev)
                for theta in _join(rule.body, facts, plan=plan):
                    fact = apply_atom(rule.head, theta)
                    if fact not in facts:
                        if ev is not None and fact not in delta:
                            note(rule, theta, fact)
                        delta.add(fact)
            finally:
                if token is not None:
                    ev.leave(token)
        if ev is not None:
            ev.delta(len(delta))
        facts = facts.insert_all(delta)

        while delta:
            new_delta: Set[Atom] = set()
            for rule in rules:
                token = ev.rule(rule.head, rule.head.pred) if ev is not None else None
                try:
                    plan = _plan_body(rule.body, facts, reorder, ev)
                    # One seminaive pass per positive recursive literal: that
                    # literal ranges over delta, the others over all facts.
                    recursive_positions = [
                        i
                        for i, lit in enumerate(plan)
                        if lit.positive and lit.atom.signature in stratum_sigs
                    ]
                    if not recursive_positions:
                        continue  # already saturated in round 0
                    for i in recursive_positions:
                        for theta in _join(
                            rule.body, facts, delta_index=(i, delta), plan=plan
                        ):
                            fact = apply_atom(rule.head, theta)
                            if fact not in facts and fact not in new_delta:
                                if ev is not None:
                                    note(rule, theta, fact)
                                new_delta.add(fact)
                finally:
                    if token is not None:
                        ev.leave(token)
            if ev is not None:
                ev.delta(len(new_delta))
            facts = facts.insert_all(new_delta)
            delta = new_delta
    return facts


def query(
    program: DatalogProgram, edb: Database, goal: Atom
) -> List[Substitution]:
    """Evaluate and return the substitutions matching *goal*."""
    facts = evaluate(program, edb)
    return list(facts.match(goal))


# ---------------------------------------------------------------------------
# Bridge from query-only TD
# ---------------------------------------------------------------------------


def from_td(program: Program) -> DatalogProgram:
    """Translate a query-only TD program into Datalog.

    In the absence of updates, sequential composition is ordinary
    conjunction and concurrent composition adds nothing (tests commute),
    so the paper's query-only fragment coincides with classical Datalog.
    Raises :class:`ValueError` if the program contains updates.
    """
    rules: List[DatalogRule] = []
    for rule in program.rules:
        literals: List[Literal] = []
        for sub in walk_formulas(rule.body):
            if isinstance(sub, (Seq, Conc, Truth)):
                continue
            if isinstance(sub, Isol):
                continue  # isolation of a query is the query
            if isinstance(sub, Test):
                literals.append(Literal(sub.atom, True))
            elif isinstance(sub, Call):
                literals.append(Literal(sub.atom, True))
            elif isinstance(sub, Neg):
                literals.append(Literal(sub.atom, False))
            else:
                raise ValueError(
                    "not a query-only TD program: %s contains %s"
                    % (rule.head, type(sub).__name__)
                )
        rules.append(DatalogRule(rule.head, tuple(literals)))
    return DatalogProgram(rules)
