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
from ..core.formulas import Call, Conc, Isol, Neg, Seq, Test, Truth
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
    delta: Optional[Tuple[int, Database]] = None,
    plan: Optional[Sequence[Literal]] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying *body* against *facts*.

    With ``delta = (i, state)``, the i-th positive literal *of the
    evaluation order* is matched against *state* only -- the seminaive
    trick; the caller builds one indexed state per round, so a literal
    with a bound argument probes it instead of trying every delta fact.
    *plan* overrides the textual :func:`_order_body` order (the caller
    must compute the delta position against the same plan).
    """
    ordered = tuple(plan) if plan is not None else tuple(_order_body(body))
    position, source = delta if delta is not None else (-1, None)
    return _join_from(ordered, 0, {}, facts, position, source)


def _join_from(
    ordered: Tuple[Literal, ...], idx: int, subst: Substitution,
    facts: Database, position: int, delta: Optional[Database],
) -> Iterator[Substitution]:
    """The substitutions extending *subst* that satisfy ``ordered[idx:]``.

    A module-level generator rather than a closure over the join: a
    self-referencing closure is a reference cycle, which would keep
    every state a join touched alive until the next collector pass.
    """
    if idx == len(ordered):
        yield subst
        return
    lit = ordered[idx]
    if lit.positive:
        source = delta if idx == position else facts
        for theta in source.match(lit.atom, subst):
            yield from _join_from(ordered, idx + 1, theta, facts, position, delta)
    elif not facts.holds(lit.atom, subst):
        yield from _join_from(ordered, idx + 1, subst, facts, position, delta)


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
            delta_db = Database(delta)
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
                            rule.body, facts, delta=(i, delta_db), plan=plan
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
    Raises :class:`ValueError` if the program contains updates, and for
    a rule the translation would change the meaning of: an absence test
    reads the stored facts where it runs, binding nothing, so each of
    its variables must be bound by an earlier test or call in sequence
    (docs/SEMANTICS.md, [absence]) -- Datalog would evaluate it last.
    """
    return DatalogProgram(_rule_from_td(rule) for rule in program.rules)


def _rule_from_td(rule) -> DatalogRule:
    """One TD rule as a Datalog rule (see :func:`from_td`)."""
    literals: List[Literal] = []
    _literals_from_td(rule.head, rule.body, frozenset(), literals)
    return DatalogRule(rule.head, tuple(literals))


def _literals_from_td(head, f, bound, out: List[Literal]):
    """Append *f*'s literals to *out*; returns the variables bound once
    *f* has run, given those in *bound* before it."""
    if isinstance(f, Truth):
        return bound
    if isinstance(f, (Test, Call)):
        out.append(Literal(f.atom, True))
        return bound.union(f.atom.variables())
    if isinstance(f, Neg):
        unbound = [v for v in f.atom.variables() if v not in bound]
        if unbound:
            raise ValueError(
                "absence test %s in the rule for %s reads %s before any "
                "test or call binds it" % (f, head, unbound[0])
            )
        out.append(Literal(f.atom, False))
        return bound
    if isinstance(f, Seq):
        for part in f.parts:
            bound = _literals_from_td(head, part, bound, out)
        return bound
    if isinstance(f, Conc):
        # A sibling branch may run after this one: it binds nothing here.
        after = bound
        for part in f.parts:
            after = after | _literals_from_td(head, part, bound, out)
        return after
    if isinstance(f, Isol) and f.budget is None:
        return _literals_from_td(head, f.body, bound, out)  # iso of a query
    raise ValueError(
        "not a query-only TD program: %s contains %s" % (head, type(f).__name__)
    )
