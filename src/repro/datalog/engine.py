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

from ..core.database import Database
from ..core.formulas import Call, Conc, Isol, Neg, Seq, Test, Truth, walk_formulas
from ..core.interpreter import _resolve_store
from ..core.program import Program
from ..core.terms import Atom, Variable
from ..core.unify import Substitution, apply_atom
from ..obs import context as _obs
from ..obs import hotspots as _hot
from ..obs.provenance import active_recorder
from .ast import DatalogProgram, DatalogRule, Literal

__all__ = ["evaluate", "evaluate_naive", "query", "from_td"]


def _order_body(body: Sequence[Literal]) -> List[Literal]:
    """Positive literals first (in given order), then negative ones.

    Safety checking guarantees negated variables are bound by positive
    literals, so this order always evaluates negation on ground atoms.
    """
    return [l for l in body if l.positive] + [l for l in body if not l.positive]


def _plan_body(
    body: Sequence[Literal], facts: Database, reorder: bool = True
) -> List[Literal]:
    """Choose a join order for *body* against the current *facts*.

    Greedy bound-argument selectivity: repeatedly pick the positive
    literal with the fewest still-unbound variable arguments (a bound
    argument lets :meth:`Database.match` probe the per-``(pred, position)``
    index instead of scanning every fact of the predicate), breaking
    ties by relation size, then by the textual position.  Negative
    literals stay last, so safety -- negation on ground atoms only -- is
    untouched.  Any join order over the positive conjuncts enumerates
    the same substitutions; only the fan-out differs.

    Counts ``join.reorders`` whenever the plan differs from the textual
    :func:`_order_body` baseline.
    """
    positives = [l for l in body if l.positive]
    negatives = [l for l in body if not l.positive]
    if not reorder or len(positives) <= 1:
        return positives + negatives

    def unbound(lit: Literal, bound: Set[Variable]) -> int:
        return sum(
            1
            for t in lit.atom.args
            if isinstance(t, Variable) and t not in bound
        )

    remaining = list(enumerate(positives))
    bound: Set[Variable] = set()
    plan: List[Literal] = []
    while remaining:
        pos, lit = min(
            remaining,
            key=lambda item: (
                unbound(item[1], bound),
                len(facts.facts(item[1].atom.pred)),
                item[0],
            ),
        )
        remaining.remove((pos, lit))
        plan.append(lit)
        bound.update(t for t in lit.atom.args if isinstance(t, Variable))
    plan += negatives

    if plan != positives + negatives:
        inst = _obs._ACTIVE
        if inst is not None:
            inst.metrics.inc("join.reorders")
    return plan


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
    provenance=None,
    *,
    store=None,
) -> Database:
    """Seminaive stratified evaluation (the production evaluator).

    With *reorder* (the default), each rule body is join-ordered by
    :func:`_plan_body` before every pass; the plan is recomputed per
    round because selectivity shifts as relations grow.  Pass
    ``reorder=False`` to pin the textual order (the differential tests
    compare the two, and both against :func:`evaluate_naive`).

    *provenance* (or the ambient recorder, see
    :mod:`repro.obs.provenance`) records one ``fact`` node per derived
    IDB fact, parented on the first derived positive premise of its
    first derivation, with the instantiated rule as witness.

    The ambient cost attributor (see :mod:`repro.obs.hotspots`), if
    any, charges each rule's join work to a per-rule frame under a
    ``seminaive`` phase, plus one ``steps.expansions`` per derived fact
    and the per-round delta sizes as ``db.delta``.

    *store* (or the ambient provider, see :mod:`repro.store.context`)
    attaches a storage backend: with ``edb=None`` it supplies the EDB,
    and after the fixpoint the derived IDB facts are materialized into
    it with one batched ``insert_all`` -- a durable materialized view.
    The fixpoint itself runs over in-memory states either way.
    """
    store, edb = _resolve_store(store, edb)
    prov = provenance if provenance is not None else active_recorder()
    attr = _hot.active_attributor()
    if attr is not None:
        with _hot.engine_frame(attr, "seminaive"):
            result = _evaluate_seminaive(program, edb, reorder, prov, attr)
    else:
        result = _evaluate_seminaive(program, edb, reorder, prov, None)
    if store is not None:
        # Sorted so the WAL records the derived delta deterministically.
        store.insert_all(sorted(result.difference(edb)))
    return result


def _evaluate_seminaive(
    program: DatalogProgram, edb: Database, reorder, prov, attr
) -> Database:
    fact_nodes: Dict[Atom, Optional[int]] = {}
    prov_root = (
        prov.record("config", "datalog fixpoint", disposition="root")
        if prov is not None
        else None
    )

    def note(rule: DatalogRule, theta: Substitution, fact: Atom) -> None:
        premises = [
            apply_atom(lit.atom, theta) for lit in rule.body if lit.positive
        ]
        parent = prov_root
        for premise in premises:
            node = fact_nodes.get(premise)
            if node is not None:
                parent = node
                break
        fact_nodes[fact] = prov.record(
            "fact",
            str(fact),
            parent=parent,
            witness={
                "rule": str(rule.head),
                "premises": [str(p) for p in premises],
            },
        )

    facts = edb
    for stratum in program.strata:
        rules = program.rules_for_stratum(stratum)
        stratum_sigs = set(stratum)

        # Round 0: all-new facts = plain evaluation of each rule once.
        delta: Set[Atom] = set()
        for rule in rules:
            rule_token = (
                attr.push(rule=_hot.rule_label(rule.head), predicate=rule.head.pred)
                if attr is not None
                else None
            )
            try:
                plan = _plan_body(rule.body, facts, reorder)
                for theta in _join(rule.body, facts, plan=plan):
                    fact = apply_atom(rule.head, theta)
                    if fact not in facts:
                        if attr is not None and fact not in delta:
                            attr.charge("steps.expansions", 1)
                        if prov is not None and fact not in delta:
                            note(rule, theta, fact)
                        delta.add(fact)
            finally:
                if rule_token is not None:
                    attr.pop(rule_token)
        if attr is not None and delta:
            attr.charge("db.delta", len(delta))
        facts = facts.insert_all(delta)

        while delta:
            new_delta: Set[Atom] = set()
            for rule in rules:
                rule_token = (
                    attr.push(rule=_hot.rule_label(rule.head), predicate=rule.head.pred)
                    if attr is not None
                    else None
                )
                try:
                    plan = _plan_body(rule.body, facts, reorder)
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
                                if attr is not None:
                                    attr.charge("steps.expansions", 1)
                                if prov is not None:
                                    note(rule, theta, fact)
                                new_delta.add(fact)
                finally:
                    if rule_token is not None:
                        attr.pop(rule_token)
            if attr is not None and new_delta:
                attr.charge("db.delta", len(new_delta))
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
