"""Quantified Boolean formulas in sequential TD.

The engine room of Theorem 4.5's lower bound is *alternation*: recursive
subroutines give universal branching (a rule body ``check(a) * check(b)``
succeeds only if both subgoals do), rule choice gives existential
branching.  QBF evaluation is the textbook alternation-complete problem,
so its TD encoding makes the mechanism concrete and testable:

* an existential variable is assigned by *choosing* one of two rules
  (set true / set false);
* a universal variable is assigned *both ways in sequence*, with the
  assignment undone between branches (insertion + deletion of
  ``asg(V, B)`` facts -- the state is the evaluator's blackboard);
* the matrix is checked against the assignment facts.

The encoding is sequential TD with deletion and non-tail recursion --
squarely in the EXPTIME fragment, and indeed evaluation is exponential
in the number of quantifiers, as measured in ``bench_seq_exptime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.database import Database
from ..core.formulas import Call, Del, Formula, Ins, Test, seq
from ..core.program import Program, Rule
from ..core.terms import Atom, Constant, Variable, atom

__all__ = ["QBF", "Clause", "evaluate_qbf", "qbf_to_td"]

#: A literal: (variable name, polarity).  A clause is a disjunction.
Literal = Tuple[str, bool]
Clause = Tuple[Literal, ...]


@dataclass(frozen=True)
class QBF:
    """A prenex QBF with a CNF matrix.

    ``prefix`` lists ``(quantifier, variable)`` pairs, quantifier in
    ``"exists"``/``"forall"``; every matrix variable must be quantified.
    """

    prefix: Tuple[Tuple[str, str], ...]
    matrix: Tuple[Clause, ...]

    def __post_init__(self):
        names = [v for _q, v in self.prefix]
        if len(set(names)) != len(names):
            raise ValueError("duplicate quantified variable")
        quantified = set(names)
        for clause in self.matrix:
            for var, _pol in clause:
                if var not in quantified:
                    raise ValueError("free variable %r in matrix" % var)
        for q, _v in self.prefix:
            if q not in ("exists", "forall"):
                raise ValueError("bad quantifier %r" % q)


def evaluate_qbf(qbf: QBF) -> bool:
    """Native recursive evaluation (the oracle)."""

    def recurse(index: int, assignment: Dict[str, bool]) -> bool:
        if index == len(qbf.prefix):
            return all(
                any(assignment[v] == pol for v, pol in clause)
                for clause in qbf.matrix
            )
        quantifier, var = qbf.prefix[index]
        outcomes = (
            recurse(index + 1, {**assignment, var: value})
            for value in (True, False)
        )
        return any(outcomes) if quantifier == "exists" else all(outcomes)

    return recurse(0, {})


def _bool_const(value: bool) -> Constant:
    return Constant("true" if value else "false")


def qbf_to_td(qbf: QBF) -> Tuple[Program, Formula, Database]:
    """Encode *qbf* into sequential TD.

    Returns ``(program, goal, initial db)``; the goal commits iff the
    formula is true.  The database holds the clause structure
    (``lit(ClauseId, Var, Pol)`` facts), so for a fixed prefix shape the
    matrix is pure data.

    Rules (generated per quantifier level ``k`` over variable ``v``)::

        level_k <- ins.asg(v, true)  * level_{k+1} * del.asg(v, true).   % exists: choice
        level_k <- ins.asg(v, false) * level_{k+1} * del.asg(v, false).
        % forall: both branches in sequence
        level_k <- ins.asg(v, true)  * level_{k+1} * del.asg(v, true) *
                   ins.asg(v, false) * level_{k+1} * del.asg(v, false).

    and the matrix check walks clause ids 0..m-1 requiring a satisfied
    literal in each::

        check(K) <- nclauses(K).
        check(K) <- lit(K, V, P) * asg(V, P) * K2 is K + 1 * check(K2).
    """
    rules: List[Rule] = []
    n = len(qbf.prefix)
    for k, (quantifier, var) in enumerate(qbf.prefix):
        head = atom("level%d" % k)
        next_call = Call(atom("level%d" % (k + 1)))
        t, f = _bool_const(True), _bool_const(False)
        set_t = Ins(atom("asg", var, "true"))
        clr_t = Del(atom("asg", var, "true"))
        set_f = Ins(atom("asg", var, "false"))
        clr_f = Del(atom("asg", var, "false"))
        if quantifier == "exists":
            rules.append(Rule(head, seq(set_t, next_call, clr_t)))
            rules.append(Rule(head, seq(set_f, next_call, clr_f)))
        else:
            rules.append(
                Rule(
                    head,
                    seq(set_t, next_call, clr_t, set_f, next_call, clr_f),
                )
            )
    # innermost level: check the matrix
    rules.append(Rule(atom("level%d" % n), Call(atom("check", 0))))

    k_var, v_var, p_var, k2_var = (Variable(x) for x in ("K", "V", "P", "K2"))
    from ..core.formulas import BinOp, Builtin

    rules.append(Rule(Atom("check", (k_var,)), Test(Atom("nclauses", (k_var,)))))
    rules.append(
        Rule(
            Atom("check", (k_var,)),
            seq(
                Test(Atom("lit", (k_var, v_var, p_var))),
                Test(Atom("asg", (v_var, p_var))),
                Builtin("is", k2_var, BinOp("+", k_var, Constant(1))),
                Call(Atom("check", (k2_var,))),
            ),
        )
    )

    facts: List[Atom] = [atom("nclauses", len(qbf.matrix))]
    for cid, clause in enumerate(qbf.matrix):
        for var, pol in clause:
            facts.append(atom("lit", cid, var, "true" if pol else "false"))

    program = Program(rules)
    return program, Call(atom("level0")), Database(facts)
