"""Magic-sets transformation for Datalog that negates base predicates only.

The paper points out that in the tame TD sublanguages "well-known
optimization techniques (such as magic sets or tabling) can be applied".
Tabling lives in :mod:`repro.core.tabling` (goals that update); this
module supplies the other named technique, which the engine's reader
(:mod:`repro.datalog.reader`) uses for bound reads.

Given a query with some arguments bound, the transformation specializes
the program so that bottom-up evaluation only derives facts *relevant*
to the query:

1. **Adornment** -- predicates are annotated with binding patterns
   (``b``/``f`` per argument).  Starting from the query's pattern,
   rules are adorned left-to-right (the standard sideways information
   passing): a body variable is bound if it occurs in the head's bound
   arguments or in an earlier body literal.
2. **Magic rules** -- for each adorned rule and each IDB body literal, a
   rule derives the magic fact (the relevant bound-argument tuples) for
   that literal from the head's magic fact and the preceding body
   literals; every original rule is guarded by its own magic fact.
3. **Seed** -- the query's bound constants become the initial magic fact.

A negative literal on a base predicate is copied unadorned into the
adorned rule and into every magic rule built after its variables are
bound: it only filters, so a bound read with an absence test (which
:func:`repro.datalog.from_td` always puts on a base predicate) stays
goal-directed.  Negating a derived predicate would need its relation
complete first, which the magic program does not guarantee; such a
program raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core.database import Database
from ..core.terms import Atom, Constant, Term, Variable
from ..core.unify import Substitution
from .ast import DatalogProgram, DatalogRule, Literal
from .engine import evaluate

__all__ = ["magic_transform", "magic_query"]

#: An adornment: one character per argument, 'b' (bound) or 'f' (free).
Adornment = str


def _adorn_name(pred: str, adornment: Adornment) -> str:
    return "%s__%s" % (pred, adornment) if adornment else pred


def _magic_name(pred: str, adornment: Adornment) -> str:
    return "magic__%s__%s" % (pred, adornment)


def _pattern_of(atom: Atom, bound_vars: Set[Variable]) -> Adornment:
    out = []
    for t in atom.args:
        if isinstance(t, Constant) or t in bound_vars:
            out.append("b")
        else:
            out.append("f")
    return "".join(out)


def _bound_args(atom: Atom, adornment: Adornment) -> Tuple[Term, ...]:
    return tuple(t for t, a in zip(atom.args, adornment) if a == "b")


def magic_transform(
    program: DatalogProgram, query: Atom
) -> Tuple[DatalogProgram, List[Atom], str]:
    """Specialize *program* for *query*.

    Returns ``(magic program, seed facts, adorned query predicate)``.
    The adorned query predicate holds exactly the answers relevant to
    the query after evaluating the magic program over
    ``edb + seed facts``.
    """
    for rule in program.rules:
        for lit in rule.body:
            if not lit.positive and lit.atom.signature in program.idb:
                raise ValueError(
                    "magic sets here negate base predicates only; rule "
                    "for %s negates %s" % (rule.head, lit.atom)
                )

    query_adornment = _pattern_of(query, set())
    if query.signature not in program.idb:
        raise ValueError("query predicate %s/%d is not defined by rules"
                         % query.signature)

    transformed: List[DatalogRule] = []
    worklist: List[Tuple[str, int, Adornment]] = [
        (query.pred, query.arity, query_adornment)
    ]
    seen: Set[Tuple[str, int, Adornment]] = set(worklist)

    while worklist:
        pred, arity, adornment = worklist.pop()
        for rule in program.rules:
            if rule.head.signature != (pred, arity):
                continue
            bound_vars: Set[Variable] = {
                t
                for t, a in zip(rule.head.args, adornment)
                if a == "b" and isinstance(t, Variable)
            }
            magic_head_atom = Atom(
                _magic_name(pred, adornment), _bound_args(rule.head, adornment)
            )
            new_body: List[Literal] = [Literal(magic_head_atom)]
            # Absence tests wait until their variables are bound, so
            # every magic rule built from a prefix of the body is safe.
            waiting: List[Literal] = []
            for lit in rule.body:
                atom = lit.atom
                if not lit.positive:
                    waiting.append(lit)
                elif atom.signature in program.idb:
                    sub_adornment = _pattern_of(atom, bound_vars)
                    key = (atom.pred, atom.arity, sub_adornment)
                    if key not in seen:
                        seen.add(key)
                        worklist.append(key)
                    # magic rule: relevant bindings for the subgoal
                    magic_sub = Atom(
                        _magic_name(atom.pred, sub_adornment),
                        _bound_args(atom, sub_adornment),
                    )
                    transformed.append(
                        DatalogRule(magic_sub, tuple(new_body))
                    )
                    adorned = Atom(_adorn_name(atom.pred, sub_adornment), atom.args)
                    new_body.append(Literal(adorned))
                else:
                    new_body.append(lit)
                if lit.positive:
                    bound_vars |= set(atom.variables())
                ready = [n for n in waiting if bound_vars.issuperset(n.atom.variables())]
                if ready:
                    new_body.extend(ready)
                    waiting = [n for n in waiting if n not in ready]
            new_body.extend(waiting)
            adorned_head = Atom(_adorn_name(pred, adornment), rule.head.args)
            transformed.append(DatalogRule(adorned_head, tuple(new_body)))

    magic_program = DatalogProgram(transformed)
    return magic_program, [magic_seed(query)], _adorn_name(query.pred, query_adornment)


def magic_seed(query: Atom) -> Atom:
    """The magic fact that seeds *query*: its bound constants."""
    return Atom(
        _magic_name(query.pred, _pattern_of(query, set())),
        tuple(t for t in query.args if isinstance(t, Constant)),
    )


def magic_query(
    program: DatalogProgram, edb: Database, query: Atom
) -> List[Substitution]:
    """Answer *query* goal-directedly via the magic transformation.

    Semantically identical to ``engine.query`` but only derives facts
    relevant to the query's bound arguments.
    """
    magic_program, seeds, answer_pred = magic_transform(program, query)
    facts = evaluate(magic_program, edb.insert_all(seeds))
    answers = []
    pattern = Atom(answer_pred, query.args)
    for theta in facts.match(pattern):
        answers.append(theta)
    return answers
