"""Substitutions and unification over function-free terms.

TD evaluation threads a single substitution through a whole process tree:
when one concurrent branch binds a variable (by a tuple test or a call
answer) the binding is visible to every other branch that shares the
variable, which is exactly how the paper's examples pass work-item ids
between tasks.

Because the language is function-free, unification needs no occurs check
and substitutions never contain variable chains longer than necessary --
we keep them *idempotent* by resolving bindings eagerly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..obs import context as _obs
from .terms import Atom, Term, Variable

__all__ = [
    "Substitution",
    "EMPTY_SUBST",
    "walk",
    "apply_term",
    "apply_atom",
    "unify_terms",
    "unify_atoms",
    "match_atom",
    "compose",
    "restrict",
    "rename_atom",
]

#: A substitution maps variables to terms.  We represent it as an
#: immutable mapping (plain dict treated as read-only by convention).
Substitution = Mapping[Variable, Term]

EMPTY_SUBST: Substitution = {}


def walk(term: Term, subst: Substitution) -> Term:
    """Resolve *term* through *subst* until it is a constant or an unbound
    variable.  Substitutions are kept idempotent, so this loop is short,
    but walking defensively costs little and keeps invariants local.
    """
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def apply_term(term: Term, subst: Substitution) -> Term:
    """Apply *subst* to a single term."""
    return walk(term, subst)


def apply_atom(a: Atom, subst: Substitution) -> Atom:
    """Apply *subst* to every argument of *a*."""
    if not a.args or not subst or a.is_ground():
        return a
    new_args = tuple(walk(t, subst) for t in a.args)
    if new_args == a.args:
        return a
    return Atom(a.pred, new_args)


def _bind(v: Variable, t: Term, subst: Dict[Variable, Term]) -> None:
    subst[v] = t


def unify_terms(
    t1: Term, t2: Term, subst: Substitution = EMPTY_SUBST
) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or ``None`` on failure.  The result
    shares structure with *subst* only by copying (substitutions are small
    in practice: rule bodies have a handful of variables).
    """
    out: Dict[Variable, Term] = dict(subst)
    if _unify_into(t1, t2, out):
        return out
    return None


def _unify_into(t1: Term, t2: Term, subst: Dict[Variable, Term]) -> bool:
    t1 = walk(t1, subst)
    t2 = walk(t2, subst)
    if t1 == t2:
        return True
    if isinstance(t1, Variable):
        _bind(t1, t2, subst)
        return True
    if isinstance(t2, Variable):
        _bind(t2, t1, subst)
        return True
    # Two distinct constants.
    return False


def unify_atoms(
    a1: Atom, a2: Atom, subst: Substitution = EMPTY_SUBST
) -> Optional[Substitution]:
    """Unify two atoms; they must agree on predicate and arity."""
    # Hot path: with no observer active the guard is one module-attribute
    # load plus a None check (see repro.obs.context).
    observers = _obs._ACTIVE
    if observers is not None:
        observers.unified(a1.pred)
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    out: Dict[Variable, Term] = dict(subst)
    for t1, t2 in zip(a1.args, a2.args):
        if not _unify_into(t1, t2, out):
            return None
    return out


def match_atom(
    pattern: Atom, fact: Atom, subst: Substitution = EMPTY_SUBST
) -> Optional[Substitution]:
    """One-way matching: bind variables of *pattern* so it equals *fact*.

    *fact* must be ground (database facts always are).  This is the tuple
    test primitive: matching a query atom against a stored fact, and
    therefore the unification fan-out the join-ordering and
    partial-order-reduction optimizations exist to shrink -- it counts
    into ``unify.attempts`` alongside full rule-head unification (which
    the per-shape match cache already made search-size independent).
    """
    observers = _obs._ACTIVE
    if observers is not None:
        observers.unified(pattern.pred)
    if pattern.pred != fact.pred or len(pattern.args) != len(fact.args):
        return None
    out: Dict[Variable, Term] = dict(subst)
    for pt, ft in zip(pattern.args, fact.args):
        pt = walk(pt, out)
        if isinstance(pt, Variable):
            _bind(pt, ft, out)
        elif pt != ft:
            return None
    return out


def compose(first: Substitution, second: Substitution) -> Substitution:
    """Compose substitutions: applying the result equals applying *first*
    then *second*.
    """
    out: Dict[Variable, Term] = {}
    for v, t in first.items():
        out[v] = walk(t, second)
    for v, t in second.items():
        if v not in out:
            out[v] = t
    return out


def restrict(subst: Substitution, variables: Iterable[Variable]) -> Substitution:
    """Project *subst* onto *variables* (used to report call answers)."""
    keep = set(variables)
    return {v: walk(t, subst) for v, t in subst.items() if v in keep}


def rename_atom(a: Atom, suffix: str) -> Tuple[Atom, Dict[Variable, Term]]:
    """Freshen every variable of *a* by appending *suffix*.

    Returns the renamed atom and the renaming used, so callers can rename
    an entire rule consistently.
    """
    renaming: Dict[Variable, Term] = {}
    new_args = []
    for t in a.args:
        if isinstance(t, Variable):
            if t not in renaming:
                renaming[t] = Variable(t.name + suffix)
            new_args.append(renaming[t])
        else:
            new_args.append(t)
    return Atom(a.pred, tuple(new_args)), renaming
