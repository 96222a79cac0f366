"""Abstract syntax of Transaction Datalog goal bodies.

A TD *goal* (and every rule body) is built from:

* elementary database operations --
  :class:`Test` (tuple testing), :class:`Ins` (``ins.p(t)``),
  :class:`Del` (``del.p(t)``);
* calls to derived predicates defined by rules -- :class:`Call`;
* *sequential composition* ``a (x) b`` -- :class:`Seq`;
* *concurrent composition* ``a | b`` -- :class:`Conc`;
* the *isolation* modality ``(.)a`` -- :class:`Isol` (concrete syntax
  ``iso(a)``), which executes ``a`` atomically, with no interleaving from
  sibling processes;
* the trivially succeeding empty process -- :class:`Truth`.

Two pragmatic extensions used by the paper's examples are included and
clearly flagged by the classifier:

* :class:`Neg` -- an elementary *absence* test (``not p(t)``), used e.g.
  to detect that no work items remain.  The paper allows arbitrary
  elementary operations as black boxes; an absence test is one.
* :class:`Builtin` -- comparisons and arithmetic over integer constants
  (``Bal > Amt``, ``B2 is Bal - Amt``), needed by the banking examples.

Formula trees are immutable; ``Seq``/``Conc`` are n-ary and flattened on
construction so that structural equality matches associativity, which the
engines' memo tables rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .terms import Atom, Constant, Term, Variable
from .unify import Substitution, apply_atom, walk

__all__ = [
    "Formula",
    "Truth",
    "TRUTH",
    "Test",
    "Neg",
    "Ins",
    "Del",
    "Call",
    "Seq",
    "Conc",
    "Isol",
    "Builtin",
    "ArithExpr",
    "BinOp",
    "NonIntegerArithmetic",
    "seq",
    "conc",
    "iso",
    "apply_subst",
    "formula_variables",
    "ordered_variables",
    "free_variables",
    "rename_formula",
    "walk_formulas",
]


class Formula:
    """Base class for TD formulas (process expressions)."""

    __slots__ = ()


@dataclass(frozen=True)
class Truth(Formula):
    """The empty process: succeeds immediately, changes nothing."""

    def __str__(self) -> str:
        return "true"


TRUTH = Truth()


@dataclass(frozen=True)
class Test(Formula):
    """Elementary tuple test on a base predicate.

    Succeeds once per matching fact in the current state, binding the
    pattern's variables.  Leaves the database unchanged.
    """

    atom: Atom

    __test__ = False  # not a pytest test class despite the name

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Neg(Formula):
    """Elementary absence test: succeeds iff no fact matches the pattern.

    Binds nothing.  (Extension; see module docstring.)
    """

    atom: Atom

    def __str__(self) -> str:
        return "not %s" % (self.atom,)


@dataclass(frozen=True)
class Ins(Formula):
    """Elementary insertion ``ins.p(t)``.  The atom must be ground at
    execution time (safety)."""

    atom: Atom

    def __str__(self) -> str:
        return "ins.%s" % (self.atom,)


@dataclass(frozen=True)
class Del(Formula):
    """Elementary deletion ``del.p(t)``.  The atom must be ground at
    execution time (safety)."""

    atom: Atom

    def __str__(self) -> str:
        return "del.%s" % (self.atom,)


@dataclass(frozen=True)
class Call(Formula):
    """Invocation of a derived predicate defined by rules."""

    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)


def _flatten(cls, parts: Tuple[Formula, ...]) -> Tuple[Formula, ...]:
    for p in parts:
        if isinstance(p, (cls, Truth)):
            break
    else:  # already flat -- the common case on rebuilds
        return tuple(parts)
    out = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)
        elif isinstance(p, Truth):
            continue
        else:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class Seq(Formula):
    """Sequential composition ``p1 (x) p2 (x) ... (x) pn``."""

    parts: Tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", _flatten(Seq, self.parts))

    def __str__(self) -> str:
        return " * ".join(_wrap(p) for p in self.parts) if self.parts else "true"


@dataclass(frozen=True)
class Conc(Formula):
    """Concurrent composition ``p1 | p2 | ... | pn`` (interleaving)."""

    parts: Tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", _flatten(Conc, self.parts))

    def __str__(self) -> str:
        return " | ".join(_wrap(p) for p in self.parts) if self.parts else "true"


@dataclass(frozen=True)
class Isol(Formula):
    """Isolated (atomic) execution of the body: ``iso(body)``.

    ``budget`` is an optional cap on the nested search that executes the
    body: when set, an attempt that would explore more than ``budget``
    configurations *fails* (and therefore rolls back -- the paper's
    rollback-on-failure) instead of raising, which is the semantics of
    the ``with_budget`` recovery combinator (see
    :mod:`repro.faults.recovery`).  ``None`` (the default, and the only
    form concrete syntax produces) shares the enclosing search's budget
    and reports exhaustion as an error, exactly as before.
    """

    body: Formula
    budget: Optional[int] = None

    def __str__(self) -> str:
        if self.budget is None:
            return "iso(%s)" % (self.body,)
        return "iso[%d](%s)" % (self.budget, self.body)


# ---------------------------------------------------------------------------
# Built-in comparisons / arithmetic (for the banking examples)
# ---------------------------------------------------------------------------

#: Arithmetic expression: a term, or a binary operation over expressions.
ArithExpr = Union[Term, "BinOp"]


@dataclass(frozen=True)
class BinOp:
    """Arithmetic expression node: ``left op right`` with op in + - *."""

    op: str
    left: ArithExpr
    right: ArithExpr

    def __str__(self) -> str:
        return "(%s %s %s)" % (self.left, self.op, self.right)


#: The orderings; ``=`` and ``!=`` compare constants by identity.
_ORDERINGS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Builtin(Formula):
    """A comparison ``left op right`` or binding ``var is expr``.

    * For op in ``= != < <= > >=`` both sides must be ground at execution
      time.  ``=`` and ``!=`` compare constants by identity, as
      unification does (constants are interned per type and value, so
      ``True = 1`` does not hold).  An ordering holds only between two
      integers (booleans excluded) or two strings: ``a < 3`` does not.
    * For op ``is`` the right side is an arithmetic expression that must
      be ground; the left side is unified with the typed result.
      Arithmetic is over integers only: a string or a boolean operand
      raises :class:`NonIntegerArithmetic` (a :class:`ValueError`), and
      an unbound one a plain :class:`ValueError`.
    """

    op: str
    left: ArithExpr
    right: ArithExpr

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.op, self.right)

    def evaluate(self, subst: Substitution) -> Optional[Substitution]:
        """Evaluate under *subst*; return extended substitution or None.

        Raises :class:`ValueError` if required arguments are unbound --
        unbound comparisons are safety errors, not silent failures.
        """
        if self.op == "is":
            value = _eval_arith(self.right, subst)
            left = self.left
            if isinstance(left, BinOp):
                raise ValueError("left side of 'is' must be a term")
            left = walk(left, subst)
            if isinstance(left, Variable):
                out = dict(subst)
                out[left] = value
                return out
            return subst if left is value else None
        ordering = _ORDERINGS.get(self.op)
        if ordering is None and self.op not in ("=", "!="):
            raise ValueError("unknown builtin operator %r" % (self.op,))
        left = _eval_arith(self.left, subst)
        right = _eval_arith(self.right, subst)
        if ordering is None:
            holds = (left is right) == (self.op == "=")
        else:
            lv, rv = left.value, right.value
            holds = type(lv) is type(rv) and type(lv) in (int, str) and ordering(lv, rv)
        return subst if holds else None


class NonIntegerArithmetic(ValueError):
    """Arithmetic over a string or boolean operand: the builtin fails,
    where an unbound operand is a safety error."""


def _eval_arith(expr: ArithExpr, subst: Substitution) -> Constant:
    if isinstance(expr, BinOp):
        lv = _eval_arith(expr.left, subst).value
        rv = _eval_arith(expr.right, subst).value
        if type(lv) is not int or type(rv) is not int:
            raise NonIntegerArithmetic("arithmetic over non-integers: %s" % (expr,))
        if expr.op == "+":
            return Constant(lv + rv)
        if expr.op == "-":
            return Constant(lv - rv)
        if expr.op == "*":
            return Constant(lv * rv)
        raise ValueError("unknown arithmetic operator %r" % (expr.op,))
    term = walk(expr, subst)
    if isinstance(term, Variable):
        raise ValueError("unbound variable %s in builtin" % (term,))
    return term


# ---------------------------------------------------------------------------
# Constructors and generic traversals
# ---------------------------------------------------------------------------


def _flat_node(cls, parts: Tuple[Formula, ...]) -> Formula:
    """A ``Seq``/``Conc`` over parts that are already flat, built without
    the constructor's re-flattening pass (equal, hash- and
    ``str``-identical to ``cls(parts)``)."""
    node = object.__new__(cls)
    object.__setattr__(node, "parts", parts)
    return node


def seq(*parts: Formula) -> Formula:
    """Sequential composition; collapses units and singletons."""
    flat = _flatten(Seq, parts)
    if not flat:
        return TRUTH
    if len(flat) == 1:
        return flat[0]
    return _flat_node(Seq, flat)


def conc(*parts: Formula) -> Formula:
    """Concurrent composition; collapses units and singletons."""
    flat = _flatten(Conc, parts)
    if not flat:
        return TRUTH
    if len(flat) == 1:
        return flat[0]
    return _flat_node(Conc, flat)


def iso(body: Formula, budget: Optional[int] = None) -> Formula:
    """Isolation; ``iso(true)`` is just ``true``.

    ``budget`` caps the nested search executing the body (bounded
    attempt semantics -- see :class:`Isol`).
    """
    if isinstance(body, Truth):
        return TRUTH
    return Isol(body, budget)


def _wrap(f: Formula) -> str:
    if isinstance(f, (Seq, Conc)):
        return "(%s)" % (f,)
    return str(f)


def _apply_expr(expr: ArithExpr, subst: Substitution) -> ArithExpr:
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _apply_expr(expr.left, subst), _apply_expr(expr.right, subst))
    return walk(expr, subst)


_EMPTY_FROZENSET: frozenset = frozenset()


def free_variables(f: Formula) -> frozenset:
    """The set of variables occurring in *f*, cached on the node.

    Formula nodes are immutable, so the set is computed once per node and
    shared by every tree that reuses the node.  The hot-path consumers
    are :func:`apply_subst` (skip subtrees the substitution cannot touch)
    and the transition relation's blocked-branch summaries.
    """
    cached = getattr(f, "_free_vars", None)
    if cached is not None:
        return cached
    if isinstance(f, (Test, Neg, Ins, Del, Call)):
        fv = frozenset(f.atom.variables()) if not f.atom.is_ground() else _EMPTY_FROZENSET
    elif isinstance(f, (Seq, Conc)):
        fv = _EMPTY_FROZENSET
        for p in f.parts:
            fv = fv | free_variables(p)
    elif isinstance(f, Isol):
        fv = free_variables(f.body)
    elif isinstance(f, Builtin):
        fv = frozenset(_expr_variables(f.left)) | frozenset(_expr_variables(f.right))
    elif isinstance(f, Truth):
        return _EMPTY_FROZENSET
    else:
        raise TypeError("unknown formula type: %r" % (f,))
    object.__setattr__(f, "_free_vars", fv)
    return fv


def apply_subst(f: Formula, subst: Substitution) -> Formula:
    """Apply a substitution to an entire formula tree.

    Subtrees whose variables are disjoint from the substitution's domain
    are returned unchanged (not copied), so a step's residual shares all
    untouched structure -- and therefore all cached canonical-key and
    free-variable summaries -- with its parent configuration.
    """
    if not subst:
        return f
    if isinstance(f, Truth):
        return f
    if free_variables(f).isdisjoint(subst):
        return f
    if isinstance(f, Test):
        return Test(apply_atom(f.atom, subst))
    if isinstance(f, Neg):
        return Neg(apply_atom(f.atom, subst))
    if isinstance(f, Ins):
        return Ins(apply_atom(f.atom, subst))
    if isinstance(f, Del):
        return Del(apply_atom(f.atom, subst))
    if isinstance(f, Call):
        return Call(apply_atom(f.atom, subst))
    if isinstance(f, (Seq, Conc)):
        # Substitution never creates a Seq, Conc or Truth, so the
        # rebuilt parts are as flat as the originals.
        return _flat_node(type(f), tuple(apply_subst(p, subst) for p in f.parts))
    if isinstance(f, Isol):
        return Isol(apply_subst(f.body, subst), f.budget)
    if isinstance(f, Builtin):
        return Builtin(f.op, _apply_expr(f.left, subst), _apply_expr(f.right, subst))
    raise TypeError("unknown formula type: %r" % (f,))


def _expr_variables(expr: ArithExpr) -> Iterator[Variable]:
    if isinstance(expr, BinOp):
        yield from _expr_variables(expr.left)
        yield from _expr_variables(expr.right)
    elif isinstance(expr, Variable):
        yield expr


def formula_variables(f: Formula) -> Iterator[Variable]:
    """Yield all variables in *f* (with repeats, in syntactic order)."""
    if isinstance(f, (Test, Neg, Ins, Del, Call)):
        yield from f.atom.variables()
    elif isinstance(f, (Seq, Conc)):
        for p in f.parts:
            yield from formula_variables(p)
    elif isinstance(f, Isol):
        yield from formula_variables(f.body)
    elif isinstance(f, Builtin):
        yield from _expr_variables(f.left)
        yield from _expr_variables(f.right)


def ordered_variables(f: Formula) -> List[Variable]:
    """Variables of *f*, deduplicated, in first-occurrence order."""
    return list(dict.fromkeys(formula_variables(f)))


def rename_formula(f: Formula, renaming: Dict[Variable, Term]) -> Formula:
    """Apply a variable renaming (a substitution) to *f*."""
    return apply_subst(f, renaming)


def walk_formulas(f: Formula) -> Iterator[Formula]:
    """Yield *f* and every subformula (pre-order)."""
    yield f
    if isinstance(f, (Seq, Conc)):
        for p in f.parts:
            yield from walk_formulas(p)
    elif isinstance(f, Isol):
        yield from walk_formulas(f.body)
