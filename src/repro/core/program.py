"""Rules and rulebases (TD programs).

A TD program (the paper says *rulebase*) is a finite set of rules

    head <- body

where ``head`` is an atom over a *derived* predicate and ``body`` is a TD
formula.  Predicates split into two disjoint classes, exactly as in the
paper:

* *base* predicates -- stored in the database; accessed only through the
  elementary operations (tuple testing, ``ins``, ``del``);
* *derived* predicates -- defined by rules; invoking one unfolds its
  rules (nondeterministically, when several rules match).

The parser emits every body atom as a generic :class:`~repro.core.formulas.Call`;
:meth:`Program.resolve` rewrites calls to base predicates into
:class:`~repro.core.formulas.Test` once the base/derived split is known.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .database import Schema
from .formulas import (
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
    apply_subst,
    formula_variables,
    walk_formulas,
)
from .terms import Atom, Constant, Signature, Term, Variable
from .unify import Substitution, unify_atoms

__all__ = ["Rule", "Program", "ProgramError"]


class ProgramError(ValueError):
    """Raised for ill-formed rulebases (e.g. updating a derived predicate)."""


def _canon_call(atom: Atom, kept: frozenset) -> Tuple[Atom, Dict[Term, Term]]:
    """Abstract a call atom to its shape: variables, and constants that
    equal no constant of a matching rule head (*kept* holds those), are
    renamed to reserved variables and constants by first occurrence
    (``\\x00`` cannot appear in source names).  Equal constants share a
    placeholder, and a placeholder equals no head constant, so two calls
    with the same shape match the same rules with unifiers equal up to
    the returned renaming (original term -> reserved term)."""
    mapping: Dict[Term, Term] = {}
    args = []
    for t in atom.args:
        if t not in kept:
            c = mapping.get(t)
            if c is None:
                kind = Variable if isinstance(t, Variable) else Constant
                c = mapping[t] = kind("\x00%d" % len(mapping))
            t = c
        args.append(t)
    return Atom(atom.pred, tuple(args)), mapping


@dataclass(frozen=True)
class Rule:
    """A single TD rule ``head <- body``."""

    head: Atom
    body: Formula

    def _var_set(self) -> frozenset:
        """Cached variable set; rules are immutable and renamed often."""
        cached = getattr(self, "_vars", None)
        if cached is None:
            cached = frozenset(self.head.variables()).union(
                formula_variables(self.body)
            )
            object.__setattr__(self, "_vars", cached)
        return cached

    def variables(self) -> Set[Variable]:
        return set(self._var_set())

    def rename(self, suffix: str) -> "Rule":
        """Freshen every variable by appending *suffix*."""
        variables = self._var_set()
        if not variables:
            return self
        renaming = {v: Variable(v.name + suffix) for v in variables}
        new_head = Atom(
            self.head.pred,
            tuple(renaming.get(t, t) if isinstance(t, Variable) else t for t in self.head.args),
        )
        return Rule(new_head, apply_subst(self.body, renaming))

    def __str__(self) -> str:
        if isinstance(self.body, Truth):
            return "%s." % (self.head,)
        return "%s <- %s." % (self.head, self.body)


class Program:
    """A TD rulebase together with its base-predicate schema.

    Parameters
    ----------
    rules:
        The rules.  Body atoms may still be unresolved generic calls; the
        constructor resolves them (base-predicate calls become tests).
    base:
        Extra base-predicate signatures to declare beyond those inferred
        from ``ins``/``del``/``not`` occurrences.
    strict:
        If true (default), using an undeclared predicate that is neither
        a rule head nor inferable as base raises; if false, such
        predicates are treated as base on first use.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        base: Iterable[Signature] = (),
        strict: bool = False,
    ):
        self._rules: List[Rule] = list(rules)
        self._derived: Dict[Signature, List[Rule]] = {}
        for rule in self._rules:
            self._derived.setdefault(rule.head.signature, []).append(rule)

        self.schema = Schema(base, strict=False)
        self._infer_base_predicates()
        self.strict = strict
        self._rules = [self._resolve_rule(r) for r in self._rules]
        self._derived = {}
        for rule in self._rules:
            self._derived.setdefault(rule.head.signature, []).append(rule)
        self._fresh_counter = itertools.count(1)
        self._match_cache: Dict[Atom, list] = {}
        # Per signature, the constants of its rule heads: the only
        # constants a call keeps in its cached shape.
        self._head_constants: Dict[Signature, frozenset] = {
            sig: frozenset(
                t for rule in rules for t in rule.head.args
                if isinstance(t, Constant)
            )
            for sig, rules in self._derived.items()
        }
        self._signature_footprints: Optional[Dict[Signature, tuple]] = None
        self._footprint: Optional[Tuple[frozenset, frozenset]] = None
        self._validate()

    # -- construction internals ------------------------------------------------

    def _infer_base_predicates(self) -> None:
        for rule in self._rules:
            for sub in walk_formulas(rule.body):
                if isinstance(sub, (Ins, Del, Neg)):
                    self.schema.declare(sub.atom.pred, sub.atom.arity)
                elif isinstance(sub, Test):
                    self.schema.declare(sub.atom.pred, sub.atom.arity)

    def is_derived(self, sig: Signature) -> bool:
        return sig in self._derived

    def is_base(self, sig: Signature) -> bool:
        return sig in self.schema and not self.is_derived(sig)

    def _resolve_formula(self, f: Formula) -> Formula:
        if isinstance(f, Call):
            sig = f.atom.signature
            if self.is_derived(sig):
                return f
            # Not a rule head: it is a tuple test on a base predicate.
            if sig not in self.schema:
                if self.strict:
                    raise ProgramError(
                        "predicate %s/%d is neither defined by rules nor "
                        "declared as a base predicate" % sig
                    )
                self.schema.declare(*sig)
            return Test(f.atom)
        if isinstance(f, Seq):
            return Seq(tuple(self._resolve_formula(p) for p in f.parts))
        if isinstance(f, Conc):
            return Conc(tuple(self._resolve_formula(p) for p in f.parts))
        if isinstance(f, Isol):
            return Isol(self._resolve_formula(f.body), f.budget)
        return f

    def _resolve_rule(self, rule: Rule) -> Rule:
        return Rule(rule.head, self._resolve_formula(rule.body))

    def _validate(self) -> None:
        for rule in self._rules:
            if rule.head.signature in self.schema:
                raise ProgramError(
                    "predicate %s/%d is both base and derived"
                    % rule.head.signature
                )
            for sub in walk_formulas(rule.body):
                if isinstance(sub, (Ins, Del)) and self.is_derived(sub.atom.signature):
                    raise ProgramError(
                        "cannot update derived predicate %s/%d"
                        % sub.atom.signature
                    )
                if isinstance(sub, Test) and self.is_derived(sub.atom.signature):
                    raise ProgramError(
                        "internal error: derived predicate %s/%d resolved "
                        "as a tuple test" % sub.atom.signature
                    )

    # -- public API ---------------------------------------------------------------

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules)

    def derived_signatures(self) -> Tuple[Signature, ...]:
        return tuple(sorted(self._derived))

    def rules_for(self, sig: Signature) -> Sequence[Rule]:
        """Rules whose head matches *sig*, in program order."""
        return self._derived.get(sig, ())

    def fresh_rules_for(self, sig: Signature) -> Iterator[Rule]:
        """Rules for *sig*, each with variables freshly renamed."""
        for rule in self._derived.get(sig, ()):
            yield rule.rename("#%d" % next(self._fresh_counter))

    def match_rules(self, call_atom: Atom) -> Iterator[Tuple[Rule, Substitution]]:
        """Indexed call dispatch: ``(fresh rule, unifier)`` for every rule
        whose head unifies with *call_atom*, in program order.

        Equivalent to scanning :meth:`fresh_rules_for` and unifying each
        renamed head, but which heads match -- and with what unifier, up
        to renaming -- depends only on the call's *shape*: its pattern
        of shared variables and equal constants, and those of its
        constants that some head of its signature has.  The result is
        memoized per canonicalized call atom, so the cache grows with
        the shapes a program calls, not with the constants it calls
        them on.  Repeated unfoldings of the same shape skip head
        unification entirely: only the matching rules are renamed and
        their cached unifier templates are instantiated with the call's
        own terms.
        """
        sig = call_atom.signature
        canon, mapping = _canon_call(
            call_atom, self._head_constants.get(sig, frozenset())
        )
        entry = self._match_cache.get(canon)
        rules = self._derived.get(sig, ())
        if entry is None:
            entry = []
            for idx, rule in enumerate(rules):
                # Base (unrenamed) rule vars cannot collide with the
                # reserved canonical names, so this one unification
                # stands in for every future call of this shape.
                theta = unify_atoms(rule.head, canon)
                if theta is not None:
                    entry.append((idx, theta))
            self._match_cache[canon] = entry
        if not entry:
            return
        inv: Dict[Term, Term] = {c: t for t, c in mapping.items()}
        for idx, ctheta in entry:
            suffix = "#%d" % next(self._fresh_counter)
            theta: Dict[Variable, Term] = {}
            for v, t in ctheta.items():
                t = inv.get(t, t)
                actual = inv.get(v)
                if actual is None:
                    actual = Variable(v.name + suffix)
                theta[actual] = t
            yield rules[idx].rename(suffix), theta

    def signature_footprints(self) -> Dict[Signature, Tuple[frozenset, ...]]:
        """Per-derived-signature ``(reads, inserts, deletes)`` closure
        (cached).

        The direct footprint of each rule body is closed over the call
        graph by fixpoint iteration, so ``footprints[sig]`` covers every
        predicate any unfolding of ``sig`` may ever read, insert, or
        delete.  Partial-order reduction charges each call with its
        closure; :meth:`update_footprint` is the union of them all.
        """
        cached = self._signature_footprints
        if cached is not None:
            return cached
        direct: Dict[Signature, Tuple[set, set, set]] = {}
        calls: Dict[Signature, set] = {}
        for rule in self._rules:
            sig = rule.head.signature
            reads, ins, dels = direct.setdefault(sig, (set(), set(), set()))
            callees = calls.setdefault(sig, set())
            for sub in walk_formulas(rule.body):
                if isinstance(sub, (Test, Neg)):
                    reads.add(sub.atom.pred)
                elif isinstance(sub, Ins):
                    ins.add(sub.atom.pred)
                elif isinstance(sub, Del):
                    dels.add(sub.atom.pred)
                elif isinstance(sub, Call):
                    callees.add(sub.atom.signature)
        changed = True
        while changed:
            changed = False
            for sig, callees in calls.items():
                acc = direct[sig]
                for callee in callees:
                    sub_fp = direct.get(callee)
                    if sub_fp is None:
                        continue  # undefined call: the engine raises on it
                    for mine, theirs in zip(acc, sub_fp):
                        if not theirs <= mine:
                            mine |= theirs
                            changed = True
        cached = {
            sig: (frozenset(r), frozenset(i), frozenset(d))
            for sig, (r, i, d) in direct.items()
        }
        self._signature_footprints = cached
        return cached

    def update_footprint(self) -> Tuple[frozenset, frozenset]:
        """Predicates any rule body can insert / delete (cached)."""
        cached = self._footprint
        if cached is None:
            closures = self.signature_footprints().values()
            cached = (
                frozenset().union(*(fp[1] for fp in closures)),
                frozenset().union(*(fp[2] for fp in closures)),
            )
            self._footprint = cached
        return cached

    def resolve_goal(self, goal: Formula) -> Formula:
        """Resolve generic calls in a parsed goal against this program."""
        return self._resolve_formula(goal)

    def extend(self, rules: Iterable[Rule]) -> "Program":
        """A new program with extra rules (programs are immutable)."""
        return Program(
            list(self._rules) + list(rules),
            base=self.schema.signatures(),
            strict=self.strict,
        )

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)
