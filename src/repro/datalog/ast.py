"""Datalog abstract syntax: rules with conjunctive bodies and stratified
negation.

Shares terms and atoms with :mod:`repro.core.terms`.  A rule body is a
sequence of literals (positive or negated atoms); evaluation order within
a body is a query-plan detail, not semantics -- the engine reorders
literals for safety (negation last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..core.terms import Atom, Signature, Variable

__all__ = ["Literal", "DatalogRule", "DatalogProgram", "StratificationError"]


class StratificationError(ValueError):
    """The program has negation through recursion (no stratification)."""


@dataclass(frozen=True)
class Literal:
    """A body literal: an atom, possibly negated."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "not %s" % (self.atom,)


@dataclass(frozen=True)
class DatalogRule:
    """``head :- body``.  Safety: every head variable and every variable
    of a negative literal must occur in some positive body literal."""

    head: Atom
    body: Tuple[Literal, ...] = ()

    def check_safety(self) -> None:
        positive_vars: Set[Variable] = set()
        for lit in self.body:
            if lit.positive:
                positive_vars.update(lit.atom.variables())
        for v in self.head.variables():
            if v not in positive_vars:
                raise ValueError(
                    "unsafe rule: head variable %s of %s not bound by a "
                    "positive body literal" % (v, self.head)
                )
        for lit in self.body:
            if not lit.positive:
                for v in lit.atom.variables():
                    if v not in positive_vars:
                        raise ValueError(
                            "unsafe rule: negated variable %s in rule for "
                            "%s not bound positively" % (v, self.head)
                        )

    def __str__(self) -> str:
        if not self.body:
            return "%s." % (self.head,)
        return "%s :- %s." % (self.head, ", ".join(str(l) for l in self.body))


class DatalogProgram:
    """A set of Datalog rules with a computed stratification.

    Predicates defined by rules are *intensional* (IDB); all others are
    *extensional* (EDB, supplied by the input database).
    """

    def __init__(self, rules: Iterable[DatalogRule]):
        self.rules: Tuple[DatalogRule, ...] = tuple(rules)
        for rule in self.rules:
            rule.check_safety()
        self.idb: Set[Signature] = {r.head.signature for r in self.rules}
        self.strata: Tuple[Tuple[Signature, ...], ...] = self._stratify()

    def rules_for_stratum(self, stratum: Sequence[Signature]) -> List[DatalogRule]:
        group = set(stratum)
        return [r for r in self.rules if r.head.signature in group]

    def _stratify(self) -> Tuple[Tuple[Signature, ...], ...]:
        """Assign strata: predicates negated by p must be fully computed
        before p.  Raises :class:`StratificationError` if negation occurs
        inside a recursive cycle."""
        level: Dict[Signature, int] = {sig: 0 for sig in self.idb}
        n = len(self.idb) or 1
        # Bellman-Ford style relaxation over the dependency graph:
        # positive edge keeps the level, negative edge forces +1.
        for iteration in range(n * n + 1):
            changed = False
            for rule in self.rules:
                head = rule.head.signature
                for lit in rule.body:
                    sig = lit.atom.signature
                    if sig not in self.idb:
                        continue
                    required = level[sig] + (0 if lit.positive else 1)
                    if level[head] < required:
                        level[head] = required
                        changed = True
                        if level[head] > n:
                            raise StratificationError(
                                "negation through recursion involving %s/%d"
                                % head
                            )
            if not changed:
                break
        buckets: Dict[int, List[Signature]] = {}
        for sig, lv in level.items():
            buckets.setdefault(lv, []).append(sig)
        return tuple(
            tuple(sorted(buckets[lv])) for lv in sorted(buckets)
        )

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)
