"""Static analysis of TD programs: the sublanguage classifier.

Section 4-5 of the paper locates the complexity of workflows in three
modeling features -- *concurrency*, *recursion*, and *deletion* -- and
carves out sublanguages by controlling them:

* **query-only TD** (tuple testing only): classical Datalog;
* **insert-only TD** (no deletion): the natural language of scientific
  workflows whose experiment histories only grow;
* **nonrecursive TD**: data complexity below PTIME (Theorem 4.7);
* **sequential TD** (no ``|``): EXPTIME-complete (Theorem 4.5);
* **fully bounded TD** (Section 5): bounded concurrency plus sequential
  tail recursion -- processes may be created and destroyed but their
  number never grows with recursion depth, so the configuration space is
  finite and execution is decidable with a practical procedure.

This module computes the call graph, its strongly connected components,
which features each rule uses, whether every recursive call is a
*sequential tail call* (the fully-bounded condition), and a conservative
variable-boundedness (safety) check.  :func:`analyze` produces a report;
:func:`classify` names the smallest sublanguage containing the program.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

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
    formula_variables,
    walk_formulas,
)
from .program import Program
from .terms import Signature, Variable

__all__ = ["Sublanguage", "Analysis", "analyze", "classify"]


class Sublanguage(enum.Enum):
    """The sublanguages studied by the paper, smallest-first."""

    QUERY_ONLY = "query-only TD (classical Datalog)"
    NONRECURSIVE = "nonrecursive TD"
    FULLY_BOUNDED = "fully bounded TD"
    SEQUENTIAL = "sequential TD"
    FULL = "full TD"


@dataclass
class Analysis:
    """Everything the classifier learned about a program."""

    uses_conc: bool
    uses_ins: bool
    uses_del: bool
    uses_neg: bool
    uses_builtin: bool
    uses_iso: bool
    recursive: bool
    recursion_in_conc: bool
    recursion_in_iso: bool
    tail_recursive_only: bool
    sccs: Tuple[Tuple[Signature, ...], ...]
    recursive_signatures: FrozenSet[Signature]
    safety_warnings: Tuple[str, ...]

    @property
    def insert_only(self) -> bool:
        """No deletion: the scientific-workflow fragment."""
        return not self.uses_del

    @property
    def query_only(self) -> bool:
        return not (self.uses_ins or self.uses_del)

    @property
    def sequential(self) -> bool:
        return not self.uses_conc

    @property
    def fully_bounded(self) -> bool:
        """Bounded concurrency + sequential tail recursion.

        Recursion never occurs inside ``|`` or ``iso`` and every
        recursive call is the final step of its rule body, so unfolding
        never grows the process: the number of concurrent processes is
        fixed by the goal, and each runs in bounded space over a finite
        set of residual programs.
        """
        if not self.recursive:
            return True
        return (
            not self.recursion_in_conc
            and not self.recursion_in_iso
            and self.tail_recursive_only
        )

    def classify(self) -> Sublanguage:
        if self.query_only and not self.uses_conc:
            return Sublanguage.QUERY_ONLY
        if not self.recursive:
            return Sublanguage.NONRECURSIVE
        if self.fully_bounded:
            return Sublanguage.FULLY_BOUNDED
        if self.sequential:
            return Sublanguage.SEQUENTIAL
        return Sublanguage.FULL

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly summary (for tooling and dashboards)."""
        return {
            "sublanguage": self.classify().name,
            "uses_conc": self.uses_conc,
            "uses_ins": self.uses_ins,
            "uses_del": self.uses_del,
            "uses_neg": self.uses_neg,
            "uses_builtin": self.uses_builtin,
            "uses_iso": self.uses_iso,
            "recursive": self.recursive,
            "recursion_in_conc": self.recursion_in_conc,
            "recursion_in_iso": self.recursion_in_iso,
            "tail_recursive_only": self.tail_recursive_only,
            "fully_bounded": self.fully_bounded,
            "insert_only": self.insert_only,
            "query_only": self.query_only,
            "recursive_predicates": sorted(
                "%s/%d" % sig for sig in self.recursive_signatures
            ),
            "safety_warnings": list(self.safety_warnings),
        }

    def report(self) -> str:
        """A human-readable multi-line summary."""
        lines = [
            "sublanguage:        %s" % self.classify().value,
            "concurrency:        %s" % _yn(self.uses_conc),
            "insertion:          %s" % _yn(self.uses_ins),
            "deletion:           %s" % _yn(self.uses_del),
            "absence tests:      %s" % _yn(self.uses_neg),
            "builtins:           %s" % _yn(self.uses_builtin),
            "isolation:          %s" % _yn(self.uses_iso),
            "recursive:          %s" % _yn(self.recursive),
        ]
        if self.recursive:
            lines += [
                "recursion in '|':   %s" % _yn(self.recursion_in_conc),
                "recursion in iso:   %s" % _yn(self.recursion_in_iso),
                "tail recursion only:%s" % _yn(self.tail_recursive_only),
                "fully bounded:      %s" % _yn(self.fully_bounded),
            ]
        for warning in self.safety_warnings:
            lines.append("warning: %s" % warning)
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Call graph and SCCs
# ---------------------------------------------------------------------------


def _call_graph(program: Program) -> Dict[Signature, Set[Signature]]:
    graph: Dict[Signature, Set[Signature]] = {
        sig: set() for sig in program.derived_signatures()
    }
    for rule in program.rules:
        for sub in walk_formulas(rule.body):
            if isinstance(sub, Call):
                graph[rule.head.signature].add(sub.atom.signature)
    return graph


def _tarjan_sccs(graph: Dict[Signature, Set[Signature]]) -> List[List[Signature]]:
    """Tarjan's algorithm, iterative (programs can define many predicates)."""
    index: Dict[Signature, int] = {}
    lowlink: Dict[Signature, int] = {}
    on_stack: Set[Signature] = set()
    stack: List[Signature] = []
    sccs: List[List[Signature]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue  # call to a base predicate already resolved
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _recursive_signatures(
    graph: Dict[Signature, Set[Signature]], sccs: Sequence[Sequence[Signature]]
) -> Set[Signature]:
    recursive: Set[Signature] = set()
    for component in sccs:
        if len(component) > 1:
            recursive.update(component)
        else:
            (only,) = component
            if only in graph.get(only, ()):
                recursive.add(only)
    return recursive


# ---------------------------------------------------------------------------
# Tail-position analysis (the fully-bounded condition)
# ---------------------------------------------------------------------------


def _recursive_calls_positioned(
    body: Formula, recursive_sigs: Set[Signature], scc_of: Dict[Signature, int], head_scc: int
) -> Iterator[Tuple[Call, bool, bool, bool]]:
    """Yield (call, is_tail, inside_conc, inside_iso) for every call in
    *body* that is recursive with respect to the head's SCC."""

    def walk(f: Formula, tail: bool, in_conc: bool, in_iso: bool):
        if isinstance(f, Call):
            sig = f.atom.signature
            if sig in recursive_sigs and scc_of.get(sig) == head_scc:
                yield f, tail, in_conc, in_iso
            return
        if isinstance(f, Seq):
            last = len(f.parts) - 1
            for i, p in enumerate(f.parts):
                yield from walk(p, tail and i == last, in_conc, in_iso)
            return
        if isinstance(f, Conc):
            for p in f.parts:
                yield from walk(p, False, True, in_iso)
            return
        if isinstance(f, Isol):
            yield from walk(f.body, False, in_conc, True)
            return
        # Elementary formulas contain no calls.

    yield from walk(body, True, False, False)


# ---------------------------------------------------------------------------
# Conservative safety (boundedness of update arguments)
# ---------------------------------------------------------------------------


def _safety_warnings(program: Program) -> List[str]:
    warnings: List[str] = []
    for rule in program.rules:
        bound = frozenset(rule.head.variables())
        _bound_after(rule.body, bound, warnings, str(rule.head))
    return warnings


def _bound_after(
    f: Formula, bound: FrozenSet[Variable], warnings: List[str], where: str
) -> FrozenSet[Variable]:
    if isinstance(f, Truth):
        return bound
    if isinstance(f, Test):
        return bound | set(f.atom.variables())
    if isinstance(f, Neg):
        return bound
    if isinstance(f, (Ins, Del)):
        unbound = [v for v in f.atom.variables() if v not in bound]
        if unbound:
            op = "ins" if isinstance(f, Ins) else "del"
            warnings.append(
                "in rule for %s: %s.%s may run with unbound %s"
                % (where, op, f.atom, ", ".join(str(v) for v in unbound))
            )
        return bound
    if isinstance(f, Call):
        return bound | set(f.atom.variables())
    if isinstance(f, Builtin):
        out = set(bound)
        needed = set(formula_variables(f))
        if f.op == "is" and isinstance(f.left, Variable):
            needed.discard(f.left)
            out.add(f.left)
        unbound = needed - bound
        if unbound:
            warnings.append(
                "in rule for %s: builtin '%s' may run with unbound %s"
                % (where, f, ", ".join(sorted(str(v) for v in unbound)))
            )
        return frozenset(out)
    if isinstance(f, Seq):
        current = bound
        for p in f.parts:
            current = _bound_after(p, current, warnings, where)
        return current
    if isinstance(f, Conc):
        # A branch may rely on bindings produced by a sibling at runtime;
        # be optimistic (warn less) by granting each branch the variables
        # any sibling could bind.
        sibling_bound = [frozenset(_bound_after(p, bound, [], where)) for p in f.parts]
        out = set(bound)
        for i, p in enumerate(f.parts):
            granted = set(bound)
            for j, sb in enumerate(sibling_bound):
                if j != i:
                    granted |= sb
            out |= _bound_after(p, frozenset(granted), warnings, where)
        return frozenset(out)
    if isinstance(f, Isol):
        return _bound_after(f.body, bound, warnings, where)
    return bound


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze(program: Program, goal: Optional[Formula] = None) -> Analysis:
    """Analyze *program* (and optionally a goal executed against it)."""
    formulas: List[Formula] = [r.body for r in program.rules]
    if goal is not None:
        formulas.append(program.resolve_goal(goal))

    uses = {"conc": False, "ins": False, "del": False, "neg": False,
            "builtin": False, "iso": False}
    for body in formulas:
        for sub in walk_formulas(body):
            if isinstance(sub, Conc):
                uses["conc"] = True
            elif isinstance(sub, Ins):
                uses["ins"] = True
            elif isinstance(sub, Del):
                uses["del"] = True
            elif isinstance(sub, Neg):
                uses["neg"] = True
            elif isinstance(sub, Builtin):
                uses["builtin"] = True
            elif isinstance(sub, Isol):
                uses["iso"] = True

    graph = _call_graph(program)
    sccs = _tarjan_sccs(graph)
    recursive_sigs = _recursive_signatures(graph, sccs)
    scc_of: Dict[Signature, int] = {}
    for i, component in enumerate(sccs):
        for sig in component:
            scc_of[sig] = i

    recursion_in_conc = False
    recursion_in_iso = False
    tail_only = True
    for rule in program.rules:
        head_scc = scc_of.get(rule.head.signature)
        if head_scc is None:
            continue
        for _call, tail, in_conc, in_iso in _recursive_calls_positioned(
            rule.body, recursive_sigs, scc_of, head_scc
        ):
            if in_conc:
                recursion_in_conc = True
            if in_iso:
                recursion_in_iso = True
            if not tail:
                tail_only = False

    return Analysis(
        uses_conc=uses["conc"],
        uses_ins=uses["ins"],
        uses_del=uses["del"],
        uses_neg=uses["neg"],
        uses_builtin=uses["builtin"],
        uses_iso=uses["iso"],
        recursive=bool(recursive_sigs),
        recursion_in_conc=recursion_in_conc,
        recursion_in_iso=recursion_in_iso,
        tail_recursive_only=tail_only,
        sccs=tuple(tuple(sorted(c)) for c in sccs),
        recursive_signatures=frozenset(recursive_sigs),
        safety_warnings=tuple(_safety_warnings(program)),
    )


def classify(program: Program, goal: Optional[Formula] = None) -> Sublanguage:
    """The smallest paper sublanguage containing *program* (and *goal*)."""
    return analyze(program, goal).classify()
