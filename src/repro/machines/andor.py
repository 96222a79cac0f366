"""AND/OR graphs: the alternation core of the EXPTIME result.

Theorem 4.5's lower bound comes from sequential TD simulating
*alternating* PSPACE machines: recursive subroutines provide universal
(AND) branching -- a rule body ``solve(a) * solve(b)`` succeeds only if
*both* subgoals do -- while choice among rules provides existential (OR)
branching.  AND/OR graph solvability is the combinatorial skeleton of
alternation, so the benchmark uses it: solve a graph natively (the
fixpoint solver below) and via its sequential-TD encoding, and check
they agree.

Here graphs are *grounded* game graphs: a node is solvable if it is an
axiom; an OR node is solvable if some successor is; an AND node if all
of its (finitely many) successors are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core.database import Database
from ..core.formulas import Builtin, BinOp, Call, Test, TRUTH, seq
from ..core.program import Program, Rule
from ..core.terms import Atom, Constant, Variable, atom

__all__ = ["AndOrGraph", "solve_andor", "andor_to_td"]


@dataclass
class AndOrGraph:
    """Nodes with a type (``"and"`` / ``"or"``), successor lists, and a
    set of axiom leaves (solvable by definition)."""

    kind: Dict[str, str]
    successors: Dict[str, Tuple[str, ...]]
    axioms: FrozenSet[str]

    def __post_init__(self):
        for node, k in self.kind.items():
            if k not in ("and", "or"):
                raise ValueError("node %s has kind %r (want and/or)" % (node, k))
        for node, succs in self.successors.items():
            if node not in self.kind and node not in self.axioms:
                raise ValueError("successors given for unknown node %s" % node)
            for s in succs:
                if s not in self.kind and s not in self.axioms:
                    raise ValueError("edge %s -> unknown node %s" % (node, s))

    def nodes(self) -> Set[str]:
        return set(self.kind) | set(self.axioms)


def solve_andor(graph: AndOrGraph) -> Set[str]:
    """The set of solvable nodes (least fixpoint, the native oracle)."""
    solvable: Set[str] = set(graph.axioms)
    changed = True
    while changed:
        changed = False
        for node, k in graph.kind.items():
            if node in solvable:
                continue
            succs = graph.successors.get(node, ())
            if not succs:
                continue  # an inner node with no successors is unsolvable
            if k == "or":
                ok = any(s in solvable for s in succs)
            else:
                ok = all(s in solvable for s in succs)
            if ok:
                solvable.add(node)
                changed = True
    return solvable


def andor_to_td(graph: AndOrGraph) -> Tuple[Program, Database]:
    """Encode solvability into *sequential, query-only* TD.

    The graph lives in the database (``axiom/1``, ``ornode/1``,
    ``andnode/1``, ``child/3`` with 0-based child indexes, ``nkids/2``);
    the rules below are fixed, so asking ``solve(n)`` is a pure data
    complexity question for the tabled interpreter (the builtins keep
    it off the Datalog reader).

    Rules::

        solve(X) <- axiom(X).
        solve(X) <- ornode(X) * child(X, I, Y) * solve(Y).
        solve(X) <- andnode(X) * nkids(X, N) * N > 0 * all_kids(X, 0, N).
        all_kids(X, N, N).
        all_kids(X, I, N) <- I < N * child(X, I, Y) * solve(Y) *
                             I2 is I + 1 * all_kids(X, I2, N).
    """
    x, y, i, i2, n = (Variable(v) for v in ("X", "Y", "I", "I2", "N"))
    rules = [
        Rule(Atom("solve", (x,)), Test(Atom("axiom", (x,)))),
        Rule(
            Atom("solve", (x,)),
            seq(
                Test(Atom("ornode", (x,))),
                Test(Atom("child", (x, i, y))),
                Call(Atom("solve", (y,))),
            ),
        ),
        Rule(
            Atom("solve", (x,)),
            seq(
                Test(Atom("andnode", (x,))),
                Test(Atom("nkids", (x, n))),
                Builtin(">", n, Constant(0)),
                Call(Atom("all_kids", (x, Constant(0), n))),
            ),
        ),
        Rule(Atom("all_kids", (x, n, n)), TRUTH),
        Rule(
            Atom("all_kids", (x, i, n)),
            seq(
                Builtin("<", i, n),
                Test(Atom("child", (x, i, y))),
                Call(Atom("solve", (y,))),
                Builtin("is", i2, BinOp("+", i, Constant(1))),
                Call(Atom("all_kids", (x, i2, n))),
            ),
        ),
    ]
    program = Program(rules)

    facts: List[Atom] = [atom("axiom", a) for a in sorted(graph.axioms)]
    for node, k in sorted(graph.kind.items()):
        facts.append(atom("ornode" if k == "or" else "andnode", node))
        succs = graph.successors.get(node, ())
        facts.append(atom("nkids", node, len(succs)))
        for idx, succ in enumerate(succs):
            facts.append(atom("child", node, idx, succ))
    return program, Database(facts)
