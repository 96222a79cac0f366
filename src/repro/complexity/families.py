"""Scaling families for the complexity experiments.

Every function returns ready-to-run TD artifacts; the benchmark scripts
only choose sizes and measure.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.database import Database
from ..core.formulas import Formula
from ..core.parser import parse_goal, parse_program
from ..core.program import Program
from ..core.terms import atom
from ..machines.andor import AndOrGraph
from ..machines.counter import CounterMachine, Inc

__all__ = [
    "binary_counter_family",
    "chain_edges",
    "diverging_counter_machine",
    "grid_andor_graph",
    "insert_only_closure",
    "nonrecursive_path_program",
    "transitive_closure_program",
]


# ---------------------------------------------------------------------------
# C2: sequential TD, EXPTIME -- a binary counter over n database bits
# ---------------------------------------------------------------------------

_BINARY_COUNTER_RULES = """
% Count through all 2^n bit patterns: `count` succeeds after driving the
% set/1 relation from all-clear to all-set by repeated binary increment.
count <- allset.
count <- inc * count.

% Increment: find the lowest clear bit, set it, clear everything below.
inc <- first(F) * findlow(F).
findlow(I) <- not set(I) * ins.set(I) * clearbelow(I).
findlow(I) <- set(I) * next(I, J) * findlow(J).

clearbelow(I) <- first(I).
clearbelow(I) <- next(J, I) * del.set(J) * clearbelow(J).

% All bits set?
allset <- first(F) * allset_from(F).
allset_from(I) <- set(I) * last(I).
allset_from(I) <- set(I) * next(I, J) * allset_from(J).
"""


def binary_counter_family(n_bits: int) -> Tuple[Program, Formula, Database]:
    """Sequential TD program whose execution walks through all ``2^n``
    databases over ``n`` propositional bits.

    The *program* is fixed; only the database (the bit indexes) grows, so
    measured growth is data complexity.  Everything is tail recursion
    with deletion -- inside sequential TD, and in fact fully bounded, but
    with an exponentially long (and exponentially wide) state space:
    exactly Theorem 4.5's regime.
    """
    if n_bits < 1:
        raise ValueError("need at least one bit")
    program = parse_program(_BINARY_COUNTER_RULES)
    facts = [atom("first", 0), atom("last", n_bits - 1)]
    for i in range(n_bits - 1):
        facts.append(atom("next", i, i + 1))
    return program, parse_goal("count"), Database(facts)


# ---------------------------------------------------------------------------
# C1: full TD, RE -- a counter machine that never halts
# ---------------------------------------------------------------------------


def diverging_counter_machine() -> CounterMachine:
    """A machine that increments counter 0 forever.

    Its TD encoding gives the interpreter an infinite configuration
    space: ``succeeds`` must hit its budget (SearchBudgetExceeded), which
    is the operational face of RE-completeness -- failure to halt cannot
    be distinguished from slow acceptance.
    """
    return CounterMachine((
        Inc(0, 0),
    ))


# ---------------------------------------------------------------------------
# C4: nonrecursive TD, polynomial
# ---------------------------------------------------------------------------

_NONREC_PATH_RULES = """
% Fixed nonrecursive program: is there a path of exactly four edges
% starting at a source?  Record one witness endpoint.
path4(X, Y) <- e(X, A) * e(A, B) * e(B, C) * e(C, Y).
witness <- src(X) * path4(X, Y) * ins.found(X, Y).
"""


def nonrecursive_path_program() -> Program:
    return parse_program(_NONREC_PATH_RULES)


def chain_edges(n: int, extra_random: int = 0, seed: int = 0) -> Database:
    """A chain 0 -> 1 -> ... -> n plus optional random chords.

    Marks node 0 as source and node n as sink.
    """
    rng = random.Random(seed)
    facts = [atom("src", 0), atom("snk", n)]
    for i in range(n):
        facts.append(atom("e", i, i + 1))
    for _ in range(extra_random):
        a = rng.randrange(n + 1)
        b = rng.randrange(n + 1)
        facts.append(atom("e", a, b))
    return Database(facts)


# ---------------------------------------------------------------------------
# C5: query-only TD == classical Datalog
# ---------------------------------------------------------------------------

_TC_RULES = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
"""


def transitive_closure_program() -> Program:
    """Query-only recursive TD: transitive closure, the canonical Datalog
    program.  Evaluated by the tabled interpreter and by the Datalog
    engine that serves the reads; experiment C5 checks the answers
    coincide and compares the scaling."""
    return parse_program(_TC_RULES)


# ---------------------------------------------------------------------------
# C6: insert-only TD (the scientific-workflow fragment)
# ---------------------------------------------------------------------------

_INSERT_ONLY_CLOSURE = """
% Materialize reachability into out/2 using only tests and insertions --
% the update discipline of scientific workflows (results accumulate,
% nothing is ever deleted).  `grow` nondeterministically extends the
% materialization one derived fact at a time and may stop at any point;
% `reach(X, Y)` commits iff enough of the closure can be materialized to
% exhibit out(X, Y).
reach(X, Y) <- grow * out(X, Y).
grow <- true.
grow <- e(X, Y) * not out(X, Y) * ins.out(X, Y) * grow.
grow <- out(X, Z) * e(Z, Y) * not out(X, Y) * ins.out(X, Y) * grow.
"""


def insert_only_closure() -> Program:
    """Insert-only materialization of reachability (see rules above).

    The database only grows during execution -- the monotone regime
    where the paper notes Datalog optimizations apply.  Ask
    ``reach(a, b)`` to decide reachability.
    """
    return parse_program(_INSERT_ONLY_CLOSURE)


# ---------------------------------------------------------------------------
# C2 cross-check: AND/OR game graphs
# ---------------------------------------------------------------------------


def grid_andor_graph(depth: int, fanout: int = 2, seed: int = 0) -> AndOrGraph:
    """A layered AND/OR DAG of the given depth: alternating AND and OR
    layers, random edges to the next layer, axioms at the bottom.

    Solvable instances of growing depth exercise the alternation pattern
    behind sequential TD's EXPTIME-hardness.
    """
    rng = random.Random(seed)
    kind = {}
    successors = {}
    layer_nodes: List[List[str]] = []
    for d in range(depth):
        layer_nodes.append(["n%d_%d" % (d, i) for i in range(fanout)])
    axioms = frozenset("leaf%d" % i for i in range(fanout))
    for d, nodes in enumerate(layer_nodes):
        for name in nodes:
            kind[name] = "and" if d % 2 == 0 else "or"
            if d + 1 < depth:
                pool = layer_nodes[d + 1]
            else:
                pool = sorted(axioms)
            k = rng.randint(1, len(pool))
            successors[name] = tuple(rng.sample(pool, k))
    return AndOrGraph(kind=kind, successors=successors, axioms=axioms)
