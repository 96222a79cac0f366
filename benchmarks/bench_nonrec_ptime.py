"""Experiment C4: nonrecursive TD decides in polynomial time.

Paper artifact: Theorem 4.7 ("if we eliminate recursion altogether, then
data complexity plummets from RE to less than PTIME").  A fixed
nonrecursive program is evaluated over growing databases; the counted
cost curve must classify as polynomial -- the contrast to C2's
exponential curve on the same harness.
"""

import pytest

from repro import select_engine
from repro.complexity import (
    chain_edges,
    estimate_growth,
    measure,
    nonrecursive_path_program,
    print_series,
)
from repro.core.terms import atom


def every_node_a_source(n):
    db = chain_edges(n, extra_random=n // 2, seed=n)
    return db.insert_all(atom("src", i) for i in range(n + 1))


def four_edge_pairs(db):
    """The (X, Y) pairs joined by a path of exactly four edges."""
    succ = {}
    for fact in db.facts("e"):
        succ.setdefault(fact.args[0], set()).add(fact.args[1])
    pairs = set()
    for fact in db.facts("src"):
        ends = {fact.args[0]}
        for _ in range(4):
            ends = {y for x in ends for y in succ.get(x, ())}
        pairs |= {(fact.args[0], y) for y in ends}
    return pairs


def test_nonrecursive_polynomial_scaling(benchmark, bench_instrumentation):
    """Every node is a source and the search is exhaustive (one final
    database per 4-path), so the work reads the whole database.  The
    growth verdict is on counted work: the unification attempts, read
    from the instrumentation every benchmark runs under.  The seconds
    are printed as context."""
    program = nonrecursive_path_program()
    metrics = bench_instrumentation.metrics
    rows = []
    sizes = []
    attempts = []
    for n in (10, 20, 40, 80, 160):
        db = every_node_a_source(n)
        engine = select_engine(program)
        before = metrics.counter("unify.attempts")
        finals, seconds = measure(lambda: engine.final_databases("witness", db))
        unified = metrics.counter("unify.attempts") - before
        assert len(finals) == len(four_edge_pairs(db))
        rows.append([n, len(db), unified, seconds])
        sizes.append(len(db))
        attempts.append(unified)
    print_series(
        "C4: nonrecursive TD -- cost vs database size",
        ["chain length", "|db|", "unify attempts", "seconds"],
        rows,
    )
    assert estimate_growth(sizes, attempts) == "polynomial"

    db = every_node_a_source(40)
    engine = select_engine(program)
    benchmark.pedantic(
        lambda: engine.final_databases("witness", db), rounds=3, iterations=1
    )


def test_negative_instances_also_polynomial(benchmark):
    """Failure must be decided, and cheaply: short chains have no 4-path."""
    program = nonrecursive_path_program()
    rows = []
    for n in (1, 2, 3):
        db = chain_edges(n)
        engine = select_engine(program)
        ok, seconds = measure(lambda: engine.succeeds("witness", db))
        assert not ok
        rows.append([n, seconds])
    print_series(
        "C4: nonrecursive TD -- negative instances decided",
        ["chain length", "seconds"],
        rows,
    )
    db = chain_edges(3)
    engine = select_engine(program)
    benchmark.pedantic(lambda: engine.succeeds("witness", db), rounds=3, iterations=1)
