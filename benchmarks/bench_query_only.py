"""Experiment C5: query-only TD coincides with classical Datalog.

Paper artifact: the observation that with tuple testing only, TD *is*
Datalog, so "well-known optimization techniques (such as magic sets or
tabling) can be applied".  We run transitive closure both ways -- TD's
own semantics on the tabled interpreter, and the seminaive Datalog
engine -- check the answers coincide, and compare their times and
scaling with the engine's routed read, which runs on Datalog with
magic sets.
"""

import pytest

from repro import Interpreter, atom, parse_goal, select_engine
from repro.complexity import (
    chain_edges,
    estimate_growth,
    measure,
    print_series,
    transitive_closure_program,
)
from repro.datalog import evaluate, evaluate_naive, from_td


def test_answers_coincide_and_scaling(benchmark):
    program = transitive_closure_program()
    datalog = from_td(program)
    rows = []
    sizes = []
    fact_counts = []
    for n in (8, 16, 24, 32):
        db = chain_edges(n)
        dl_facts, dl_seconds = measure(lambda: evaluate(datalog, db))
        goal = parse_goal("path(0, X)")
        engine = select_engine(program, goal)
        assert engine.backend is engine.reader
        _, read_seconds = measure(lambda: list(engine.solve(goal, db)))
        td = Interpreter(program)
        _, td_seconds = measure(lambda: list(td.solve(goal, db)))
        # spot-check agreement across the whole closure
        for x in range(0, n + 1, max(1, n // 4)):
            for y in range(0, n + 1, max(1, n // 4)):
                goal = parse_goal("path(%d, %d)" % (x, y))
                assert td.succeeds(goal, db) == (atom("path", x, y) in dl_facts)
        rows.append(
            [n, len(dl_facts.facts("path")), dl_seconds, read_seconds, td_seconds]
        )
        sizes.append(n)
        fact_counts.append(len(dl_facts.facts("path")))
    print_series(
        "C5: transitive closure -- seminaive Datalog vs TD",
        ["chain length", "|path|", "datalog s", "routed read s", "tabled TD s"],
        rows,
    )
    # derivation work is the machine-independent cost proxy: the closure
    # of a chain is quadratic, and the fit must say polynomial
    assert estimate_growth(sizes, fact_counts) == "polynomial"

    db = chain_edges(12)
    benchmark.pedantic(lambda: evaluate(datalog, db), rounds=5, iterations=1)


def test_magic_sets_point_queries(benchmark):
    """The other optimization the paper names: magic sets.  A point
    query near the end of a long chain should not materialize the whole
    quadratic closure."""
    from repro.core.terms import Atom, Constant, Variable
    from repro.datalog import evaluate, magic_query, magic_transform, query

    datalog = from_td(transitive_closure_program())
    y = Variable("Y")
    rows = []
    for n in (20, 40, 80):
        db = chain_edges(n)
        src = Constant(n - 2)
        goal = Atom("path", (src, y))
        magic_answers, magic_s = measure(lambda: magic_query(datalog, db, goal))
        plain_answers, plain_s = measure(lambda: query(datalog, db, goal))
        assert {str(a[y]) for a in magic_answers} == {
            str(a[y]) for a in plain_answers
        }
        magic_prog, seeds, _ = magic_transform(datalog, goal)
        derived = len(evaluate(magic_prog, db.insert_all(seeds))) - len(db) - 1
        full = len(evaluate(datalog, db)) - len(db)
        rows.append([n, derived, full, magic_s, plain_s])
    print_series(
        "C5: magic sets -- facts derived for a point query",
        ["chain length", "magic facts", "full closure", "magic s", "plain s"],
        rows,
    )
    # relevance filtering: magic derives a small fraction of the closure
    assert all(r[1] < r[2] / 4 for r in rows)

    db = chain_edges(40)
    goal = Atom("path", (Constant(38), y))
    benchmark.pedantic(lambda: magic_query(datalog, db, goal), rounds=5, iterations=1)


def test_seminaive_beats_naive(benchmark):
    """The classical optimization, measured: seminaive avoids rederiving
    the whole closure each round."""
    datalog = from_td(transitive_closure_program())
    rows = []
    for n in (8, 16, 24):
        db = chain_edges(n)
        semi, semi_s = measure(lambda: evaluate(datalog, db))
        naive, naive_s = measure(lambda: evaluate_naive(datalog, db))
        assert semi == naive
        rows.append([n, semi_s, naive_s, naive_s / max(semi_s, 1e-9)])
    print_series(
        "C5: seminaive vs naive evaluation",
        ["chain length", "seminaive s", "naive s", "speedup"],
        rows,
    )
    # on the largest size, seminaive should not lose
    assert rows[-1][3] >= 1.0

    db = chain_edges(16)
    benchmark.pedantic(lambda: evaluate(datalog, db), rounds=5, iterations=1)
