"""Crossover studies: where one strategy stops beating another.

DESIGN.md's reproduction bar asks for crossover locations, not absolute
numbers.  Two measurable crossovers in this system:

* **magic sets vs full evaluation** as query selectivity falls: a point
  query near the end of a chain touches a short suffix (magic wins big);
  a query from the chain's start is the whole closure (magic's overhead
  makes it a wash or worse).
* **goal-directed tabling vs bottom-up materialization** for single
  reachability questions at growing distances, on the interpreter's
  answer tables (``table.keys``).
"""

import pytest

from repro import Interpreter, parse_goal
from repro.complexity import (
    chain_edges,
    measure,
    print_series,
    transitive_closure_program,
)
from repro.core.terms import Atom, Constant, Variable
from repro.datalog import evaluate, from_td, magic_query, magic_transform, query
from repro.obs import Instrumentation, instrumented

Y = Variable("Y")


def test_magic_selectivity_crossover(benchmark):
    """Sweep the query source from the chain's end (selective) to its
    start (everything relevant): magic's derived-fact advantage shrinks
    monotonically toward parity."""
    datalog = from_td(transitive_closure_program())
    n = 60
    db = chain_edges(n)
    full_facts = len(evaluate(datalog, db)) - len(db)
    rows = []
    fractions = []
    for src in (n - 5, 3 * n // 4, n // 2, n // 4, 0):
        goal = Atom("path", (Constant(src), Y))
        magic_prog, seeds, _ = magic_transform(datalog, goal)
        derived = len(evaluate(magic_prog, db.insert_all(seeds))) - len(db) - 1
        _, magic_s = measure(lambda: magic_query(datalog, db, goal))
        _, plain_s = measure(lambda: query(datalog, db, goal))
        fraction = derived / full_facts
        fractions.append(fraction)
        rows.append([src, derived, full_facts, "%.2f" % fraction, magic_s, plain_s])
    print_series(
        "crossover: magic-set advantage vs query selectivity (chain %d)" % n,
        ["source", "magic facts", "full facts", "fraction", "magic s", "plain s"],
        rows,
    )
    # advantage decays monotonically as the query gets less selective
    assert fractions == sorted(fractions)
    assert fractions[0] < 0.25
    assert fractions[-1] > 0.8

    goal = Atom("path", (Constant(n - 5), Y))
    benchmark.pedantic(lambda: magic_query(datalog, db, goal), rounds=5, iterations=1)


def test_tabling_distance_crossover(benchmark):
    """Goal-directed tabling for one reachability question: keys touched
    grow with the distance between source and target, approaching the
    bottom-up engine's whole-relation work at maximal distance."""
    program = transitive_closure_program()
    datalog = from_td(program)
    n = 24
    db = chain_edges(n)
    _, bottomup_s = measure(lambda: evaluate(datalog, db))
    rows = []
    key_counts = []
    for distance in (2, 8, 16, 24):
        engine = Interpreter(program)
        goal = parse_goal("path(%d, %d)" % (n - distance, n))
        inst = Instrumentation.create()
        with instrumented(inst):
            ok, seconds = measure(lambda: engine.succeeds(goal, db))
        assert ok
        keys = inst.metrics.gauge("table.keys")
        key_counts.append(keys)
        rows.append([distance, keys, seconds, bottomup_s])
    print_series(
        "crossover: tabled point query vs distance (chain %d)" % n,
        ["distance", "table keys", "tabled s", "bottom-up s (whole closure)"],
        rows,
    )
    assert key_counts == sorted(key_counts)
    assert key_counts[0] < key_counts[-1]

    engine = Interpreter(program)
    benchmark.pedantic(
        lambda: engine.succeeds(parse_goal("path(16, 24)"), db),
        rounds=5,
        iterations=1,
    )
