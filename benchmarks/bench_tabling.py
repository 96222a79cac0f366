"""Ablation: the interpreter's answer-table dynamics.

Tabling is the optimization the paper names for the tame fragments;
these benchmarks measure its two practical payoffs on the interpreter's
generator/consumer tables:

* warm-table reuse: a table serves one initial database across
  queries, so repeated and overlapping queries cost a fraction of the
  first;
* goal-directedness: a ground point query touches fewer keys than an
  open query on the same data (the ``table.keys`` gauge).
"""

import pytest

from repro import Interpreter, parse_goal
from repro.complexity import chain_edges, measure, print_series, transitive_closure_program
from repro.obs import Instrumentation, instrumented


def _keys(engine, goal, db):
    """Seconds to drain *goal*, and the table keys it left."""
    inst = Instrumentation.create()
    with instrumented(inst):
        _, seconds = measure(lambda: list(engine.solve(parse_goal(goal), db)))
    return inst.metrics.gauge("table.keys"), seconds


def test_warm_table_reuse(benchmark):
    program = transitive_closure_program()
    db = chain_edges(24)
    engine = Interpreter(program)
    _, cold_s = measure(lambda: list(engine.solve(parse_goal("path(0, X)"), db)))
    _, warm_s = measure(lambda: list(engine.solve(parse_goal("path(0, X)"), db)))
    _, overlap_s = measure(lambda: list(engine.solve(parse_goal("path(4, X)"), db)))
    rows = [
        ["cold path(0, X)", cold_s],
        ["warm repeat", warm_s],
        ["overlapping path(4, X)", overlap_s],
    ]
    print_series("tabling: warm-table reuse", ["query", "seconds"], rows)
    assert warm_s < cold_s
    assert overlap_s < cold_s

    fresh = Interpreter(program)
    benchmark.pedantic(
        lambda: list(fresh.solve(parse_goal("path(0, X)"), db)),
        rounds=3,
        iterations=1,
    )


def test_goal_directedness(benchmark):
    """A ground query near the chain's end touches a short key chain."""
    program = transitive_closure_program()
    db = chain_edges(24)
    rows = []
    point_keys, point_s = _keys(Interpreter(program), "path(20, 24)", db)
    full_keys, full_s = _keys(Interpreter(program), "path(X, Y)", db)
    rows.append(["point path(20, 24)", point_keys, point_s])
    rows.append(["open path(X, Y)", full_keys, full_s])
    print_series(
        "tabling: goal-directedness (keys touched)",
        ["query", "table keys", "seconds"],
        rows,
    )
    assert point_keys < full_keys
    assert point_s < full_s

    benchmark.pedantic(
        lambda: Interpreter(program).succeeds(parse_goal("path(20, 24)"), db),
        rounds=3,
        iterations=1,
    )
