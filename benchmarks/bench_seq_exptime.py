"""Experiment C2: sequential TD is decidable but EXPTIME.

Paper artifact: Theorem 4.5.  Two measured faces:

* the binary-counter family -- a *fixed* sequential (indeed fully
  bounded) program whose execution walks through all ``2^n`` databases
  over ``n`` data bits: execution length is exponential in the data;
* the tabled interpreter as a decision procedure: its answer table
  grows with the reachable (call, state) space; and the AND/OR-graph
  encoding (alternation, the EXPTIME-hardness mechanism), a read the
  sequential evaluator decides, cross-checks against a native solver.
"""

import pytest

from repro import Interpreter, parse_goal, select_engine
from repro.complexity import (
    binary_counter_family,
    estimate_growth,
    grid_andor_graph,
    measure,
    print_series,
)
from repro.machines import andor_to_td, solve_andor


def test_binary_counter_is_exponential(benchmark):
    rows = []
    sizes = []
    steps = []
    for n in (2, 3, 4, 5, 6, 7):
        program, goal, db = binary_counter_family(n)
        interp = Interpreter(program, max_configs=20_000_000)
        exe, seconds = measure(lambda: interp.simulate(goal, db))
        assert exe is not None
        rows.append([n, 2**n, len(exe.trace), seconds])
        sizes.append(n)
        steps.append(len(exe.trace))
    print_series(
        "C2: binary counter -- execution length vs data bits",
        ["bits", "2^bits", "trace length", "seconds"],
        rows,
    )
    assert estimate_growth(sizes, steps) == "exponential"

    program, goal, db = binary_counter_family(5)
    interp = Interpreter(program, max_configs=20_000_000)
    benchmark.pedantic(lambda: interp.simulate(goal, db), rounds=3, iterations=1)


def test_tabled_decision_procedure_table_growth(benchmark, bench_instrumentation):
    """Table sizes of the tabled interpreter, where the engine runs the
    counter family (its goal updates): the decision procedure
    materializes the exponential state space.  The sizes are the
    ``table.keys``/``table.answers`` gauges of the interpreter's
    answer table, read from the instrumentation every benchmark runs
    under."""
    metrics = bench_instrumentation.metrics
    rows = []
    for n in (2, 3, 4):
        program, goal, db = binary_counter_family(n)
        engine = select_engine(program, goal)
        ok, seconds = measure(lambda: engine.succeeds(goal, db))
        assert ok
        assert engine.backend is engine.interpreter
        keys, answers = metrics.gauge("table.keys"), metrics.gauge("table.answers")
        rows.append([n, keys, answers, seconds])
    print_series(
        "C2: tabled interpreter -- table growth",
        ["bits", "table keys", "table answers", "seconds"],
        rows,
    )
    keys = [r[1] for r in rows]
    assert keys == sorted(keys) and keys[-1] > 2 * keys[0]

    program, goal, db = binary_counter_family(3)
    def run():
        select_engine(program, goal).succeeds(goal, db)
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_qbf_alternation(benchmark):
    """QBF -- the canonical alternation-complete problem -- evaluated
    through its sequential-TD encoding: exists = rule choice, forall =
    both branches in sequence.  Cost doubles per universal quantifier."""
    import random

    from repro import Interpreter
    from repro.machines import QBF, evaluate_qbf, qbf_to_td

    def random_qbf(n_vars, seed):
        rng = random.Random(seed)
        prefix = tuple(
            ("forall" if i % 2 == 0 else "exists", "v%d" % i) for i in range(n_vars)
        )
        matrix = []
        for _ in range(n_vars + 1):
            clause = tuple(
                ("v%d" % rng.randrange(n_vars), rng.random() < 0.5)
                for _ in range(2)
            )
            matrix.append(clause)
        return QBF(prefix, tuple(matrix))

    rows = []
    for n in (2, 3, 4, 5):
        qbf = random_qbf(n, seed=n)
        program, goal, db = qbf_to_td(qbf)
        interp = Interpreter(program, max_configs=10_000_000)
        got, seconds = measure(lambda: interp.succeeds(goal, db))
        assert got == evaluate_qbf(qbf)
        rows.append([n, got, seconds])
    print_series(
        "C2: QBF via sequential TD (alternation made concrete)",
        ["quantifiers", "true", "seconds"],
        rows,
    )
    qbf = random_qbf(4, seed=4)
    program, goal, db = qbf_to_td(qbf)
    interp = Interpreter(program, max_configs=10_000_000)
    benchmark.pedantic(lambda: interp.succeeds(goal, db), rounds=3, iterations=1)


def test_andor_alternation_crosscheck(benchmark):
    """Alternation -- AND via sequential subgoals, OR via rule choice --
    is the mechanism behind EXPTIME-hardness; the TD encoding must agree
    with the native AND/OR solver at every depth."""
    rows = []
    for depth in (2, 3, 4, 5):
        graph = grid_andor_graph(depth=depth, fanout=3, seed=depth)
        program, db = andor_to_td(graph)
        engine = select_engine(program)
        native = solve_andor(graph)
        root = "n0_0"

        def decide():
            return engine.succeeds(parse_goal("solve(%s)" % root), db)

        got, seconds = measure(decide)
        assert got == (root in native)
        rows.append([depth, len(graph.nodes()), got, seconds])
    print_series(
        "C2: AND/OR game graphs -- TD encoding vs native solver",
        ["depth", "nodes", "root solvable", "seconds (TD)"],
        rows,
    )
    graph = grid_andor_graph(depth=4, fanout=3, seed=4)
    program, db = andor_to_td(graph)
    benchmark.pedantic(
        lambda: select_engine(program).succeeds(parse_goal("solve(n0_0)"), db),
        rounds=3,
        iterations=1,
    )
