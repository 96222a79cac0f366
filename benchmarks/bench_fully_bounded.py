"""Experiment C7: fully bounded TD -- the practical fragment.

Paper artifact: Section 5.  Fully bounded TD (bounded concurrency +
sequential tail recursion) keeps the modeling features workflows need
while restoring decidability with a practical procedure.  Measured
faces:

* coverage: the classifier places the paper's workflow machinery inside
  the fragment (only the unbounded instance spawner escapes);
* decidability: unsatisfiable fully bounded goals are *refuted* in
  bounded time, where full TD could only time out;
* cost: the exhaustive decision procedure scales with the (finite)
  configuration space.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    Sublanguage,
    classify,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.complexity import estimate_growth, measure, print_series
from repro.lims import gel_pipeline
from repro.workflow import Task, SeqFlow, Step, WorkflowSpec
from repro.workflow.compiler import compile_workflows
from repro.workflow.scheduler import driver_rules


def test_classifier_coverage(benchmark):
    """Which paper constructs land inside fully bounded TD?"""
    pipeline = compile_workflows([gel_pipeline(iterate=True)])
    spawner = pipeline.extend(driver_rules("mapping"))
    rows = [
        ["gel pipeline (iterated)", classify(pipeline).name],
        ["pipeline + instance spawner", classify(spawner).name],
    ]
    drain = parse_program(
        "drain <- item(X) * del.item(X) * drain.\ndrain <- not item(_)."
    )
    rows.append(["tail-recursive drain", classify(drain).name])
    nontail = parse_program("p <- ins.d * p * ins.u.\np <- stop.")
    rows.append(["non-tail recursion", classify(nontail).name])
    print_series("C7: classifier coverage", ["program", "sublanguage"], rows)
    assert rows[0][1] in ("FULLY_BOUNDED", "NONRECURSIVE")
    assert rows[1][1] == "FULL"
    assert rows[2][1] == "FULLY_BOUNDED"
    assert rows[3][1] == "SEQUENTIAL"

    benchmark.pedantic(lambda: classify(spawner), rounds=5, iterations=1)


def test_refutation_is_bounded(benchmark):
    """A deadlocked fully bounded workflow is refuted, terminating."""
    program = parse_program(
        """
        drain <- item(X) * del.item(X) * need_token * drain.
        drain <- not item(_).
        need_token <- token(X) * del.token(X).
        """
    )
    rows = []
    for n in (2, 4, 8):
        db = parse_database(" ".join("item(i%d)." % i for i in range(n)))
        engine = select_engine(program)
        assert engine.decidable
        ok, seconds = measure(lambda: engine.succeeds("drain", db))
        assert not ok  # no tokens: refuted, not timed out
        rows.append([n, seconds])
    print_series(
        "C7: bounded refutation of a deadlocked workflow",
        ["items", "seconds"],
        rows,
    )
    db = parse_database("item(a). item(b).")
    engine = select_engine(program)
    benchmark.pedantic(lambda: engine.succeeds("drain", db), rounds=3, iterations=1)


def test_decision_cost_tracks_state_space(benchmark, bench_instrumentation):
    """Exhaustive deciding explores every reachable configuration.  On
    the drain family the reachable databases are all subsets of the item
    set (any deletion order), so the space -- and the exhaustive cost --
    is exponential in the item count, even though a single *witness*
    execution is linear.  That gap is the practical content of "fully
    bounded": decidable, not free.

    The verdicts are on counted work: the configurations the decision
    and the witness expand, read from the instrumentation every
    benchmark runs under.  The seconds are printed as context."""
    metrics = bench_instrumentation.metrics
    program = parse_program(
        "drain <- item(X) * del.item(X) * drain.\ndrain <- not item(_)."
    )

    def expanded(fn):
        before = metrics.counter("search.configs_expanded")
        result, seconds = measure(fn)
        return result, metrics.counter("search.configs_expanded") - before, seconds

    rows = []
    sizes = []
    decided = []
    for n in (4, 6, 8, 10):
        db = parse_database(" ".join("item(i%02d)." % i for i in range(n)))
        interp = Interpreter(program, max_configs=10_000_000)
        finals, configs, seconds = expanded(
            lambda: interp.final_databases(parse_goal("drain"), db)
        )
        assert finals == {Database()}
        # one DFS witness, for contrast
        _exe, witness, witness_s = expanded(
            lambda: interp.simulate(parse_goal("drain"), db)
        )
        rows.append([n, 2**n, configs, witness, seconds, witness_s])
        sizes.append(n)
        decided.append(configs)
    print_series(
        "C7: exhaustive decide (2^n subsets) vs one witness execution",
        ["items", "2^items", "decide configs", "witness configs",
         "decide s", "witness s"],
        rows,
    )
    assert estimate_growth(sizes, decided) == "exponential"
    # the witness stays far cheaper than the exhaustive decision
    assert rows[-1][3] < rows[-1][2]

    db = parse_database(" ".join("item(i%02d)." % i for i in range(8)))
    interp = Interpreter(program, max_configs=10_000_000)
    benchmark.pedantic(
        lambda: interp.final_databases(parse_goal("drain"), db),
        rounds=3,
        iterations=1,
    )
