"""Experiment C6: test+insert TD -- the scientific-workflow fragment.

Paper artifact: the observation that augmenting tuple testing with
insertion (but not deletion) captures scientific workflows, whose
experiment histories "are accumulated in the database ... but never
deleted or altered", and keeps evaluation tame.

Measured faces:

* reachability by insert-only materialization scales polynomially;
* monitoring queries over growing LIMS histories (the genome-center
  workload) stay polynomial.
"""

import pytest

from repro import Interpreter, parse_goal
from repro.complexity import (
    chain_edges,
    estimate_growth,
    insert_only_closure,
    measure,
    print_series,
)
from repro.datalog import evaluate
from repro.lims import synthetic_history
from repro.workflow import history_program, task_counts


def test_insert_only_reachability_scales(benchmark):
    program = insert_only_closure()
    rows = []
    sizes = []
    steps = []
    for n in (4, 8, 12, 16, 20):
        db = chain_edges(n)
        interp = Interpreter(program, max_configs=5_000_000)
        goal = parse_goal("reach(0, %d)" % n)
        exe, seconds = measure(lambda: interp.simulate(goal, db))
        assert exe is not None
        rows.append([n, len(exe.trace), seconds])
        sizes.append(n)
        steps.append(len(exe.trace))
    print_series(
        "C6: insert-only reachability (monotone materialization)",
        ["chain length", "trace length", "seconds"],
        rows,
    )
    # growth fit over the machine-independent step counter (timings on a
    # shared box are too noisy for the coarse poly/exp classifier)
    assert estimate_growth(sizes, steps) == "polynomial"


    db = chain_edges(8)
    interp = Interpreter(program, max_configs=5_000_000)
    goal = parse_goal("reach(0, 8)")
    benchmark.pedantic(lambda: interp.simulate(goal, db), rounds=3, iterations=1)


def test_insert_only_failure_decided(benchmark):
    """Unreachable targets fail *finitely* -- but nondeterministic
    materialization refutes by exhausting the lattice of partial
    closures, which is exponential.  Deterministic saturation (the
    Datalog engine on the same monotone rules) refutes in polynomial
    time: the measured gap is the practical content of the paper's
    remark that Datalog technology applies to this fragment."""
    from repro.complexity import transitive_closure_program
    from repro.datalog import evaluate, from_td

    program = insert_only_closure()
    datalog = from_td(transitive_closure_program())
    rows = []
    for n in (2, 3, 4):
        db = chain_edges(n)
        interp = Interpreter(program, max_configs=5_000_000)
        goal = parse_goal("reach(%d, 0)" % n)  # against the chain direction
        exe, td_seconds = measure(lambda: interp.simulate(goal, db))
        assert exe is None

        def saturate_and_check():
            from repro import atom

            facts = evaluate(datalog, db)
            return atom("path", n, 0) in facts

        reached, dl_seconds = measure(saturate_and_check)
        assert not reached
        rows.append([n, td_seconds, dl_seconds])
    print_series(
        "C6: refuting unreachability -- nondet materialization vs saturation",
        ["chain length", "TD search s", "saturation s"],
        rows,
    )
    # the deterministic refutation stays far cheaper as n grows
    assert rows[-1][2] < rows[-1][1]

    db = chain_edges(4)
    interp = Interpreter(program, max_configs=5_000_000)
    goal = parse_goal("reach(4, 0)")
    benchmark.pedantic(lambda: interp.simulate(goal, db), rounds=3, iterations=1)


def test_history_queries_scale(benchmark, bench_instrumentation):
    """Monitoring the insert-only experiment history: classical Datalog
    over histories of growing size (the LabFlow-1-style workload).

    The growth verdict is on counted work: the unification attempts the
    evaluation makes, read from the instrumentation every benchmark runs
    under.  The seconds are printed as context."""
    metrics = bench_instrumentation.metrics
    rows = []
    sizes = []
    attempts = []
    for n in (50, 100, 200, 400):
        history = synthetic_history(n, seed=n)
        before = metrics.counter("unify.attempts")
        facts, seconds = measure(lambda: evaluate(history_program(), history))
        unified = metrics.counter("unify.attempts") - before
        assert len(facts.facts("touched")) == n
        counts = task_counts(history)
        assert counts["analyze"] == n
        rows.append([n, len(history), unified, seconds])
        sizes.append(len(history))
        attempts.append(unified)
    print_series(
        "C6: monitoring queries over LIMS histories",
        ["samples", "|history|", "unify attempts", "seconds"],
        rows,
    )
    assert estimate_growth(sizes, attempts) == "polynomial"

    history = synthetic_history(200, seed=0)
    benchmark.pedantic(
        lambda: evaluate(history_program(), history), rounds=3, iterations=1
    )
