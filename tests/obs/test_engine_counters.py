"""Deterministic engine counters on fixed TD programs, per backend.

These values are regression gates: they are pure functions of the
program, the goal, and the search strategy -- never of the clock -- so
any drift means the evaluator's work changed.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.core.seqeval import SequentialEngine
from repro.obs import Instrumentation, instrumented
from repro.obs.analyze import deterministic_record
from repro.verify import explore


def counters_for(run):
    """Counters + gauges snapshot after running *run* instrumented."""
    inst = Instrumentation.create()
    with instrumented(inst):
        run()
    return inst


class TestInterpreterCounters:
    def test_tiny_program_exact_counts(self):
        program = parse_program("p <- ins.a.")
        interp = Interpreter(program)
        inst = counters_for(lambda: list(interp.solve(parse_goal("p"), Database())))
        m = inst.metrics
        # call p -> ins.a -> true: two non-final configurations expanded,
        # two budget steps, one head unification, one solution.
        assert m.counter("search.configs_expanded") == 2
        assert m.counter("search.steps") == 2
        assert m.counter("unify.attempts") == 1
        assert m.counter("search.solutions") == 1
        assert m.gauge("budget.spent") == 2
        assert m.gauge("budget.limit") == interp.max_configs

    def test_full_td_counts_are_deterministic(self):
        def run():
            program = parse_program(
                """
                simulate <- workitem(W) * del.workitem(W) * (workflow(W) | simulate).
                simulate <- not workitem(_).
                workflow(W) <- ins.done(W).
                """
            )
            db = parse_database("workitem(w1). workitem(w2).")
            engine = select_engine(program, "simulate")
            assert len(list(engine.solve("simulate", db))) == 1

        first = deterministic_record(counters_for(run).metrics)
        second = deterministic_record(counters_for(run).metrics)
        assert first == second
        # Partial-order reduction serializes the insert-only workflow
        # branches (55 expansions / 109 steps before the reducer);
        # answer tabling big-steps the recursive ``simulate`` calls on
        # top (23 expansions / 25 steps before the table).
        assert first["counters"]["search.configs_expanded"] == 25
        assert first["counters"]["search.steps"] == 22
        assert first["counters"]["por.ample_configs"] == 8
        assert first["counters"]["por.steps_pruned"] == 8
        assert first["counters"]["table.hits"] == 1
        assert first["counters"]["table.misses"] == 4
        assert first["gauges"]["budget.spent"] == 22
        assert first["gauges"]["search.frontier_peak"] == 2
        assert first["info"]["engine.backend"] == "Interpreter"
        assert first["info"]["engine.sublanguage"] == "full TD"

    def test_iso_subsearch_counted_and_traced(self, bank_program, bank_db):
        interp = Interpreter(bank_program)
        inst = counters_for(
            lambda: list(interp.solve(parse_goal("transfer(a, b, 30)"), bank_db))
        )
        assert inst.metrics.counter("iso.searches") >= 1
        assert inst.metrics.gauge("iso.depth_peak") == 1
        names = {s.name for s in inst.tracer.spans}
        assert "iso-subsearch" in names and "solve" in names
        # The isolation search nests under the solve span.
        iso = next(s for s in inst.tracer.spans if s.name == "iso-subsearch")
        solve = next(s for s in inst.tracer.spans if s.name == "solve")
        assert iso.parent_id == solve.span_id

    def test_nested_iso_depth_peak(self):
        program = parse_program(
            """
            outer <- iso(inner * ins.o).
            inner <- iso(ins.i).
            """
        )
        interp = Interpreter(program)
        inst = counters_for(lambda: list(interp.solve(parse_goal("outer"), Database())))
        assert inst.metrics.gauge("iso.depth_peak") == 2

    def test_simulate_counts_dfs_expansions(self, bank_program, bank_db):
        interp = Interpreter(bank_program)
        inst = counters_for(
            lambda: interp.simulate(parse_goal("transfer(a, b, 30)"), bank_db)
        )
        assert inst.metrics.counter("search.configs_expanded") > 0
        assert inst.metrics.gauge("budget.spent") > 0
        assert any(s.name == "simulate" for s in inst.tracer.spans)


class TestSeqevalCounters:
    def test_tabling_hits_misses_exact(self, tc_program, chain_db):
        def run():
            engine = SequentialEngine(tc_program)
            sols = list(engine.solve(parse_goal("path(a, X)"), chain_db))
            assert len(sols) == 3
            return engine

        inst = Instrumentation.create()
        with instrumented(inst):
            engine = run()
        m = inst.metrics
        # One miss per table key registered; the fixpoint then re-derives
        # answers through hits.
        assert m.counter("table.misses") == 4
        assert m.counter("table.hits") == 5
        assert m.counter("table.recomputes") == 7
        assert m.gauge("table.keys") == engine.table_size[0]
        assert m.gauge("table.answers") == engine.table_size[1]
        assert any(s.name == "table-fixpoint" for s in inst.tracer.spans)

    def test_counters_deterministic_across_runs(self, tc_program, chain_db):
        # Fresh program per run: the rulebase memoizes call-shape head
        # matching, so a *reused* program legitimately does less
        # unification work on later runs.  Determinism is over
        # from-scratch runs, which is what the profile gate replays.
        def run():
            engine = SequentialEngine(parse_program(str(tc_program)))
            list(engine.solve(parse_goal("path(X, Y)"), chain_db))

        first = deterministic_record(counters_for(run).metrics)
        second = deterministic_record(counters_for(run).metrics)
        assert first == second
        assert first["counters"]["table.misses"] > 0
        assert first["counters"]["unify.attempts"] > 0

    def test_program_match_cache_reduces_unify_work(self, tc_program, chain_db):
        # The flip side of the above: reusing one program across runs
        # must *keep the same answers* while skipping head unification.
        def run():
            engine = SequentialEngine(tc_program)
            return [
                s.bindings for s in engine.solve(parse_goal("path(X, Y)"), chain_db)
            ]

        inst1 = Instrumentation.create()
        with instrumented(inst1):
            answers1 = run()
        inst2 = Instrumentation.create()
        with instrumented(inst2):
            answers2 = run()
        assert answers1 == answers2
        assert inst2.metrics.counter("unify.attempts") <= inst1.metrics.counter(
            "unify.attempts"
        )


class TestNonrecCounters:
    """Nonrecursive TD through the façade: it runs on the tabled
    sequential evaluator and still reports the paper's class."""

    def test_memo_misses_exact(self, bank_program, bank_db):
        def run():
            engine = select_engine(bank_program, "transfer(a, b, 30)")
            sols = list(engine.solve("transfer(a, b, 30)", bank_db))
            assert len(sols) == 1
            return engine

        inst = Instrumentation.create()
        with instrumented(inst):
            run()
        m = inst.metrics
        # transfer, withdraw, deposit: one table miss each.  The
        # sequential evaluator's worklist then re-evaluates transfer
        # as each callee's answers arrive, through table hits.
        assert m.counter("table.misses") == 3
        assert m.counter("table.hits") == 5
        assert m.counter("table.recomputes") == 5
        assert m.gauge("table.keys") == 3
        assert m.info["engine.backend"] == "SequentialEngine"
        assert m.info["engine.sublanguage"] == "nonrecursive TD"
        assert "time.nonrecursive" in m.timers

    def test_memo_hit_on_repeated_call(self):
        program = parse_program(
            """
            twice <- step * step.
            step <- q(X).
            """
        )
        db = parse_database("q(1).")
        inst = Instrumentation.create()
        with instrumented(inst):
            engine = select_engine(program, "twice")
            list(engine.solve("twice", db))
        assert inst.metrics.counter("table.hits") >= 1


class TestStatespaceCounters:
    def test_explore_records_graph_size(self, bank_program, bank_db):
        inst = Instrumentation.create()
        with instrumented(inst):
            graph = explore(bank_program, "transfer(a, b, 30)", bank_db)
        m = inst.metrics
        assert m.gauge("statespace.states") == len(graph)
        assert m.gauge("statespace.edges") == sum(
            len(v) for v in graph.edges.values()
        )
        assert m.counter("statespace.expanded") > 0
        assert any(s.name == "statespace.explore" for s in inst.tracer.spans)
