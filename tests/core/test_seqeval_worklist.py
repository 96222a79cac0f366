"""Regression tests for the dependency-driven tabling driver.

The worklist driver replaced naive full-table rounds; these tests pin
the behaviours that broke (or could break) during that change.
"""

import os
import subprocess
import sys

import pytest

from repro import (
    Database,
    SequentialEngine,
    Variable,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)

PATH = "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."


def _answers(solutions):
    return {
        (tuple(sorted((str(v), str(t)) for v, t in s.bindings.items())), s.database)
        for s in solutions
    }


class TestEmptyAnswerKeys:
    def test_unsatisfiable_key_terminates(self):
        # A key with a legitimately empty answer set must be computed
        # once and never re-enqueued (the empty-set-is-falsy hang).
        e = SequentialEngine(parse_program("p <- q(zz).\nq(X) <- base(X)."))
        assert not e.succeeds(parse_goal("p"), parse_database("base(a)."))

    def test_failing_recursion_terminates(self):
        e = SequentialEngine(parse_program("loop <- step * loop.\nstep <- gate."))
        assert not e.succeeds(parse_goal("loop"), Database())

    def test_mixed_empty_and_nonempty_keys(self):
        e = SequentialEngine(
            parse_program(
                """
                main <- deadend.
                main <- useful.
                deadend <- nothing(x).
                useful <- ok.
                """
            )
        )
        (sol,) = e.solve(parse_goal("main"), parse_database("ok."))
        assert sol.database == parse_database("ok.")
        assert e.table_size == (3, 2)


class TestDependencyPropagation:
    def test_late_answers_reach_dependents(self):
        # path(0,N) depends on a chain of keys; the base answer appears
        # deep in the chain and must propagate all the way back.
        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        e = SequentialEngine(prog)
        db = parse_database(" ".join("e(n%d, n%d)." % (i, i + 1) for i in range(9)))
        assert e.succeeds(parse_goal("path(n0, n9)"), db)

    def test_mutual_recursion_propagates_both_ways(self):
        prog = parse_program(
            """
            even(X) <- zero(X).
            even(X) <- pred(X, Y) * odd(Y).
            odd(X) <- pred(X, Y) * even(Y).
            """
        )
        e = SequentialEngine(prog)
        facts = ["zero(n0)."] + ["pred(n%d, n%d)." % (i + 1, i) for i in range(8)]
        db = parse_database(" ".join(facts))
        assert e.succeeds(parse_goal("even(n8)"), db)
        assert not e.succeeds(parse_goal("even(n7)"), db)

    def test_state_changing_recursion_chains(self):
        # answers carry output states; a grown state set must propagate
        # (a goal that updates runs on the engine's tabled interpreter)
        prog = parse_program(
            """
            pump <- item(X) * del.item(X) * ins.out(X) * pump.
            pump <- not item(_).
            """
        )
        e = select_engine(prog)
        assert e.route(parse_goal("pump")) is e.interpreter
        finals = e.final_databases(
            parse_goal("pump"), parse_database("item(a). item(b). item(c).")
        )
        assert parse_database("out(a). out(b). out(c).") in finals


class TestTableReuseAcrossQueries:
    def test_second_query_reuses_and_extends(self):
        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        e = SequentialEngine(prog)
        db = parse_database("e(a, b). e(b, c). e(c, d).")
        assert e.succeeds(parse_goal("path(a, b)"), db)
        keys_before, _ = e.table_size
        # a different goal must extend the same table, not corrupt it
        assert e.succeeds(parse_goal("path(a, d)"), db)
        keys_after, _ = e.table_size
        assert keys_after >= keys_before
        # and the first result still holds
        assert e.succeeds(parse_goal("path(a, b)"), db)

    def test_different_databases_key_apart(self):
        prog = parse_program("hit <- p(a).")
        e = SequentialEngine(prog)
        assert e.succeeds(parse_goal("hit"), parse_database("p(a)."))
        assert not e.succeeds(parse_goal("hit"), parse_database("p(b)."))

    def test_goal_discovering_keys_after_drain(self):
        # The goal's own evaluation can reach new call patterns only
        # after earlier drains produced answers: the re-seed loop.
        # ``stage2(v)`` is registered only once ``stage1(X)`` has
        # answered.
        prog = parse_program(
            """
            stage1(X) <- src(X).
            stage2(Y) <- mid(Y).
            """
        )
        e = SequentialEngine(prog)
        (sol,) = e.solve(
            parse_goal("stage1(X) * stage2(X)"), parse_database("src(v). mid(v). mid(w).")
        )
        assert str(sol.bindings[Variable("X")]) == "v"
        assert e.table_size == (2, 2)


class TestTableLifetime:
    """A table serves one initial database, as the interpreter's does: a
    solve from another state starts with an empty table."""

    def test_commits_over_a_store_keep_the_table_bounded(self):
        from repro.store import MemoryStore

        program = parse_program(
            "bump <- c(N) * del.c(N) * M is N + 1 * ins.c(M).\n"
            "rich <- c(N) * N >= 5."
        )
        engine = select_engine(program, store=MemoryStore(parse_database("c(0).")))
        assert engine.backend is engine.interpreter
        for _ in range(20):
            assert len(list(engine.solve("bump"))) == 1
            assert engine.simulate("bump") is not None
            list(engine.solve("rich"))
        # The last state's keys, not some for every state the store
        # passed through: a commit drops the interpreter's table, and the
        # reader's serves one state.
        assert engine.interpreter._table.keys <= 3
        assert engine.reader.table_size[0] <= 1

    @pytest.mark.parametrize("goal", ["path(a, X)", "path(a, X) * path(X, Y)"])
    def test_a_paused_solve_survives_another_states_solve(self, goal):
        # The second solve empties the table under the paused first one,
        # whose replay must still read the table it started with: the
        # second goal's later ``path`` calls are looked up after the
        # pause.
        program = parse_program(PATH)
        one = parse_database("e(a, b). e(b, c). e(c, d).")
        two = parse_database("e(a, x). e(x, y).")
        engine = SequentialEngine(program)
        paused = engine.solve(parse_goal(goal), one)
        first = next(paused)
        assert _answers(engine.solve(parse_goal(goal), two)) == _answers(
            SequentialEngine(program).solve(parse_goal(goal), two)
        )
        got = _answers([first, *paused])
        assert got == _answers(SequentialEngine(program).solve(parse_goal(goal), one))
        assert len(got) == 3


class TestDeterministicWorklist:
    def test_counters_equal_across_processes(self):
        # The worklist enqueues keys in the order they were consulted,
        # never in set order: a term's hash mixes in its class's, which
        # is an address, so set order differs between processes even
        # under one PYTHONHASHSEED.
        script = (
            "from repro import SequentialEngine, parse_goal\n"
            "from repro.complexity import chain_edges, transitive_closure_program\n"
            "from repro.obs import Instrumentation, instrumented\n"
            "inst = Instrumentation.create()\n"
            "with instrumented(inst):\n"
            "    list(SequentialEngine(transitive_closure_program()).solve(\n"
            "        parse_goal('path(X, Y)'), chain_edges(24)))\n"
            "m = inst.metrics\n"
            "print(m.counter('table.hits'), m.counter('table.recomputes'),\n"
            "      m.counter('unify.attempts'))\n"
        )
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1, outputs
