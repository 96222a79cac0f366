"""Regression tests for reads: recursion, propagation and reuse.

Reads ran on a tabled worklist evaluator before they moved to the
Datalog reader; these tests pin the behaviours that broke (or could
break) in either: calls with no answers, answers that appear deep in a
recursion, reuse across goals and states, and counters that do not
depend on the hash seed.
"""

import os
import subprocess
import sys

import pytest

from repro import (
    Database,
    Variable,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.datalog.reader import _TRANSLATIONS

PATH = "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."


def _answers(solutions):
    return {
        (tuple(sorted((str(v), str(t)) for v, t in s.bindings.items())), s.database)
        for s in solutions
    }


def reader(text):
    """An engine over *text* whose reads are on the reader."""
    engine = select_engine(parse_program(text))
    assert engine.backend is engine.reader
    return engine


class TestEmptyAnswerKeys:
    def test_unsatisfiable_key_terminates(self):
        # A call with a legitimately empty answer set must not hang
        # (the empty-set-is-falsy hang of the worklist).
        e = reader("p <- q(zz).\nq(X) <- base(X).")
        assert not e.succeeds(parse_goal("p"), parse_database("base(a)."))

    def test_failing_recursion_terminates(self):
        e = reader("loop <- step * loop.\nstep <- gate.")
        assert not e.succeeds(parse_goal("loop"), Database())

    def test_mixed_empty_and_nonempty_keys(self):
        e = select_engine(
            parse_program(
                """
                main <- deadend.
                main <- useful.
                deadend <- nothing(x).
                useful <- ok.
                """
            )
        )
        assert e.route(parse_goal("main")) is e.reader
        (sol,) = e.solve(parse_goal("main"), parse_database("ok."))
        assert sol.database == parse_database("ok.")


class TestDependencyPropagation:
    def test_late_answers_reach_dependents(self):
        # path(0,N) depends on a chain of keys; the base answer appears
        # deep in the chain and must propagate all the way back.
        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        e = select_engine(prog)
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
        e = select_engine(prog)
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
        # The translation is cached per program: a second engine, and a
        # goal with another binding pattern, extend it without
        # rebuilding what is there.
        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        db = parse_database("e(a, b). e(b, c). e(c, d).")
        assert select_engine(prog).succeeds(parse_goal("path(a, b)"), db)
        translation = _TRANSLATIONS[prog]
        rules = translation.rules[("path", 2)]
        (bound,) = translation.magic.values()
        e = select_engine(prog)
        assert e.succeeds(parse_goal("path(a, d)"), db)
        assert len(list(e.solve(parse_goal("path(b, X)"), db))) == 2
        assert translation.rules[("path", 2)] is rules
        assert len(translation.magic) == 2
        assert bound in translation.magic.values()
        # and the first result still holds
        assert e.succeeds(parse_goal("path(a, b)"), db)

    def test_different_databases_key_apart(self):
        prog = parse_program("hit <- p(a).")
        e = select_engine(prog)
        assert e.succeeds(parse_goal("hit"), parse_database("p(a)."))
        assert not e.succeeds(parse_goal("hit"), parse_database("p(b)."))

    def test_goal_discovering_keys_after_drain(self):
        # The goal's own evaluation can reach new call patterns only
        # after earlier drains produced answers: the re-seed loop.
        # ``stage2(v)`` is registered only once ``stage1(X)`` has
        # answered.
        # A conjunction is no single call: it runs on the interpreter.
        prog = parse_program(
            """
            stage1(X) <- src(X).
            stage2(Y) <- mid(Y).
            """
        )
        e = select_engine(prog)
        goal = parse_goal("stage1(X) * stage2(X)")
        assert e.route(goal) is e.interpreter
        (sol,) = e.solve(goal, parse_database("src(v). mid(v). mid(w)."))
        assert str(sol.bindings[Variable("X")]) == "v"


class TestTableLifetime:
    """The interpreter's table serves one initial database: a solve
    from another state starts with an empty table.  The reader keeps
    nothing per state."""

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
        # passed through: a commit drops the interpreter's table.
        assert engine.interpreter._table.keys <= 3

    @pytest.mark.parametrize("goal", ["path(a, X)", "path(a, X) * path(X, Y)"])
    def test_a_paused_solve_survives_another_states_solve(self, goal):
        # A solve over another state while the first is paused must not
        # disturb it: the read (on the reader) and the conjunction (on
        # the interpreter, whose table the second solve swaps out).
        program = parse_program(PATH)
        one = parse_database("e(a, b). e(b, c). e(c, d).")
        two = parse_database("e(a, x). e(x, y).")
        engine = select_engine(program)
        paused = engine.solve(parse_goal(goal), one)
        first = next(paused)
        assert _answers(engine.solve(parse_goal(goal), two)) == _answers(
            select_engine(program).solve(parse_goal(goal), two)
        )
        got = _answers([first, *paused])
        assert got == _answers(select_engine(program).solve(parse_goal(goal), one))
        assert len(got) == 3


class TestDeterministicWorklist:
    def test_counters_equal_across_processes(self):
        # The reader's work must not follow set order: a term's hash
        # mixes in its class's, which is an address, so set order
        # differs between processes even under one PYTHONHASHSEED.
        script = (
            "from repro import parse_goal, select_engine\n"
            "from repro.complexity import chain_edges, transitive_closure_program\n"
            "from repro.obs import Instrumentation, instrumented\n"
            "inst = Instrumentation.create()\n"
            "engine = select_engine(transitive_closure_program())\n"
            "with instrumented(inst):\n"
            "    for goal in ('path(X, Y)', 'path(n3, X)'):\n"
            "        print([str(s.bindings) for s in engine.solve(\n"
            "            parse_goal(goal), chain_edges(24))])\n"
            "m = inst.metrics\n"
            "print(m.info['engine.backend'], m.counter('join.reorders'),\n"
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
        assert "DatalogReader" in outputs.pop()
