"""Nonrecursive TD through the engine façade.

Nonrecursive programs have no evaluator of their own: ``select_engine``
runs the ``|``-free ones on the tabled sequential evaluator and the
others on the interpreter, and still classifies both as nonrecursive.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    SequentialEngine,
    Sublanguage,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)


def engine(text, goal=None):
    eng = select_engine(parse_program(text), goal)
    assert eng.sublanguage is Sublanguage.NONRECURSIVE
    return eng


class TestEvaluation:
    def test_layered_calls(self):
        e = engine(
            """
            top(X) <- mid(X) * ins.seen(X).
            mid(X) <- bot(X).
            bot(X) <- fact(X).
            """
        )
        sols = list(e.solve(parse_goal("top(X)"), parse_database("fact(a). fact(b).")))
        assert len(sols) == 2

    def test_updates_compose(self):
        e = engine(
            """
            move(X) <- take(X) * put(X).
            take(X) <- src(X) * del.src(X).
            put(X) <- ins.dst(X).
            """
        )
        (sol,) = e.solve(parse_goal("move(a)"), parse_database("src(a)."))
        assert sol.database == parse_database("dst(a).")

    def test_negation_and_builtins(self):
        e = engine("ok(X) <- val(X, V) * V >= 10 * not banned(X) * ins.passed(X).")
        db = parse_database("val(a, 5). val(b, 20). val(c, 30). banned(c).")
        sols = list(e.solve(parse_goal("ok(X)"), db))
        assert sorted(str(t) for s in sols for t in s.bindings.values()) == ["b"]

    def test_memoization_shares_subcalls(self):
        # The same subcall twice in one body: the table serves the
        # second from the first, and every combination still comes out.
        e = engine(
            """
            pairup <- widget(X) * widget(Y) * ins.pair(X, Y).
            widget(X) <- part(X).
            """
        )
        sols = list(e.solve(parse_goal("pairup"), parse_database("part(a). part(b).")))
        assert isinstance(e.backend, SequentialEngine)
        assert len(sols) == 4


class TestConcurrentFallback:
    def test_nonrecursive_with_conc_falls_back(self):
        e = engine(
            """
            both <- left | right.
            left <- ins.l.
            right <- ins.r.
            """
        )
        assert isinstance(e.backend, Interpreter)
        (sol,) = e.solve(parse_goal("both"), Database())
        assert sol.database == parse_database("l. r.")

    def test_concurrent_goal_on_sequential_program(self):
        e = engine("mark(X) <- ins.m(X).", "mark(a) | mark(b)")
        assert isinstance(e.backend, Interpreter)
        sols = list(e.solve(parse_goal("mark(a) | mark(b)"), Database()))
        assert sols[0].database == parse_database("m(a). m(b).")


class TestAgreementWithInterpreter:
    CASES = [
        ("p(X) <- q(X) * ins.r(X).", "p(X)", "q(a). q(b)."),
        ("t <- a(X) * not b(X) * ins.c(X).", "t", "a(u). a(v). b(u)."),
        ("w <- x(V) * V > 2 * del.x(V).", "w", "x(1). x(5)."),
    ]

    @pytest.mark.parametrize("prog_text,goal_text,db_text", CASES)
    def test_same_final_databases(self, prog_text, goal_text, db_text):
        prog = parse_program(prog_text)
        goal, db = parse_goal(goal_text), parse_database(db_text)
        assert engine(prog_text, goal).final_databases(goal, db) == Interpreter(
            prog
        ).final_databases(goal, db)
