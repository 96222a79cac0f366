"""Tests for the decision procedures of sequential TD.

The engine façade runs a read (one test, or one call whose rules
translate to Datalog) on the Datalog reader and every other goal on the
tabled interpreter; ``engine`` below routes through it, so each case
runs where the façade sends it.  Cases about the reader itself build it
directly.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    UnsupportedProgramError,
    Variable,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.datalog.reader import DatalogReader
from repro.store import using_store_provider


def engine(text):
    return select_engine(parse_program(text))


class TestBasics:
    def test_query_and_update(self):
        e = engine("t <- p(X) * del.p(X) * ins.q(X).")
        (sol,) = e.solve(parse_goal("t"), parse_database("p(a)."))
        assert sol.database == parse_database("q(a).")

    def test_failure(self):
        e = engine("t <- p(zz).")
        assert not e.succeeds(parse_goal("t"), parse_database("p(a)."))

    def test_rejects_concurrent_program(self):
        # Tests commute, so a read through | of tests is Datalog; a |
        # that updates is not, and the reader rejects the goal.
        e = DatalogReader(parse_program("t <- a | b.\nu <- ins.a | b."))
        assert e.succeeds(parse_goal("t"), parse_database("a. b."))
        with pytest.raises(UnsupportedProgramError):
            list(e.solve(parse_goal("u"), parse_database("a. b.")))

    def test_rejects_concurrent_goal(self):
        e = DatalogReader(parse_program("t <- p(a)."))
        with pytest.raises(UnsupportedProgramError):
            list(e.solve(parse_goal("t | t"), parse_database("p(a).")))

    def test_iso_is_identity_sequentially(self):
        e = engine("t <- iso(ins.p(a) * del.p(a)).")
        (sol,) = e.solve(parse_goal("t"), Database())
        assert sol.database == Database()
        # On the reader iso(a) is a; a read has nothing to isolate.
        e = DatalogReader(parse_program("t(X) <- iso(p(X) * q(X))."))
        (sol,) = e.solve(parse_goal("t(X)"), parse_database("p(a). p(b). q(a)."))
        assert str(sol.bindings[Variable("X")]) == "a"


class TestRecursionTermination:
    def test_query_only_recursion_transitive_closure(self, tc_program, chain_db):
        e = DatalogReader(tc_program)
        sols = list(e.solve(parse_goal("path(a, X)"), chain_db))
        values = sorted(str(t) for s in sols for t in s.bindings.values())
        assert values == ["b", "c", "d"]

    def test_cyclic_graph_terminates(self, tc_program):
        e = DatalogReader(tc_program)
        db = parse_database("e(a, b). e(b, a).")
        assert e.succeeds(parse_goal("path(a, a)"), db)

    def test_recursion_with_updates_terminates(self):
        # tail recursion through deletion -- finite state space, tabled
        e = engine(
            """
            drain <- item(X) * del.item(X) * drain.
            drain <- not item(_).
            """
        )
        (sol,) = e.solve(parse_goal("drain"), parse_database("item(a). item(b)."))
        assert sol.database == Database()

    def test_nontail_recursion_decides(self):
        # Non-tail recursion (push then pop around the recursive call)
        # diverges top-down but the table closes the loop.
        e = engine(
            """
            bounce <- ins.down * bounce * ins.up.
            bounce <- stop.
            """
        )
        finals = e.final_databases(parse_goal("bounce"), parse_database("stop."))
        # Base case commits unchanged; any positive recursion depth
        # leaves the same (idempotent) marks.  Crucially: finite answer.
        assert finals == {
            parse_database("stop."),
            parse_database("stop. down. up."),
        }

    def test_unsatisfiable_recursion_fails_finitely(self):
        e = engine("loop <- loop.")
        assert not e.succeeds(parse_goal("loop"), Database())

    def test_mutual_recursion(self):
        e = engine(
            """
            even(X) <- zero(X).
            even(X) <- pred(X, Y) * odd(Y).
            odd(X) <- pred(X, Y) * even(Y).
            """
        )
        db = parse_database("zero(n0). pred(n1, n0). pred(n2, n1). pred(n3, n2).")
        assert e.succeeds(parse_goal("even(n2)"), db)
        assert not e.succeeds(parse_goal("even(n3)"), db)
        assert e.succeeds(parse_goal("odd(n3)"), db)


class TestAgreementWithInterpreter:
    PROGRAMS = [
        ("t <- p(X) * ins.q(X).", "t", "p(a). p(b)."),
        ("t <- p(X) * del.p(X) * t.\nt <- not p(_).", "t", "p(a). p(b)."),
        ("t(X) <- s(X) * flag.\nt(X) <- s(X) * not flag * ins.flag.", "t(Y)", "s(v)."),
    ]

    @pytest.mark.parametrize("prog_text,goal_text,db_text", PROGRAMS)
    def test_same_final_databases(self, prog_text, goal_text, db_text):
        prog = parse_program(prog_text)
        goal = parse_goal(goal_text)
        db = parse_database(db_text)
        seq_finals = select_engine(prog, goal).final_databases(goal, db)
        bfs_finals = Interpreter(prog, tabling=False).final_databases(goal, db)
        assert seq_finals == bfs_finals


class TestTableBehaviour:
    def test_table_persists_across_queries(self, tc_program, chain_db):
        # The translation outlives the engine: a second engine over the
        # same program asks the same goal without translating again.
        from repro.datalog.reader import _TRANSLATIONS

        select_engine(tc_program).succeeds(parse_goal("path(a, d)"), chain_db)
        translation = _TRANSLATIONS[tc_program]
        before = (dict(translation.rules), dict(translation.magic))
        assert select_engine(tc_program).succeeds(parse_goal("path(a, d)"), chain_db)
        assert (translation.rules, translation.magic) == before

    def test_answers_deduplicated(self):
        e = engine(
            """
            dup <- p(X).
            dup <- p(X).
            """
        )
        sols = list(e.solve(parse_goal("dup"), parse_database("p(a).")))
        assert len(sols) == 1


class TestAnswerReplay:
    def test_query_only_hits_never_render_the_state(self, tc_program, monkeypatch):
        # 30 disjoint diamonds, 120 edges.  A read's answers all share
        # the input state: producing them must never render it.
        edges = [
            ("%s%d" % (x, k), "%s%d" % (y, k))
            for k in range(30)
            for x, y in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
        ]
        db = parse_database(" ".join("e(%s, %s)." % e for e in edges))
        assert len(db) == 120

        def no_rendering(self):
            raise AssertionError("a table hit rendered a whole database")

        monkeypatch.setattr(Database, "__iter__", no_rendering)
        # No ambient store: seeding one from db would iterate it.
        with using_store_provider(None):
            sols = list(
                DatalogReader(tc_program).solve(parse_goal("path(a7, X)"), db)
            )
        assert [str(s.bindings[Variable("X")]) for s in sols] == ["b7", "c7", "d7"]
        assert all(s.database == db for s in sols)
