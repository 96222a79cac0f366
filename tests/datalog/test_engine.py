"""Tests for naive/seminaive Datalog evaluation and the TD bridge."""

import gc

import pytest

from repro import Database, Interpreter, parse_database, parse_goal, parse_program
from repro.core.terms import Atom, Variable, atom
from repro.datalog import (
    DatalogProgram,
    DatalogRule,
    Literal,
    evaluate,
    evaluate_naive,
    from_td,
    query,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def tc_datalog():
    return DatalogProgram([
        DatalogRule(Atom("path", (X, Y)), (Literal(Atom("e", (X, Y))),)),
        DatalogRule(
            Atom("path", (X, Y)),
            (Literal(Atom("e", (X, Z))), Literal(Atom("path", (Z, Y)))),
        ),
    ])


def chain(n):
    return Database([atom("e", i, i + 1) for i in range(n)])


class TestEvaluation:
    def test_transitive_closure(self):
        facts = evaluate(tc_datalog(), chain(3))
        assert atom("path", 0, 3) in facts
        assert atom("path", 2, 0) not in facts
        assert len(facts.facts("path")) == 6

    def test_cycle_terminates(self):
        db = Database([atom("e", "a", "b"), atom("e", "b", "a")])
        facts = evaluate(tc_datalog(), db)
        assert atom("path", "a", "a") in facts

    def test_facts_only_program(self):
        prog = DatalogProgram([DatalogRule(atom("p", "a"))])
        facts = evaluate(prog, Database())
        assert atom("p", "a") in facts

    def test_stratified_negation(self):
        prog = DatalogProgram([
            DatalogRule(Atom("reach", (X,)), (Literal(Atom("src", (X,))),)),
            DatalogRule(
                Atom("reach", (Y,)),
                (Literal(Atom("reach", (X,))), Literal(Atom("e", (X, Y)))),
            ),
            DatalogRule(
                Atom("cut", (X,)),
                (Literal(Atom("node", (X,))),
                 Literal(Atom("reach", (X,)), positive=False)),
            ),
        ])
        db = Database(
            [atom("src", 0), atom("e", 0, 1), atom("node", 0), atom("node", 1),
             atom("node", 2)]
        )
        facts = evaluate(prog, db)
        assert atom("cut", 2) in facts
        assert atom("cut", 1) not in facts

    def test_query_helper(self):
        answers = query(tc_datalog(), chain(3), Atom("path", (atom("x", 0).args[0], Y)))
        assert len(answers) == 3


class TestSeminaiveVsNaive:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_chain_agreement(self, n):
        assert evaluate(tc_datalog(), chain(n)) == evaluate_naive(tc_datalog(), chain(n))

    def test_dense_graph_agreement(self):
        db = Database([atom("e", i, j) for i in range(5) for j in range(5) if i != j])
        assert evaluate(tc_datalog(), db) == evaluate_naive(tc_datalog(), db)

    def test_multiple_recursive_literals(self):
        # path via doubling: two recursive literals in one body
        prog = DatalogProgram([
            DatalogRule(Atom("p", (X, Y)), (Literal(Atom("e", (X, Y))),)),
            DatalogRule(
                Atom("p", (X, Y)),
                (Literal(Atom("p", (X, Z))), Literal(Atom("p", (Z, Y)))),
            ),
        ])
        db = chain(8)
        assert evaluate(prog, db) == evaluate_naive(prog, db)


class TestTDBridge:
    def test_query_only_td_translates(self, tc_program):
        dl = from_td(tc_program)
        assert len(dl.rules) == 2

    def test_td_and_datalog_agree(self, tc_program, chain_db):
        dl = from_td(tc_program)
        dl_facts = evaluate(dl, chain_db)
        td = Interpreter(tc_program, tabling=False)
        for x in "abcd":
            for y in "abcd":
                goal = parse_goal("path(%s, %s)" % (x, y))
                assert td.succeeds(goal, chain_db) == (
                    atom("path", x, y) in dl_facts
                )

    def test_negation_translates(self):
        prog = parse_program("fresh(X) <- sample(X) * not used(X).")
        dl = from_td(prog)
        facts = evaluate(dl, parse_database("sample(a). sample(b). used(a)."))
        assert atom("fresh", "b") in facts
        assert atom("fresh", "a") not in facts

    def test_updates_rejected(self):
        with pytest.raises(ValueError):
            from_td(parse_program("p <- q(X) * ins.r(X)."))


class TestAbsenceTests:
    """TD's ``not p(t)`` reads the stored facts where it runs, binding
    nothing (docs/SEMANTICS.md, [absence]); Datalog negates last.  The
    translation refuses every rule on which the two would differ."""

    def test_absence_before_its_binder_is_refused(self):
        # TD: q(a) is stored, so `not q(X)` fails and p has no answer;
        # negation-last Datalog would answer p(b).
        program = parse_program("p(X) <- not q(X) * r(X).")
        db = parse_database("q(a). r(b).")
        assert list(Interpreter(program, tabling=False).solve("p(X)", db)) == []
        with pytest.raises(ValueError, match="before any test or call binds"):
            from_td(program)

    def test_absence_of_a_derived_predicate_is_refused(self):
        # TD reads stored q facts (none), so both s facts answer;
        # Datalog would negate the derived q and answer only b.
        text = "q(X) <- r(X).\np(X) <- s(X) * not q(X)."
        with pytest.raises(ValueError, match="both base and derived"):
            parse_program(text)

    def test_a_sibling_branch_binds_nothing(self):
        with pytest.raises(ValueError):
            from_td(parse_program("p(X) <- r(X) | not q(X)."))
        dl = from_td(parse_program("p(X) <- (r(X) | s(X)) * not q(X)."))
        facts = evaluate(dl, parse_database("r(a). s(a). r(b). s(b). q(b)."))
        assert sorted(str(f) for f in facts.facts("p")) == ["p(a)"]

    def test_anonymous_absence_is_refused(self):
        with pytest.raises(ValueError):
            from_td(parse_program("idle <- not workitem(_)."))

    def test_bound_absence_translates(self):
        dl = from_td(parse_program("p(X) <- r(X) * not q(X)."))
        facts = evaluate(dl, parse_database("q(a). r(a). r(b)."))
        assert sorted(str(f) for f in facts.facts("p")) == ["p(b)"]


class TestNoReferenceCycles:
    def test_evaluate_leaves_nothing_for_the_collector(self):
        # A join that recursed through a closure made a reference cycle
        # per call, keeping every state it touched alive until a
        # collector pass.
        program = tc_datalog()
        edb = chain(20)
        gc.collect()
        gc.disable()
        try:
            facts = evaluate(program, edb)
            assert len(facts.facts("path")) == 210
            assert gc.collect() == 0
        finally:
            gc.enable()
