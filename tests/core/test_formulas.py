"""Unit tests for the formula AST."""

import pytest

from repro.core.formulas import (
    BinOp,
    Builtin,
    Call,
    Conc,
    Del,
    Ins,
    Isol,
    Neg,
    Seq,
    TRUTH,
    Test,
    Truth,
    apply_subst,
    conc,
    formula_variables,
    iso,
    seq,
    walk_formulas,
)
from repro import Database, Interpreter, parse_program, select_engine
from repro.core.errors import SafetyError
from repro.core.terms import Atom, Constant, Variable, atom

X, Y = Variable("X"), Variable("Y")
a = Constant("a")


class TestConstructors:
    def test_seq_flattens(self):
        f = seq(Test(atom("p")), seq(Test(atom("q")), Test(atom("r"))))
        assert isinstance(f, Seq)
        assert len(f.parts) == 3

    def test_conc_flattens(self):
        f = conc(Test(atom("p")), conc(Test(atom("q")), Test(atom("r"))))
        assert isinstance(f, Conc)
        assert len(f.parts) == 3

    def test_units_dropped(self):
        f = seq(TRUTH, Test(atom("p")), TRUTH)
        assert f == Test(atom("p"))

    def test_empty_is_truth(self):
        assert seq() == TRUTH
        assert conc() == TRUTH

    def test_singleton_unwrapped(self):
        t = Test(atom("p"))
        assert seq(t) is t
        assert conc(t) is t

    def test_iso_of_truth_is_truth(self):
        assert iso(TRUTH) == TRUTH
        assert isinstance(iso(Test(atom("p"))), Isol)

    def test_associativity_as_equality(self):
        p, q, r = (Test(atom(n)) for n in "pqr")
        assert seq(seq(p, q), r) == seq(p, seq(q, r))
        assert conc(conc(p, q), r) == conc(p, conc(q, r))


class TestApplySubst:
    def test_applies_through_tree(self):
        f = seq(Test(Atom("p", (X,))), Ins(Atom("q", (X,))))
        g = apply_subst(f, {X: a})
        assert g == seq(Test(atom("p", "a")), Ins(atom("q", "a")))

    def test_empty_subst_identity(self):
        f = conc(Test(Atom("p", (X,))), Del(Atom("q", (Y,))))
        assert apply_subst(f, {}) is f

    def test_applies_inside_iso_and_builtin(self):
        f = Isol(Builtin(">", X, Constant(0)))
        g = apply_subst(f, {X: Constant(5)})
        assert g == Isol(Builtin(">", Constant(5), Constant(0)))

    def test_applies_inside_binop(self):
        f = Builtin("is", Y, BinOp("+", X, Constant(1)))
        g = apply_subst(f, {X: Constant(2)})
        assert g.right == BinOp("+", Constant(2), Constant(1))


class TestBuiltinEvaluate:
    def test_comparisons(self):
        assert Builtin(">", Constant(3), Constant(2)).evaluate({}) == {}
        assert Builtin(">", Constant(2), Constant(3)).evaluate({}) is None
        assert Builtin("=", Constant("a"), Constant("a")).evaluate({}) == {}
        assert Builtin("!=", Constant("a"), Constant("b")).evaluate({}) == {}
        assert Builtin("<=", Constant(2), Constant(2)).evaluate({}) == {}

    def test_is_binds_left(self):
        out = Builtin("is", X, BinOp("-", Constant(5), Constant(2))).evaluate({})
        assert out == {X: Constant(3)}

    def test_is_checks_bound_left(self):
        f = Builtin("is", X, Constant(3))
        assert f.evaluate({X: Constant(3)}) == {X: Constant(3)}
        assert f.evaluate({X: Constant(4)}) is None

    def test_unbound_comparison_raises(self):
        with pytest.raises(ValueError):
            Builtin(">", X, Constant(0)).evaluate({})

    def test_arithmetic_on_strings_raises(self):
        with pytest.raises(ValueError):
            Builtin("is", X, BinOp("+", Constant("a"), Constant(1))).evaluate({})

    def test_multiplication_binop(self):
        out = Builtin("is", X, BinOp("*", Constant(4), Constant(3))).evaluate({})
        assert out == {X: Constant(12)}

    def test_comparison_over_expressions(self):
        f = Builtin("<", BinOp("+", Constant(1), Constant(1)), Constant(3))
        assert f.evaluate({}) == {}

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_ordering_across_types_does_not_hold(self, op):
        # ``a < 3`` is false, not a TypeError out of the search.
        assert Builtin(op, Constant("a"), Constant(3)).evaluate({}) is None
        assert Builtin(op, Constant(3), Constant("a")).evaluate({}) is None
        assert Builtin("!=", Constant("a"), Constant(3)).evaluate({}) == {}


class TestTypedBuiltins:
    """Builtins compare typed constants, as unification does: over a
    database holding only ``p(True)``, ``True`` is not ``1``."""

    PROGRAM = """
    g(X) <- p(X) * X = 1.
    h <- p(1).
    lt(X) <- p(X) * X < 3.
    inc(Y) <- p(X) * Y is X + 1.
    one(X) <- p(X) * X is 0 + 1.
    """

    @staticmethod
    def outcome(engine, goal, value):
        db = Database([atom("p", value)])
        try:
            return [
                {str(v): t for v, t in s.bindings.items()}
                for s in engine.solve(goal, db)
            ]
        except SafetyError:
            return "safety error"

    @pytest.fixture(params=["interpreter", "sequential"])
    def engine(self, request):
        # "sequential": the façade's route for these |-free reads.
        program = parse_program(self.PROGRAM)
        if request.param == "interpreter":
            return Interpreter(program)
        return select_engine(program)

    def test_equality_is_identity(self, engine):
        assert self.outcome(engine, "g(X)", True) == []
        assert self.outcome(engine, "h", True) == []
        assert self.outcome(engine, "g(X)", 1) == [{"X": Constant(1)}]
        assert Builtin("=", Constant(True), Constant(1)).evaluate({}) is None
        assert Builtin("!=", Constant(True), Constant(1)).evaluate({}) == {}

    def test_ordering_only_between_ints_or_strings(self, engine):
        assert self.outcome(engine, "lt(X)", True) == []
        assert self.outcome(engine, "lt(X)", 2) == [{"X": Constant(2)}]
        assert Builtin("<", Constant("a"), Constant("b")).evaluate({}) == {}
        assert Builtin("<", Constant(False), Constant(True)).evaluate({}) is None

    def test_arithmetic_over_a_bool_fails_as_over_a_string(self, engine):
        assert self.outcome(engine, "inc(Y)", True) == []
        assert self.outcome(engine, "inc(Y)", "a") == []
        assert self.outcome(engine, "inc(Y)", 1) == [{"Y": Constant(2)}]
        with pytest.raises(ValueError):
            Builtin("is", X, BinOp("+", Constant(True), Constant(1))).evaluate({})

    def test_is_compares_the_typed_result(self, engine):
        assert self.outcome(engine, "one(X)", True) == []
        assert self.outcome(engine, "one(X)", 1) == [{"X": Constant(1)}]


class TestTraversals:
    def test_formula_variables_in_order(self):
        f = seq(Test(Atom("p", (X,))), Conc((Ins(Atom("q", (Y,))), Test(Atom("r", (X,))))))
        assert list(formula_variables(f)) == [X, Y, X]

    def test_variables_in_builtins(self):
        f = Builtin("is", Y, BinOp("+", X, Constant(1)))
        assert list(formula_variables(f)) == [Y, X]

    def test_walk_formulas_preorder(self):
        inner = Test(atom("p"))
        f = Isol(seq(inner, Ins(atom("q"))))
        kinds = [type(x).__name__ for x in walk_formulas(f)]
        assert kinds == ["Isol", "Seq", "Test", "Ins"]


class TestStr:
    def test_round_trip_shapes(self):
        f = seq(
            Test(Atom("p", (X,))),
            conc(Ins(atom("q", "a")), Del(atom("r", "b"))),
            Neg(atom("s")),
        )
        text = str(f)
        assert "p(X)" in text
        assert "ins.q(a)" in text
        assert "del.r(b)" in text
        assert "not s" in text
        # concurrent group parenthesized inside the sequence
        assert "(ins.q(a) | del.r(b))" in text
