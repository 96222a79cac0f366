"""Unit tests for rulebases: resolution, validation, renaming."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.formulas import Call, Ins, Seq, Test, Truth
from repro.core.parser import parse_program, parse_rules
from repro.core.program import Program, ProgramError, Rule
from repro.core.terms import Atom, Constant, Variable, atom
from repro.core.unify import apply_atom, unify_atoms


class TestResolution:
    def test_base_atoms_become_tests(self):
        prog = parse_program("p(X) <- q(X) * r(X).")
        (rule,) = prog.rules
        assert all(isinstance(part, Test) for part in rule.body.parts)

    def test_derived_atoms_stay_calls(self):
        prog = parse_program("p(X) <- helper(X).\nhelper(X) <- q(X).")
        rule = prog.rules_for(("p", 1))[0]
        assert isinstance(rule.body, Call)

    def test_update_targets_declared_base(self):
        prog = parse_program("p <- ins.log(a).")
        assert "log" in prog.schema
        assert ("log", 1) in prog.schema.signatures()

    def test_goal_resolution(self):
        prog = parse_program("p(X) <- q(X).")
        from repro.core.parser import parse_goal

        goal = prog.resolve_goal(parse_goal("p(a) * q(b)"))
        assert isinstance(goal.parts[0], Call)
        assert isinstance(goal.parts[1], Test)

    def test_same_name_different_arity_are_distinct(self):
        prog = parse_program("p(X) <- p(X, a).")
        assert prog.is_derived(("p", 1))
        assert prog.is_base(("p", 2))


class TestValidation:
    def test_cannot_update_derived(self):
        with pytest.raises(ProgramError):
            parse_program("p <- q.\nq <- true.\nr <- ins.p.")

    def test_strict_mode_rejects_unknown(self):
        with pytest.raises(ProgramError):
            parse_program("p <- mystery(X).", strict=True)

    def test_strict_mode_accepts_declared(self):
        prog = parse_program("#base mystery/1.\np <- mystery(X).", strict=True)
        assert prog.is_base(("mystery", 1))

    def test_absence_test_on_a_derived_predicate_is_refused(self):
        # `not q(X)` reads stored q facts, yet q is derived: TD would
        # answer a and b over r(a). s(a). s(b)., Datalog only b.
        with pytest.raises(ProgramError, match="both base and derived"):
            parse_program("q(X) <- r(X).\np(X) <- s(X) * not q(X).")
        with pytest.raises(ProgramError, match="both base and derived"):
            parse_program("#base q/1.\nq(X) <- r(X).")

    def test_absence_test_before_its_binder_keeps_its_td_meaning(self):
        # `not q(X)` runs first, over q(a): no answer, on every route.
        from repro import Interpreter, parse_database, select_engine

        program = parse_program("p(X) <- not q(X) * r(X).")
        db = parse_database("q(a). r(b).")
        engine = select_engine(program, "p(X)")
        assert engine.backend is engine.interpreter
        assert list(engine.solve("p(X)", db)) == []
        assert list(Interpreter(program, tabling=False).solve("p(X)", db)) == []


class TestRuleRenaming:
    def test_rename_is_consistent(self):
        (rule,) = parse_rules("p(X, Y) <- q(X) * r(Y) * s(X).")
        renamed = rule.rename("_7")
        head_vars = list(renamed.head.variables())
        assert head_vars[0].name == "X_7"
        # the body uses the same renamed variables
        from repro.core.formulas import formula_variables

        body_vars = {v.name for v in formula_variables(renamed.body)}
        assert body_vars == {"X_7", "Y_7"}

    def test_fresh_rules_unique_per_unfold(self):
        prog = parse_program("p(X) <- q(X).")
        r1 = next(prog.fresh_rules_for(("p", 1)))
        r2 = next(prog.fresh_rules_for(("p", 1)))
        assert r1.variables() != r2.variables()


class TestProgramAPI:
    def test_len_iter_str(self):
        prog = parse_program("p <- q.\nr <- s.")
        assert len(prog) == 2
        assert len(list(prog)) == 2
        text = str(prog)
        assert "p <- q." in text

    def test_rules_for_program_order(self):
        prog = parse_program("p <- a.\np <- b.\np <- c.")
        bodies = [str(r.body) for r in prog.rules_for(("p", 0))]
        assert bodies == ["a", "b", "c"]

    def test_extend_is_pure(self):
        prog = parse_program("p <- q.")
        bigger = prog.extend(parse_rules("r <- s."))
        assert len(prog) == 1
        assert len(bigger) == 2
        assert bigger.is_derived(("r", 0))

    def test_derived_signatures_sorted(self):
        prog = parse_program("zz <- a.\naa <- b.")
        assert prog.derived_signatures() == (("aa", 0), ("zz", 0))

    def test_facts_for_derived_predicates(self):
        prog = parse_program("axiom(a).\naxiom(b).\nok <- axiom(X).")
        assert prog.is_derived(("axiom", 1))
        assert len(prog.rules_for(("axiom", 1))) == 2


def _plain(term):
    """*term* without the ``#n`` suffix rule renaming gives variables."""
    if isinstance(term, Variable):
        return Variable(term.name.split("#")[0])
    return term


def _rule_text(rule):
    return re.sub(r"#\d+", "", str(rule))


def _instance(atom_, theta):
    return tuple(_plain(t) for t in apply_atom(atom_, theta).args)


MATCH_PROGRAM = """
q(X, X, Y).
q(a, Y, Y).
q(X, Y, Z) <- r(X).
"""
match_terms = st.sampled_from(
    [Constant(v) for v in ("a", "b", 1, True)] + [Variable(v) for v in "XYZ"]
)


class TestMatchRules:
    """Indexed call dispatch caches one entry per call shape: constants
    at positions no rule head constrains are abstracted, so ground
    calls on new constants reuse the entry, and every answer equals the
    naive scan's."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(match_terms, match_terms, match_terms), max_size=6))
    def test_agrees_with_naive_scan(self, calls):
        prog = parse_program(MATCH_PROGRAM)
        for args in calls:
            call = Atom("q", args)
            fast = list(prog.match_rules(call))
            naive = [
                (rule, theta)
                for rule in prog.fresh_rules_for(call.signature)
                for theta in [unify_atoms(rule.head, call)]
                if theta is not None
            ]
            assert [_rule_text(r) for r, _ in fast] == [_rule_text(r) for r, _ in naive]
            for (rule, theta), (_rule, expected) in zip(fast, naive):
                assert apply_atom(rule.head, theta) == apply_atom(call, theta)
                assert _instance(call, theta) == _instance(call, expected)

    def test_ground_calls_share_one_entry(self):
        prog = parse_program("transfer(F, T, Amt) <- from(F, Amt) * to(T, Amt).")
        for i in range(50):
            call = atom("transfer", "a%d" % i, "b%d" % i, i)
            ((_rule, theta),) = prog.match_rules(call)
            assert sorted(str(t) for t in theta.values()) == sorted(
                ["a%d" % i, "b%d" % i, str(i)]
            )
        assert len(prog._match_cache) == 1
        # A repeated constant is a different shape: F = T.
        list(prog.match_rules(atom("transfer", "a", "a", 1)))
        assert len(prog._match_cache) == 2

    def test_head_constants_stay_in_the_shape(self):
        prog = parse_program(MATCH_PROGRAM)
        ((_r1, t1), (_r2, t2)) = prog.match_rules(atom("q", "a", "a", "b"))
        assert {str(v).split("#")[0]: str(t) for v, t in t1.items()} == {"X": "a", "Y": "b"}
        assert {str(v).split("#")[0]: str(t) for v, t in t2.items()} == {
            "X": "a", "Y": "a", "Z": "b"}
        assert len(list(prog.match_rules(atom("q", "a", "b", "b")))) == 2
