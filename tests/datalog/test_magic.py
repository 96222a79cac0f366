"""Tests for the magic-sets transformation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Database, atom, parse_database, parse_program
from repro.core.terms import Atom, Variable
from repro.datalog import DatalogProgram, DatalogRule, Literal, evaluate, from_td, query
from repro.datalog.magic import magic_query, magic_transform

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def tc_program():
    return DatalogProgram([
        DatalogRule(Atom("path", (X, Y)), (Literal(Atom("e", (X, Y))),)),
        DatalogRule(
            Atom("path", (X, Y)),
            (Literal(Atom("e", (X, Z))), Literal(Atom("path", (Z, Y)))),
        ),
    ])


def chain(n):
    return Database([atom("e", i, i + 1) for i in range(n)])


class TestCorrectness:
    def test_bound_free_query(self):
        answers = magic_query(tc_program(), chain(6), Atom("path", (atom("x", 0).args[0], Y)))
        values = sorted(t.value for a in answers for t in a.values())
        assert values == [1, 2, 3, 4, 5, 6]

    def test_fully_bound_query(self):
        answers = magic_query(tc_program(), chain(6), atom("path", 0, 6))
        assert len(answers) == 1
        assert magic_query(tc_program(), chain(6), atom("path", 6, 0)) == []

    def test_free_free_query_degenerates_gracefully(self):
        answers = magic_query(tc_program(), chain(4), Atom("path", (X, Y)))
        plain = query(tc_program(), chain(4), Atom("path", (X, Y)))
        got = {tuple(sorted((str(k), str(v)) for k, v in a.items())) for a in answers}
        want = {tuple(sorted((str(k), str(v)) for k, v in a.items())) for a in plain}
        assert got == want

    @pytest.mark.parametrize("src", [0, 3, 7])
    def test_agrees_with_plain_evaluation(self, src):
        db = chain(8)
        magic = magic_query(tc_program(), db, Atom("path", (atom("q", src).args[0], Y)))
        plain = query(tc_program(), db, Atom("path", (atom("q", src).args[0], Y)))
        assert {str(a[Y]) for a in magic} == {str(a[Y]) for a in plain}

    def test_multirule_program(self):
        # same generation: sg(X, Y), the classic magic-sets example
        prog = DatalogProgram([
            DatalogRule(Atom("sg", (X, X)), (Literal(Atom("person", (X,))),)),
            DatalogRule(
                Atom("sg", (X, Y)),
                (
                    Literal(Atom("par", (X, Z))),
                    Literal(Atom("sg", (Z, Variable("W")))),
                    Literal(Atom("par", (Y, Variable("W")))),
                ),
            ),
        ])
        db = Database(
            [atom("person", p) for p in ("a", "b", "c", "d")]
            + [atom("par", "b", "a"), atom("par", "c", "a"), atom("par", "d", "b")]
        )
        src = atom("q", "b").args[0]
        magic = magic_query(prog, db, Atom("sg", (src, Y)))
        plain = query(prog, db, Atom("sg", (src, Y)))
        assert {str(a[Y]) for a in magic} == {str(a[Y]) for a in plain}


class TestRelevanceFiltering:
    def test_magic_derives_fewer_facts(self):
        """The point of the optimization: a point query on a long chain
        must not materialize the whole quadratic closure."""
        program = tc_program()
        db = chain(30)
        src = atom("q", 25).args[0]
        magic_program, seeds, answer_pred = magic_transform(
            program, Atom("path", (src, Y))
        )
        magic_facts = evaluate(magic_program, db.insert_all(seeds))
        plain_facts = evaluate(program, db)
        derived_magic = len(magic_facts) - len(db) - len(seeds)
        derived_plain = len(plain_facts) - len(db)
        assert derived_magic < derived_plain / 3

    def test_seed_carries_bound_constants(self):
        program = tc_program()
        _mp, seeds, _ap = magic_transform(program, Atom("path", (atom("q", 5).args[0], Y)))
        (seed,) = seeds
        assert seed.args == (atom("q", 5).args[0],)


class TestValidation:
    def test_negation_rejected(self):
        # Negating a derived predicate needs its whole relation first.
        prog = DatalogProgram([
            DatalogRule(Atom("bad", (X,)), (Literal(Atom("flag", (X,))),)),
            DatalogRule(
                Atom("ok", (X,)),
                (Literal(Atom("n", (X,))), Literal(Atom("bad", (X,)), positive=False)),
            ),
        ])
        with pytest.raises(ValueError):
            magic_transform(prog, Atom("ok", (X,)))

    def test_base_negation_is_copied_once_bound(self):
        # `not blocked(Z)` precedes its binder in the body list: it
        # waits for e(X, Z), so the magic rule for path(Z, Y) is safe
        # and filtered by it.
        prog = DatalogProgram([
            DatalogRule(Atom("path", (X, Y)), (Literal(Atom("e", (X, Y))),)),
            DatalogRule(Atom("path", (X, Y)), (
                Literal(Atom("blocked", (Z,)), positive=False),
                Literal(Atom("e", (X, Z))),
                Literal(Atom("path", (Z, Y))),
            )),
        ])
        magic_program, _seeds, _answer = magic_transform(prog, Atom("path", (atom("q", 0).args[0], Y)))
        (magic_rule,) = [r for r in magic_program.rules if r.head.pred.startswith("magic__")]
        assert [str(l) for l in magic_rule.body] == [
            "magic__path__bf(X)", "e(X, Z)", "not blocked(Z)",
        ]
        db = chain(6).insert(atom("blocked", 3))
        got = magic_query(prog, db, Atom("path", (atom("q", 0).args[0], Y)))
        assert {a[Y].value for a in got} == {1, 2, 3}

    def test_query_must_be_idb(self):
        with pytest.raises(ValueError):
            magic_transform(tc_program(), Atom("e", (X, Y)))


class TestMultipleAdornments:
    def test_fb_and_bf_in_one_program(self):
        # ancestor query both directions: the transform must generate
        # distinct adorned predicates for path^bf and path^fb.
        prog = tc_program()
        db = chain(10)
        fwd = magic_query(prog, db, Atom("path", (atom("q", 2).args[0], Y)))
        bwd = magic_query(prog, db, Atom("path", (X, atom("q", 7).args[0])))
        assert {str(a[Y]) for a in fwd} == {str(i) for i in range(3, 11)}
        assert {str(a[X]) for a in bwd} == {str(i) for i in range(0, 7)}

    def test_nonlinear_rule_adornment(self):
        # doubling rule: two recursive body literals with different
        # binding patterns under one head adornment
        prog = DatalogProgram([
            DatalogRule(Atom("p", (X, Y)), (Literal(Atom("e", (X, Y))),)),
            DatalogRule(
                Atom("p", (X, Y)),
                (Literal(Atom("p", (X, Z))), Literal(Atom("p", (Z, Y)))),
            ),
        ])
        db = chain(9)
        got = magic_query(prog, db, Atom("p", (atom("q", 0).args[0], Y)))
        plain = query(prog, db, Atom("p", (atom("q", 0).args[0], Y)))
        assert {str(a[Y]) for a in got} == {str(a[Y]) for a in plain}


# Generated programs with absence tests: a recursive r/2 over base
# e/2, n/1 and blocked/1, where every absence test follows its binders
# (the shape from_td produces).
_STEPS = ["e(Z, Y)", "r(Z, Y)", "n(Z)", "e(Y, X)", "s(Z)"]


@st.composite
def absence_programs(draw):
    lines = ["r(X, Y) <- e(X, Y).", "s(X) <- n(X) * not blocked(X)."]
    for _ in range(draw(st.integers(1, 3))):
        body = [draw(st.sampled_from(["e(X, Z)", "r(X, Z)"]))]
        bound = {"X", "Z"}
        for step in draw(st.lists(st.sampled_from(_STEPS), max_size=3)):
            body.append(step)
            bound |= {v for v in "XYZ" if v in step}
            if draw(st.booleans()):
                body.append("not blocked(%s)" % draw(st.sampled_from(sorted(bound))))
        if "Y" not in bound:
            body.append("e(Z, Y)")
        lines.append("r(X, Y) <- %s." % " * ".join(body))
    return from_td(parse_program("\n".join(lines)))


@st.composite
def absence_dbs(draw):
    nodes = "abc"
    facts = draw(st.lists(
        st.sampled_from(
            ["e(%s, %s)" % (x, y) for x in nodes for y in nodes]
            + ["n(%s)" % x for x in nodes] + ["blocked(%s)" % x for x in nodes]
        ),
        max_size=8, unique=True,
    ))
    return parse_database(" ".join(f + "." for f in facts))


class TestAbsenceDifferential:
    @settings(max_examples=80, deadline=None)
    @given(absence_programs(), absence_dbs(), st.sampled_from("abc"))
    def test_magic_query_equals_query(self, prog, db, node):
        const = atom("q", node).args[0]
        for goal in (Atom("r", (const, Y)), Atom("r", (X, const))):
            magic = {tuple(sorted(map(str, a.items()))) for a in magic_query(prog, db, goal)}
            plain = {tuple(sorted(map(str, a.items()))) for a in query(prog, db, goal)}
            assert magic == plain
