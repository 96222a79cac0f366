"""Property-based differentials on generated programs with non-ground
answers: the tabled interpreter against the naive search
(``tabling=False``), and ``iso(G)`` against ``G``.

Rules for ``r/1`` and ``s/2`` may leave head variables unbound, bind
them through base tests, or share them through a nested call, plain or
isolated, and the goals repeat head-position calls before and after an
update -- the shapes on which a table that merged or dropped answers
would lose solutions.  Tabled and naive solution sets must be equal,
with the partial-order reducer on and off.  With nothing running beside
it, ``iso(G)`` is one atomic step carrying G's whole answer, so it must
have G's solutions, with tabling on and off.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Interpreter, parse_database, parse_goal, parse_program
from repro.core.terms import Variable

_UPDATES = ["ins.f", "del.f", "ins.o(b)", "del.o(a)"]

_R_BODY = st.sampled_from(
    ["o(X)", "o(a)", "f", "not o(b)", "s(X, W)", "s(W, X)", "s(X, X)"]
    + ["iso(s(X, W))", "iso(s(X, X) * ins.f)"]
    + _UPDATES
)
_S_BODY = st.sampled_from(["o(U)", "o(V)", "f", "not f", "ins.o(a)", "del.f"])


@st.composite
def _rules(draw, head, body_ops, max_rules):
    rules = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
        n = draw(st.integers(min_value=1, max_value=3))
        body = " * ".join(draw(body_ops) for _ in range(n))
        rules.append("%s <- %s." % (draw(head), body))
    return rules


@st.composite
def programs(draw):
    rules = draw(_rules(st.just("r(X)"), _R_BODY, 3))
    rules += draw(_rules(st.sampled_from(["s(U, V)", "s(U, U)"]), _S_BODY, 2))
    return parse_program("\n".join(rules))


@st.composite
def goals(draw):
    update = draw(st.sampled_from(_UPDATES))
    return draw(
        st.sampled_from(
            [
                "s(Y, Z)",
                "r(Y) * r(Z)",
                "r(Y) * %s * r(Z)" % update,
                "r(Y) * %s * r(Y)" % update,
                "s(Y, Z) * %s * s(Z, Y)" % update,
                "r(Y) * s(Y, Z) * %s * r(Z)" % update,
            ]
        )
    )


@st.composite
def small_dbs(draw):
    facts = draw(
        st.lists(st.sampled_from(["o(a)", "o(b)", "f"]), max_size=3, unique=True)
    )
    return parse_database(" ".join(f + "." for f in facts))


def _solutions(interp, goal, db):
    """Solutions as (bindings, final database), unbound variables
    renamed by first occurrence: the searches name fresh variables
    differently, so only the sharing between positions is compared."""
    out = set()
    for sol in interp.solve(goal, db):
        names = {}
        rendered = []
        for var, term in sorted(sol.bindings.items(), key=lambda vt: str(vt[0])):
            if isinstance(term, Variable):
                term = names.setdefault(term, "_%d" % len(names))
            rendered.append((str(var), str(term)))
        out.add((tuple(rendered), sol.database))
    return out


class TestTabledEqualsNaive:
    @settings(max_examples=150, deadline=None)
    @given(programs(), goals(), small_dbs(), st.booleans())
    def test_solution_sets_equal(self, program, goal, db, por):
        goal = program.resolve_goal(parse_goal(goal))
        tabled = _solutions(Interpreter(program, por=por), goal, db)
        naive = _solutions(Interpreter(program, por=por, tabling=False), goal, db)
        assert tabled == naive


class TestIsoLaw:
    @settings(max_examples=150, deadline=None)
    @given(programs(), goals(), small_dbs())
    def test_iso_goal_has_the_goals_solutions(self, program, goal, db):
        plain = program.resolve_goal(parse_goal(goal))
        isolated = program.resolve_goal(parse_goal("iso(%s)" % goal))
        for tabling in (True, False):
            expected = _solutions(Interpreter(program, tabling=tabling), plain, db)
            got = _solutions(Interpreter(program, tabling=tabling), isolated, db)
            assert got == expected, tabling


class TestPinnedCounterexamples:
    """Shrunk counterexamples the generator found, pinned as plain
    differentials with their expected solution counts."""

    def _check(self, text, goal, facts, count):
        program = parse_program(text)
        goal = program.resolve_goal(parse_goal(goal))
        db = parse_database(facts)
        tabled = _solutions(Interpreter(program), goal, db)
        naive = _solutions(Interpreter(program, tabling=False), goal, db)
        assert tabled == naive
        assert len(tabled) == count

    def test_repeated_caller_variable_served_from_the_table(self):
        # s(Z, Y) runs as s(Y, Y) once the first call has shared Y and
        # Z; serving the answer (A0, A0) must not bind Y to itself, or
        # walking the binding never ends.
        self._check("s(U, U) <- not f.", "s(Y, Z) * del.f * s(Z, Y)", "", 1)

    def test_answers_differing_only_in_sharing_stay_apart(self):
        # The second call answers both "Y, Z unbound" and "Y = Z": final
        # configurations that differ only in how the answers share a
        # variable must not merge.
        self._check(
            "r(X) <- o(X).\n"
            "s(U, V) <- ins.o(a) * ins.o(a).\n"
            "s(U, U) <- o(V).",
            "s(Y, Z) * ins.f * s(Z, Y)",
            "",
            2,
        )
