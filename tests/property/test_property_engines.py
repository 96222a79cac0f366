"""Property-based cross-validation of the evaluation engines.

The strongest correctness evidence in the repository: randomly generated
programs in the overlap of two engines' sublanguages must get identical
answers from both.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import (
    Database,
    Interpreter,
    Program,
    SearchBudgetExceeded,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.core.formulas import Call, Test, walk_formulas
from repro.datalog import from_td

# Random *sequential nonrecursive* programs over a tiny vocabulary:
# bodies are sequences of tests / inserts / deletes / negations over
# p/1, q/1 with constants {a, b}.  The tabled interpreter runs them,
# checked against the naive one.

_ops = st.sampled_from(
    [
        "p(a)", "p(b)", "q(a)", "q(b)",
        "p(X)", "q(X)",
        "ins.p(a)", "ins.p(b)", "ins.q(a)", "ins.q(b)",
        "del.p(a)", "del.p(b)", "del.q(a)",
        "not p(a)", "not q(b)",
    ]
)


@st.composite
def rule_bodies(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return " * ".join(draw(_ops) for _ in range(n))


@st.composite
def programs(draw):
    n_rules = draw(st.integers(min_value=1, max_value=3))
    rules = []
    for i in range(n_rules):
        rules.append("t <- %s." % draw(rule_bodies()))
    return parse_program("\n".join(rules))


# Random *query-only* programs: ``t(X)`` reads p/1, q/1 and the
# recursive s/1.  A body may open with an absence test before its
# binder, compare X with mixed int/string constants, or leave its head
# variable unbound; the translation to Datalog refuses the first, the
# builtins and the last, so those reads stay on the interpreter.
_reads = st.sampled_from(
    ["p(a)", "p(b)", "q(a)", "q(b)", "p(X)", "q(X)", "s(X)", "s(a)",
     "not p(a)", "not q(b)", "not q(X)", "X < 2", "X != a"]
)


@st.composite
def query_programs(draw):
    rules = ["s(X) <- q(X).", "s(X) <- p(X) * s(X)."]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        first = draw(st.sampled_from(["p(X)", "q(X)", "s(X)", "not q(X) * p(X)"]))
        rest = [draw(_reads) for _ in range(draw(st.integers(0, 3)))]
        rules.append("t(X) <- %s." % " * ".join([first] + rest))
    if draw(st.integers(0, 3)) == 0:
        rules.append("t(X) <- p(a).")  # unsafe: X stays unbound
    return parse_program("\n".join(rules))


_QUERY_GOALS = ("t(X)", "t(a)", "t(1)", "s(X)", "p(X)", "t(X) * s(X)", "s(X) * not t(X)")


def _translates(program, goal):
    """Whether from_td accepts every rule *goal* reaches, for a goal
    that is one test or one call; False for any other goal."""
    goal = program.resolve_goal(goal)
    if isinstance(goal, Test):
        return True
    if not isinstance(goal, Call):
        return False
    reached, todo = set(), [goal.atom.signature]
    while todo:
        sig = todo.pop()
        if sig not in reached:
            reached.add(sig)
            todo += [sub.atom.signature for rule in program.rules_for(sig)
                     for sub in walk_formulas(rule.body) if isinstance(sub, Call)]
    try:
        from_td(Program([r for r in program.rules if r.head.signature in reached]))
    except ValueError:
        return False
    return True


def _answers(solutions):
    return {
        (tuple(sorted((str(v), str(t)) for v, t in s.bindings.items())), s.database)
        for s in solutions
    }


@st.composite
def small_dbs(draw):
    facts = draw(
        st.lists(
            st.sampled_from(["p(a)", "p(b)", "q(a)", "q(b)"]),
            max_size=4,
            unique=True,
        )
    )
    return parse_database(" ".join(f + "." for f in facts))


@st.composite
def mixed_dbs(draw):
    facts = draw(
        st.lists(
            st.sampled_from(["p(a)", "p(b)", "q(a)", "q(b)", "p(1)", "q(1)", "q(2)"]),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    return parse_database(" ".join(f + "." for f in facts))


class TestEngineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(programs(), small_dbs())
    def test_interpreter_vs_sequential(self, prog, db):
        # Sequential programs that update run on the tabled interpreter;
        # the naive search (``tabling=False``) is its oracle.
        goal = parse_goal("t")
        naive = Interpreter(prog, tabling=False).final_databases(goal, db)
        tabled = Interpreter(prog).final_databases(goal, db)
        assert tabled == naive

    @settings(max_examples=60, deadline=None)
    @given(programs(), small_dbs())
    def test_interpreter_vs_nonrecursive(self, prog, db):
        # The generated programs are nonrecursive (or query-only); the
        # façade routes them, and its backend must agree with BFS.
        goal = parse_goal("t")
        bfs = Interpreter(prog, max_configs=200_000).final_databases(goal, db)
        routed = select_engine(prog, goal).final_databases(goal, db)
        assert bfs == routed

    @settings(max_examples=80, deadline=None)
    @given(query_programs(), mixed_dbs())
    def test_query_only_sequential_vs_naive(self, prog, db):
        # The reader serves a goal exactly when the goal is one test or
        # call whose reachable rules translate; routed either way, the
        # answers are the naive interpreter's, answer by answer.
        for text in _QUERY_GOALS:
            goal = parse_goal(text)
            try:
                naive = _answers(
                    Interpreter(prog, tabling=False, max_configs=20_000).solve(goal, db)
                )
            except SearchBudgetExceeded:
                continue
            engine = select_engine(prog, goal)
            assert engine.reader.serves(goal) == _translates(prog, goal)
            assert (engine.backend is engine.reader) == engine.reader.serves(goal)
            assert _answers(engine.solve(goal, db)) == naive, text

    @settings(max_examples=40, deadline=None)
    @given(programs(), small_dbs())
    def test_succeeds_iff_some_final(self, prog, db):
        goal = parse_goal("t")
        interp = Interpreter(prog, max_configs=200_000)
        assert interp.succeeds(goal, db) == bool(interp.final_databases(goal, db))

    @settings(max_examples=40, deadline=None)
    @given(programs(), small_dbs())
    def test_simulate_consistent_with_solve(self, prog, db):
        goal = parse_goal("t")
        interp = Interpreter(prog, max_configs=200_000)
        exe = interp.simulate(goal, db)
        finals = interp.final_databases(goal, db)
        if exe is None:
            assert not finals
        else:
            assert exe.database in finals


class TestQueryOnlyVsDatalog:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcd"),
                st.sampled_from("abcd"),
            ),
            max_size=8,
            unique=True,
        )
    )
    def test_transitive_closure_agreement(self, edges):
        from repro import atom
        from repro.datalog import evaluate

        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        db = Database([atom("e", a, b) for a, b in edges])
        dl_facts = evaluate(from_td(prog), db)
        td = Interpreter(prog, tabling=False)
        for x in "abcd":
            for y in "abcd":
                goal = parse_goal("path(%s, %s)" % (x, y))
                assert td.succeeds(goal, db) == (atom("path", x, y) in dl_facts)
