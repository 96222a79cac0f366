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
    SequentialEngine,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)

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
# recursive s/1, whose first conjunct binds X.
_reads = st.sampled_from(
    ["p(a)", "p(b)", "q(a)", "q(b)", "p(X)", "q(X)", "s(X)", "s(a)",
     "not p(a)", "not q(b)", "not q(X)"]
)


@st.composite
def query_programs(draw):
    rules = ["s(X) <- q(X).", "s(X) <- p(X) * s(X)."]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        first = draw(st.sampled_from(["p(X)", "q(X)", "s(X)"]))
        rest = [draw(_reads) for _ in range(draw(st.integers(0, 3)))]
        rules.append("t(X) <- %s." % " * ".join([first] + rest))
    return parse_program("\n".join(rules))


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

    @settings(max_examples=60, deadline=None)
    @given(query_programs(), small_dbs())
    def test_query_only_sequential_vs_naive(self, prog, db):
        # Reads run on the sequential evaluator; the naive interpreter
        # is its oracle, answer by answer.
        goal = parse_goal("t(X)")
        naive = _answers(Interpreter(prog, tabling=False).solve(goal, db))
        assert _answers(SequentialEngine(prog).solve(goal, db)) == naive
        engine = select_engine(prog, goal)
        assert engine.backend is engine.reader
        assert _answers(engine.solve(goal, db)) == naive

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
        from repro.datalog import evaluate, from_td

        prog = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        db = Database([atom("e", a, b) for a, b in edges])
        dl_facts = evaluate(from_td(prog), db)
        td = SequentialEngine(prog)
        for x in "abcd":
            for y in "abcd":
                goal = parse_goal("path(%s, %s)" % (x, y))
                assert td.succeeds(goal, db) == (atom("path", x, y) in dl_facts)
