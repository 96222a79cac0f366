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
# p/1, q/1 with constants {a, b}.

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
        goal = parse_goal("t")
        bfs = Interpreter(prog, max_configs=200_000).final_databases(goal, db)
        seq = SequentialEngine(prog).final_databases(goal, db)
        assert bfs == seq

    @settings(max_examples=60, deadline=None)
    @given(programs(), small_dbs())
    def test_interpreter_vs_nonrecursive(self, prog, db):
        # The generated programs are nonrecursive (or query-only); the
        # façade routes them, and its backend must agree with BFS.
        goal = parse_goal("t")
        bfs = Interpreter(prog, max_configs=200_000).final_databases(goal, db)
        routed = select_engine(prog, goal).final_databases(goal, db)
        assert bfs == routed

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


class TestSequentialReplayOrder:
    @settings(max_examples=60, deadline=None)
    @given(programs(), small_dbs())
    def test_tied_answers_replay_in_database_order(self, prog, db):
        # Goal ``t`` has no arguments, so every answer ties on its
        # bindings and the output databases alone decide the order.
        finals = [
            sol.database for sol in SequentialEngine(prog).solve(parse_goal("t"), db)
        ]
        assert finals == sorted(
            set(finals), key=lambda d: tuple(str(f) for f in d)
        )


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
