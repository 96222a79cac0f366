"""Join ordering in the sequential evaluator (SequentialEngine).

``_plan_seq`` reorders only maximal contiguous runs of ``Test`` parts
inside a sequence: tests never fail for safety reasons, so such a run
is a conjunctive query whose answer set is order-independent.  Calls,
builtins, and negation are barriers the plan must never cross; updates
never reach this evaluator.  Pinned here: the answer-set
differential against ``join_order=False``, barrier respect, and the
``join.reorders`` / ``unify.attempts`` counters.
"""

from repro import SequentialEngine, parse_database, parse_goal, parse_program, select_engine
from repro.obs import Instrumentation, instrumented


def canon(solutions):
    return sorted(
        (
            tuple(sorted((str(v), str(t)) for v, t in sol.bindings.items())),
            sol.database,
        )
        for sol in solutions
    )


#: ``pair`` is wide (30 facts), ``key`` a single fact; textually the
#: wide scan comes first, so the planner's win is large and measurable.
SKEWED = "pick(X) <- pair(X, Y) * key(X).\n"
SKEWED_DB = (
    " ".join("pair(a%d, b%d)." % (i, i) for i in range(30)) + " key(a7)."
)


def run(text, goal, db_text, **kw):
    engine = SequentialEngine(parse_program(text), **kw)
    inst = Instrumentation.create()
    with instrumented(inst):
        solutions = list(
            engine.solve(parse_goal(goal), parse_database(db_text))
        )
    return solutions, inst.metrics


class TestDifferential:
    def test_skewed_run_answers_are_plan_independent(self):
        ordered, on = run(SKEWED, "pick(X)", SKEWED_DB)
        textual, off = run(SKEWED, "pick(X)", SKEWED_DB, join_order=False)
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1
        assert on.counter("join.reorders") == 1
        assert off.counter("join.reorders") == 0
        # The planned run probes ``key`` first and reaches ``pair`` with
        # X bound; the textual run fans out over all 30 pairs.
        assert on.counter("unify.attempts") * 2 <= off.counter(
            "unify.attempts"
        )

    def test_tabled_recursion_is_plan_independent(self):
        text = """
        walk(X, Y) <- edge(X, Y) * goal(Y).
        walk(X, Y) <- edge(X, Z) * walk(Z, Y).
        """
        db = "edge(a, b). edge(b, c). edge(c, d). goal(c). goal(d)."
        ordered, _ = run(text, "walk(a, Y)", db)
        textual, _ = run(text, "walk(a, Y)", db, join_order=False)
        assert canon(ordered) == canon(textual)
        assert ordered


class TestBarriers:
    def test_tests_never_cross_an_update(self):
        # ``q(X)`` only holds after the insert; a planner that hoisted
        # the empty (maximally selective) ``q`` test over the barrier
        # would lose the solution.  A goal that updates runs on the
        # interpreter, in textual order, and never meets the planner.
        engine = select_engine(parse_program("t(X) <- p(X) * ins.q(X) * q(X)."))
        goal = parse_goal("t(X)")
        assert engine.route(goal) is engine.interpreter
        assert len(list(engine.solve(goal, parse_database("p(a).")))) == 1

    def test_tests_never_cross_negation(self):
        # The run before ``not q(X)`` binds X; the run after it reads a
        # different predicate.  Moving either across the negation would
        # evaluate it unbound or against the wrong bindings.
        text = "t(X) <- p(X) * not q(X) * r(X)."
        ordered, _ = run(text, "t(X)", "p(a). p(b). q(b). r(a). r(b).")
        textual, _ = run(
            text, "t(X)", "p(a). p(b). q(b). r(a). r(b).", join_order=False
        )
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1

    def test_tests_never_cross_a_builtin(self):
        # The builtin raises SafetyError on unbound input, so the test
        # run binding X must stay ahead of it.
        text = "t(X, Y) <- wide(Z) * n(X) * Y is X + 1 * m(Y)."
        db = "wide(w1). wide(w2). n(1). m(2)."
        ordered, _ = run(text, "t(X, Y)", db)
        textual, _ = run(text, "t(X, Y)", db, join_order=False)
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1

    def test_single_test_runs_are_left_alone(self):
        # Nothing to reorder: the counter must stay silent.
        _, metrics = run(
            "t <- p(X) * not q(X) * r(X).", "t", "p(a). r(a)."
        )
        assert metrics.counter("join.reorders") == 0
