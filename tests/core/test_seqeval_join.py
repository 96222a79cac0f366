"""Join ordering on routed reads.

A read runs on the Datalog reader, whose seminaive passes order each
rule body's positive literals by selectivity and evaluate absence tests
last (``repro.datalog.engine._plan_body``).  That is sound because the
translation only accepts an absence test whose variables earlier tests
bind, and never a builtin or an update: those goals run on the
interpreter, in textual order.  Pinned here: the answer-set
differential against the naive interpreter's textual order, the
barriers, and the ``join.reorders`` / ``unify.attempts`` counters.
"""

from repro import Interpreter, parse_database, parse_goal, parse_program, select_engine
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


def run(text, goal, db_text, textual=False):
    """Solve on the routed engine, or with *textual*, on the naive
    interpreter (textual order, no tables)."""
    program = parse_program(text)
    engine = Interpreter(program, tabling=False) if textual else select_engine(program)
    inst = Instrumentation.create()
    with instrumented(inst):
        solutions = list(
            engine.solve(parse_goal(goal), parse_database(db_text))
        )
    return solutions, inst.metrics


class TestDifferential:
    def test_skewed_run_answers_are_plan_independent(self):
        ordered, on = run(SKEWED, "pick(X)", SKEWED_DB)
        textual, off = run(SKEWED, "pick(X)", SKEWED_DB, textual=True)
        assert on.info["engine.backend"] == "DatalogReader"
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1
        assert on.counter("join.reorders") >= 1
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
        textual, _ = run(text, "walk(a, Y)", db, textual=True)
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
        # ``p(X)`` binds X before ``not q(X)`` runs, so evaluating the
        # negation last changes nothing; an absence test before its
        # binder keeps the read on the interpreter.
        text = "t(X) <- p(X) * not q(X) * r(X)."
        ordered, metrics = run(text, "t(X)", "p(a). p(b). q(b). r(a). r(b).")
        textual, _ = run(
            text, "t(X)", "p(a). p(b). q(b). r(a). r(b).", textual=True
        )
        assert metrics.info["engine.backend"] == "DatalogReader"
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1

    def test_tests_never_cross_a_builtin(self):
        # A builtin needs its input bound where it runs: a read through
        # one stays on the interpreter, in textual order.
        text = "t(X, Y) <- wide(Z) * n(X) * Y is X + 1 * m(Y)."
        db = "wide(w1). wide(w2). n(1). m(2)."
        ordered, metrics = run(text, "t(X, Y)", db)
        textual, _ = run(text, "t(X, Y)", db, textual=True)
        assert metrics.info["engine.backend"] == "Interpreter"
        assert canon(ordered) == canon(textual)
        assert len(ordered) == 1

    def test_single_test_runs_are_left_alone(self):
        # Nothing to reorder: the counter must stay silent.
        _, metrics = run(
            "t <- p(X) * not q(X) * r(X).", "t", "p(a). r(a)."
        )
        assert metrics.counter("join.reorders") == 0
