"""Tests for the engine façade: routing programs to evaluators."""

import pytest

from repro import (
    Database,
    Interpreter,
    SearchBudgetExceeded,
    Sublanguage,
    UnsupportedProgramError,
    Variable,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.datalog.reader import DatalogReader
from repro.obs import Instrumentation, instrumented


class TestRouting:
    def test_query_only_routes_to_tabled(self, tc_program):
        eng = select_engine(tc_program)
        assert eng.sublanguage is Sublanguage.QUERY_ONLY
        assert isinstance(eng.backend, DatalogReader)
        assert eng.decidable

    def test_nonrecursive_routes_by_concurrency(self):
        # Nonrecursive TD has no evaluator of its own: a goal that
        # updates runs on the tabled interpreter, with or without |.
        # Either way the façade reports the paper's classification.
        eng = select_engine(parse_program("p <- q(X) * ins.r(X)."))
        assert eng.sublanguage is Sublanguage.NONRECURSIVE
        assert eng.decidable
        assert isinstance(eng.backend, Interpreter)
        assert eng.backend is eng.interpreter
        eng = select_engine(parse_program("p <- ins.a | ins.b."))
        assert eng.sublanguage is Sublanguage.NONRECURSIVE
        assert eng.decidable
        assert isinstance(eng.backend, Interpreter)
        # A | in the goal alone is enough.
        eng = select_engine(parse_program("m(X) <- ins.k(X)."), "m(a) | m(b)")
        assert eng.sublanguage is Sublanguage.NONRECURSIVE
        assert isinstance(eng.backend, Interpreter)

    def test_goalless_engine_answers_concurrent_goal(self):
        # Routing is per goal: an engine built without one sends a
        # later | goal to its interpreter.
        eng = select_engine(parse_program("m(X) <- ins.k(X)."))
        (sol,) = eng.solve("m(a) | m(b)", Database())
        assert sol.database == parse_database("k(a). k(b).")
        assert eng.route(parse_goal("m(a) | m(b)")) is eng.interpreter

    def test_read_on_updating_program_runs_on_sequential_engine(self):
        # ``balance(a, B)`` is one tuple test, so it runs on the reader
        # even though ``transfer`` updates.
        eng = select_engine(parse_program(
            "transfer(F, T, A) <- balance(F, B) * B >= A * del.balance(F, B)"
            " * N is B - A * ins.balance(F, N) * ins.paid(T, A)."
        ))
        db = parse_database("balance(a, 10).")
        assert eng.backend is eng.interpreter
        assert eng.route(parse_goal("balance(a, B)")) is eng.reader
        assert isinstance(eng.reader, DatalogReader)
        inst = Instrumentation.create()
        with instrumented(inst):
            (sol,) = eng.solve("balance(a, B)", db)
        assert str(sol.bindings[Variable("B")]) == "10"
        assert inst.metrics.info["engine.backend"] == "DatalogReader"
        with instrumented(inst):
            assert eng.succeeds("transfer(a, b, 3)", db)
        assert inst.metrics.info["engine.backend"] == "Interpreter"

    def test_routed_read_fails_on_bad_arithmetic_as_the_interpreter_does(self):
        # Builtins have no Datalog translation, so a read through one
        # runs on the interpreter: ``a + 1`` fails the branch, and so
        # does a builtin whose variable nothing binds.
        program = parse_program("inc(Y) <- p(X) * Y is X + 1.\nbad(Y) <- Y is X + 1.")
        db = parse_database("p(a).")
        eng = select_engine(program, "inc(Y)")
        assert eng.route(parse_goal("inc(Y)")) is eng.interpreter
        assert list(eng.solve("inc(Y)", db)) == []
        assert list(eng.solve("bad(Y)", db)) == []

    def test_sequential_engine_rejects_update_goal(self):
        # The reader serves one test or call whose rules translate; it
        # rejects an update, a conjunction and a `|` goal.
        program = parse_program("p <- q(X) * ins.r(X).\nw(X) <- q(X).")
        db = parse_database("q(a).")
        reader = DatalogReader(program)
        for goal in ("p", "w(X) * ins.r(X)", "w(X) * q(X)", "w(X) | w(X)"):
            assert not reader.serves(parse_goal(goal))
            with pytest.raises(UnsupportedProgramError):
                list(reader.solve(goal, db))
        assert len(list(reader.solve("w(X)", db))) == 1
        assert len(list(reader.solve("q(X)", db))) == 1

    def test_every_update_entry_runs_on_the_interpreter(self):
        # solve, succeeds, final_databases, simulate and resume of a
        # |-free goal that updates all run on the engine's interpreter,
        # on an engine built with or without the goal.
        program = parse_program("p <- q(X) * ins.r(X).")
        db = parse_database("q(a). q(b).")
        for eng in (select_engine(program), select_engine(program, "p")):
            assert eng.route(parse_goal("p")) is eng.interpreter
            inst = Instrumentation.create()
            with instrumented(inst):
                assert len(list(eng.solve("p", db))) == 2
                assert eng.succeeds("p", db)
                assert len(eng.final_databases("p", db)) == 2
                assert eng.simulate("p", db) is not None
            assert inst.metrics.info["engine.backend"] == "Interpreter"
            assert inst.metrics.counter("table.misses") > 0
        eng = select_engine(program, max_configs=1)
        with pytest.raises(SearchBudgetExceeded) as info:
            list(eng.solve("p", db))
        eng = select_engine(program)
        assert len(list(eng.resume(info.value.checkpoint))) == 2

    def test_sequential_routes_to_tabled(self):
        # Sequential TD that updates runs on the tabled interpreter.
        eng = select_engine(parse_program("p <- p * ins.x.\np <- del.go."))
        assert eng.sublanguage is Sublanguage.SEQUENTIAL
        assert isinstance(eng.backend, Interpreter)
        assert eng.backend.tabling

    def test_fully_bounded_routes_to_interpreter(self):
        prog = parse_program(
            "drain <- item(X) * del.item(X) * drain.\ndrain <- not item(_)."
        )
        eng = select_engine(prog)
        assert eng.sublanguage is Sublanguage.FULLY_BOUNDED
        assert isinstance(eng.backend, Interpreter)
        assert eng.decidable

    def test_full_td_routes_to_interpreter(self, simulate_program):
        eng = select_engine(simulate_program)
        assert eng.sublanguage is Sublanguage.FULL
        assert isinstance(eng.backend, Interpreter)
        assert not eng.decidable

    def test_goal_affects_routing(self, tc_program):
        # A query-only program stays query-only...
        assert select_engine(tc_program).sublanguage is Sublanguage.QUERY_ONLY
        # ...but an updating goal moves the combination up the map
        # (tail-recursive + insert => fully bounded, not query-only).
        eng = select_engine(tc_program, "path(a, X) * ins.found(X)")
        assert eng.sublanguage is Sublanguage.FULLY_BOUNDED

    def test_goal_level_concurrency_stays_bounded(self):
        # A fixed number of concurrent tail-recursive processes in the
        # *goal* does not grow with recursion: still fully bounded.
        prog = parse_program("p <- ins.x * del.x * p.\np <- done.")
        assert select_engine(prog, "p | p").sublanguage is Sublanguage.FULLY_BOUNDED


class TestUniformAPI:
    def test_string_goals_accepted(self, tc_program, chain_db):
        eng = select_engine(tc_program)
        assert eng.succeeds("path(a, d)", chain_db)
        assert not eng.succeeds("path(d, a)", chain_db)

    def test_solve_and_final_databases(self):
        eng = select_engine(parse_program("t <- q(X) * ins.r(X)."))
        db = parse_database("q(a). q(b).")
        finals = eng.final_databases("t", db)
        assert len(finals) == 2

    def test_simulate_works_for_analytic_backends(self, tc_program, chain_db):
        # simulation is small-step; the façade constructs an interpreter
        eng = select_engine(tc_program)
        exe = eng.simulate("path(a, d)", chain_db)
        assert exe is not None
        assert any("e(" in ev for ev in exe.events)

    def test_all_backends_agree(self):
        # one program forced through each evaluator explicitly and
        # through the façade: the update goal on the tabled and the
        # naive interpreter, the read on the sequential evaluator too
        prog = parse_program("t <- q(X) * not r(X) * ins.r(X).\nu(X) <- q(X) * not r(X).")
        db = parse_database("q(a). q(b). r(b).")
        for text, engines in (
            ("t", (Interpreter(prog), Interpreter(prog, tabling=False))),
            ("u(X)", (Interpreter(prog), DatalogReader(prog))),
        ):
            goal = parse_goal(text)
            finals = [e.final_databases(goal, db) for e in engines]
            finals.append(select_engine(prog, goal).final_databases(goal, db))
            assert finals[0] == finals[1] == finals[2]


class TestFacadeOptions:
    """``max_configs`` and ``tabling`` reach every interpreter the
    façade builds: the backend, and the one behind ``simulate``."""

    BOTH = "both <- left | right. left <- ins.l * ins.l2. right <- ins.r * ins.r2."

    def test_max_configs_bounds_concurrent_nonrecursive_search(self):
        eng = select_engine(parse_program(self.BOTH), "both", max_configs=3)
        with pytest.raises(SearchBudgetExceeded):
            list(eng.solve("both", Database()))

    def test_tabling_off_reaches_concurrent_nonrecursive_backend(self):
        eng = select_engine(parse_program(self.BOTH), "both", tabling=False)
        assert isinstance(eng.backend, Interpreter)
        assert eng.backend.tabling is False

    def test_simulate_over_analytic_backend_honours_options(self, tc_program, chain_db):
        eng = select_engine(tc_program, max_configs=2, tabling=False)
        assert isinstance(eng.backend, DatalogReader)
        oracle = Interpreter(tc_program, max_configs=2, tabling=False)
        with pytest.raises(SearchBudgetExceeded):
            oracle.simulate("path(a, d)", chain_db)
        with pytest.raises(SearchBudgetExceeded):
            eng.simulate("path(a, d)", chain_db)


class TestUnifiedGoalAPI:
    """Every solve surface accepts str | Formula via the shared coercer."""

    def test_as_goal_coerces_and_rejects(self):
        from repro import Formula, as_goal

        g = as_goal("p(X) * q(X)")
        assert isinstance(g, Formula)
        assert as_goal(g) is g
        with pytest.raises(TypeError):
            as_goal(42)

    def test_interpreter_accepts_string_goals(self, tc_program, chain_db):
        interp = Interpreter(tc_program)
        sols = list(interp.solve("path(a, X)", chain_db))
        assert len(sols) == 3
        assert interp.succeeds("path(a, d)", chain_db)
        assert len(interp.final_databases("path(a, d)", chain_db)) == 1
        assert list(interp.run("path(a, d)", chain_db))

    def test_interpreter_simulate_accepts_string_goal(self, tc_program, chain_db):
        exe = Interpreter(tc_program).simulate("path(a, d)", chain_db, seed=3)
        assert exe is not None

    def test_sequential_engine_accepts_string_goals(self, tc_program, chain_db):
        assert len(list(DatalogReader(tc_program).solve("path(a, X)", chain_db))) == 3

    def test_nonrec_engine_accepts_string_goals(self):
        eng = select_engine(parse_program("t <- q(X) * ins.r(X)."))
        assert eng.sublanguage is Sublanguage.NONRECURSIVE
        assert len(list(eng.solve("t", parse_database("q(a). q(b).")))) == 2

    def test_blessed_module_level_solve(self, tc_program, chain_db):
        from repro import solve

        sols = list(solve(tc_program, "path(a, X)", chain_db))
        assert len(sols) == 3

    def test_blessed_solve_accepts_formula(self, tc_program, chain_db):
        from repro import solve

        sols = list(solve(tc_program, parse_goal("path(a, X)"), chain_db))
        assert len(sols) == 3


class TestDeprecationShims:
    """The positional call shapes deprecated by the keyword-only API are
    gone: ``seed``/``max_depth``/``max_configs`` are keyword-only."""

    def test_select_engine_keyword_max_configs_is_silent(self, tc_program):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            select_engine(tc_program, "path(a, d)", max_configs=10_000)

    def test_too_many_positionals_still_a_type_error(self, tc_program, chain_db):
        with pytest.raises(TypeError):
            Interpreter(tc_program).simulate(parse_goal("path(a, d)"), chain_db, 3)
        with pytest.raises(TypeError):
            select_engine(tc_program).simulate("path(a, d)", chain_db, 3)
        with pytest.raises(TypeError):
            select_engine(tc_program, "path(a, d)", 10_000)
