"""Tests for the full-TD interpreter: queries, updates, concurrency,
communication through the database, recursion, budgets."""

import pytest

import repro.core.interpreter as interpreter_module
import repro.core.transitions as transitions_module
from repro import (
    Database,
    Interpreter,
    SearchBudgetExceeded,
    parse_database,
    parse_goal,
    parse_program,
)
from repro.core.errors import SafetyError
from repro.obs import instrumented
from repro.obs.provenance import ProvenanceRecorder, recording
from repro.store import using_store_provider


def run_all(program_text, goal_text, db_text="", **kw):
    interp = Interpreter(parse_program(program_text), **kw)
    return list(interp.solve(parse_goal(goal_text), parse_database(db_text)))


class TestElementaryOperations:
    def test_tuple_test_success(self):
        sols = run_all("ok <- p(a).", "ok", "p(a).")
        assert len(sols) == 1

    def test_tuple_test_failure(self):
        assert run_all("ok <- p(a).", "ok", "p(b).") == []

    def test_test_binds_goal_variable(self):
        sols = run_all("", "p(X)", "p(a). p(b).")
        values = sorted(str(t) for s in sols for t in s.bindings.values())
        assert values == ["a", "b"]

    def test_insert(self):
        (sol,) = run_all("add <- ins.p(a).", "add")
        assert parse_database("p(a).") == sol.database

    def test_delete(self):
        (sol,) = run_all("rm <- del.p(a).", "rm", "p(a). p(b).")
        assert sol.database == parse_database("p(b).")

    def test_delete_absent_is_noop(self):
        (sol,) = run_all("rm <- del.p(zz).", "rm", "p(a).")
        assert sol.database == parse_database("p(a).")

    def test_negation_as_absence(self):
        assert run_all("ok <- not p(a).", "ok", "p(a).") == []
        assert len(run_all("ok <- not p(a).", "ok", "p(b).")) == 1

    def test_builtin_guard(self):
        prog = "big(X) <- val(X, V) * V > 10."
        sols = run_all(prog, "big(X)", "val(a, 5). val(b, 15).")
        assert [str(next(iter(s.bindings.values()))) for s in sols] == ["b"]

    def test_unsafe_insert_blocks(self):
        # An unbound ins cannot fire: with no sibling to bind X the goal
        # simply fails, and the static analysis flags the rule.
        from repro import analyze, parse_program as pp

        assert run_all("bad <- ins.p(X).", "bad") == []
        warnings = analyze(pp("bad <- ins.p(X).")).safety_warnings
        assert any("ins.p(X)" in w for w in warnings)


class TestSequentialComposition:
    def test_order_matters(self):
        # test before insert fails; insert before test succeeds
        assert run_all("ok <- p(a) * ins.p(a).", "ok") == []
        assert len(run_all("ok <- ins.p(a) * p(a).", "ok")) == 1

    def test_intermediate_states_visible(self):
        (sol,) = run_all(
            "swap <- del.cur(a) * ins.cur(b) * cur(X) * ins.seen(X).",
            "swap",
            "cur(a).",
        )
        assert sol.database == parse_database("cur(b). seen(b).")

    def test_failure_leaves_no_trace(self):
        # the transaction aborts: no partial effects observable
        interp = Interpreter(parse_program("t <- ins.p(a) * q(zz)."))
        db = parse_database("")
        assert not interp.succeeds(parse_goal("t"), db)
        assert db == parse_database("")


class TestConcurrency:
    def test_interleaving_final_states(self):
        # (del.a then del.b) | (ins.c then ins.d) from {a,b} to {c,d}
        prog = """
        p <- del.a * del.b.
        q <- ins.c * ins.d.
        """
        sols = run_all(prog, "p | q", "a. b.")
        finals = {s.database for s in sols}
        assert parse_database("c. d.") in finals

    def test_communication_through_database(self):
        # the paper's core point: one process reads what another writes
        prog = """
        prod <- ins.msg(hello).
        cons <- msg(X) * ins.got(X).
        """
        sols = run_all(prog, "prod | cons")
        from repro import atom
        assert any(atom("got", "hello") in s.database for s in sols)

    def test_mutual_communication_requires_interleaving(self):
        # Neither serial order works; only a true interleaving commits.
        prog = """
        a <- q(x) * ins.p(x).
        b <- ins.q(x) * p(x).
        """
        sols = run_all(prog, "a | b")
        assert len(sols) >= 1

    def test_concurrent_branches_share_variables(self):
        prog = """
        left(X) <- val(X).
        right(X) <- ins.out(X).
        """
        sols = run_all(prog, "left(X) | right(X)", "val(a).")
        from repro import atom
        assert len(sols) == 1
        assert atom("out", "a") in sols[0].database

    def test_three_way_interleaving(self):
        prog = """
        s1 <- t1(X) * ins.t2(X).
        s2 <- t2(X) * ins.t3(X).
        s3 <- t3(X) * ins.done(X).
        """
        sols = run_all(prog, "s3 | s1 | s2", "t1(v).")
        assert any(str(f) == "done(v)" for s in sols for f in s.database.facts("done"))


class TestRecursion:
    def test_tail_recursive_drain(self):
        prog = """
        drain <- item(X) * del.item(X) * drain.
        drain <- not item(_).
        """
        (sol,) = run_all(prog, "drain", "item(a). item(b). item(c).")
        assert sol.database == Database()

    def test_recursion_through_concurrency(self, simulate_program):
        interp = Interpreter(simulate_program)
        db = parse_database("workitem(w1). workitem(w2). workitem(w3).")
        finals = interp.final_databases(parse_goal("simulate"), db)
        assert parse_database("done(w1). done(w2). done(w3).") in finals

    def test_budget_exceeded_on_divergence(self):
        # Non-tail recursion accumulates an ever-growing continuation:
        # the configuration space is infinite and the naive BFS hits its
        # budget (tabling=False -- the table proves this failure finitely,
        # see the companion test below).
        prog = "grow <- grow * ins.x."
        interp = Interpreter(parse_program(prog), max_configs=500, tabling=False)
        with pytest.raises(SearchBudgetExceeded):
            interp.succeeds(parse_goal("grow"), Database())

    def test_tabling_proves_divergent_failure_finitely(self):
        # The same program under tabling: the recursive call consumes
        # from its own (empty) table entry, the generator reaches a
        # fixpoint with zero answers, and the search terminates with a
        # proof of failure instead of exhausting the budget.
        prog = "grow <- grow * ins.x."
        interp = Interpreter(parse_program(prog), max_configs=500)
        assert not interp.succeeds(parse_goal("grow"), Database())

    def test_finite_cycle_terminates_as_failure(self):
        # Tail recursion with no exit revisits the same configuration:
        # the space is finite, so BFS proves failure instead of hitting
        # the budget -- commitment requires termination.
        prog = "spin <- ins.s * del.s * spin."
        interp = Interpreter(parse_program(prog), max_configs=10_000)
        assert not interp.succeeds(parse_goal("spin"), Database())

    def test_bfs_fair_despite_divergent_branch(self):
        # one rule diverges, the other commits: BFS must find the commit.
        prog = """
        try <- diverge.
        try <- ins.ok.
        diverge <- ins.x * del.x * diverge.
        """
        interp = Interpreter(parse_program(prog), max_configs=50_000)
        assert interp.succeeds(parse_goal("try"), Database())


class TestSolutionEnumeration:
    def test_distinct_solutions_only(self):
        prog = "pick <- item(X) * ins.chosen(X)."
        sols = run_all(prog, "pick", "item(a). item(b).")
        assert len(sols) == 2

    def test_answers_and_finals_paired(self):
        prog = "take(X) <- item(X) * del.item(X)."
        sols = run_all(prog, "take(X)", "item(a). item(b).")
        from repro import atom
        for sol in sols:
            taken = str(next(iter(sol.bindings.values())))
            assert atom("item", taken) not in sol.database

    def test_run_attaches_traces(self):
        interp = Interpreter(parse_program("t <- ins.p(a) * del.p(a)."))
        (execution,) = interp.run(parse_goal("t"), Database())
        assert "ins.p(a)" in execution.events
        assert "del.p(a)" in execution.events


class TestSimulate:
    def test_simulate_returns_none_on_failure(self):
        interp = Interpreter(parse_program("t <- impossible(x)."))
        assert interp.simulate(parse_goal("t"), Database()) is None

    def test_simulate_deterministic_without_seed(self):
        interp = Interpreter(parse_program("t <- item(X) * ins.out(X)."))
        db = parse_database("item(a). item(b).")
        e1 = interp.simulate(parse_goal("t"), db)
        e2 = interp.simulate(parse_goal("t"), db)
        assert e1.events == e2.events

    def test_simulate_seed_reproducible(self):
        prog = parse_program("t <- item(X) * ins.out(X).")
        db = parse_database("item(a). item(b). item(c).")
        runs = [Interpreter(prog).simulate(parse_goal("t"), db, seed=99) for _ in range(2)]
        assert runs[0].events == runs[1].events

    def test_simulate_agrees_with_solve_on_success(self, simulate_program):
        interp = Interpreter(simulate_program)
        db = parse_database("workitem(w1). workitem(w2).")
        exe = interp.simulate(parse_goal("simulate"), db)
        assert exe is not None
        assert exe.database in interp.final_databases(parse_goal("simulate"), db)


class TestMixedTypeComparison:
    """``a < 3`` does not hold: the comparison step is not enabled and
    the dead check prunes its branch, instead of a ``TypeError``
    escaping the search."""

    PROGRAM, GOAL, FACTS = "p(X) <- x(X) * X < 3.", "p(Y)", "x(a). x(1)."

    def test_bfs(self):
        (sol,) = run_all(self.PROGRAM, self.GOAL, self.FACTS)
        assert {str(v): str(t) for v, t in sol.bindings.items()} == {"Y": "1"}

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_dfs(self, seed):
        interp = Interpreter(parse_program(self.PROGRAM))
        exe = interp.simulate(parse_goal(self.GOAL), parse_database(self.FACTS), seed=seed)
        assert {str(v): str(t) for v, t in exe.bindings.items()} == {"Y": "1"}


class TestFailedMemo:
    """The DFS failed-state memo: states proven to fail are pruned when
    another interleaving reaches them, and a run that never backtracks
    never computes a canonical key."""

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_failed_states_are_pruned(self, seed):
        # Every interleaving of the three inserts ends in the same state,
        # where c(1) fails: after the first failure, each other schedule
        # reaching a failed state is cut off by the memo.
        interp = Interpreter(parse_program("r <- ins.c(1)."), por=False)
        rec = ProvenanceRecorder()
        goal = parse_goal("(ins.a(1) | ins.b(1) | ins.e(1)) * c(1)")
        with instrumented() as inst, recording(rec):
            assert interp.simulate(goal, Database(), seed=seed) is None
        assert inst.metrics.counter("search.configs_expanded") == 8
        pruned = [n for n in rec.nodes if n.witness == {"where": "failed-memo"}]
        assert len(pruned) == 5

    def test_no_key_without_backtracking(self, monkeypatch):
        calls = []
        original = interpreter_module.canonical_key

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(interpreter_module, "canonical_key", counted)
        interp = Interpreter(
            parse_program(
                "p <- a(X) * del.a(X) * ins.b(X).\nq <- ins.c(3) * ins.d(4)."
            )
        )
        db = parse_database("a(1). a(2).")
        assert interp.simulate(parse_goal("p | q"), db, seed=0) is not None
        assert calls == []


class TestResidualsOnDemand:
    """A DFS step's successor process, trace action and updated state are
    built only for a step the search takes: dead successors
    (``avail(1)``/``avail(2)`` leave ``ok(A)`` unsatisfiable), the
    deferral check and the steps a seeded run shuffles but never takes
    are judged on the lazy step instead."""

    TRACES = {
        None: ["call t", "avail(3)", "ok(3)", "ins.done(3)", "ins.z(1)"],
        0: ["call t", "avail(3)", "ins.z(1)", "ok(3)", "ins.done(3)"],
        1: ["ins.z(1)", "call t", "avail(3)", "ok(3)", "ins.done(3)"],
    }

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_one_residual_per_taken_step(self, seed, monkeypatch):
        successors = self._count(monkeypatch, interpreter_module, "successor")
        actions = self._count(monkeypatch, transitions_module, "Action")
        derived = self._count(monkeypatch, Database, "_derive")
        interp = Interpreter(
            parse_program("t <- avail(A) * ok(A) * ins.done(A)."), por=False
        )
        # No ambient store: seeding one and committing to it would
        # derive states of its own, which are not the search's.
        with using_store_provider(None):
            exe = interp.simulate(
                parse_goal("t | ins.z(1)"),
                parse_database("avail(1). avail(2). avail(3). ok(3)."),
                seed=seed,
            )
        assert [str(a) for a in exe.trace] == self.TRACES[seed]
        assert len(successors) == len(actions) == len(exe.trace) == 5
        # One updated state per update taken: ``ins.done(3)``, ``ins.z(1)``.
        assert len(derived) == 2
