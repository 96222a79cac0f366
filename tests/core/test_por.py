"""Unit tests for the partial-order reducer (repro.core.por).

The solution-level differential lives in ``test_transitions_diff.py``;
here we pin the machinery itself: footprint computation, the conflict
relation, ample-branch selection, the toggle, and the headline
reduction on the ``conc_fanout`` profile workload.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    SearchBudgetExceeded,
    parse_database,
    parse_goal,
    parse_program,
)
from repro.core.por import (
    EMPTY_FOOTPRINT,
    PartialOrderReducer,
    _conflicts,
    footprint,
    frontier_footprint,
)
from repro.obs import Instrumentation, instrumented


def fp(reads=(), ins=(), dels=()):
    return (frozenset(reads), frozenset(ins), frozenset(dels))


class TestFootprints:
    def test_signature_closure_follows_calls(self):
        program = parse_program(
            """
            top <- middle * ins.log(done).
            middle <- item(X) * del.item(X).
            """
        )
        fps = program.signature_footprints()
        assert fps[("middle", 0)] == fp(reads=["item"], dels=["item"])
        # top's closure includes everything middle may do.
        assert fps[("top", 0)] == fp(
            reads=["item"], ins=["log"], dels=["item"]
        )
        # The program-wide update footprint is the closures' union.
        assert program.update_footprint() == (frozenset({"log"}), frozenset({"item"}))

    def test_closure_is_cached_on_the_program(self):
        program = parse_program("p <- ins.a.")
        assert program.signature_footprints() is program.signature_footprints()

    def test_footprint_of_negation_is_a_read(self):
        program = parse_program("p <- not q(_).")
        body = program.rules[0].body
        assert footprint(program, body) == fp(reads=["q"])

    def test_recursive_closure_reaches_fixpoint(self):
        program = parse_program(
            """
            even <- done.
            even <- tick(T) * del.tick(T) * odd.
            odd <- tick(T) * del.tick(T) * even.
            """
        )
        fps = program.signature_footprints()
        assert fps[("even", 0)] == fps[("odd", 0)] == fp(
            reads=["done", "tick"], dels=["tick"]
        )

    def test_frontier_of_seq_is_its_head(self):
        program = parse_program("p <- a(X) * ins.b(X).")
        body = program.rules[0].body
        assert frontier_footprint(program, body) == fp(reads=["a"])
        assert footprint(program, body) == fp(reads=["a"], ins=["b"])

    def test_frontier_of_call_is_empty(self):
        # Unfolding a call touches no data: rule choice is preserved by
        # the reduction, so an ample call branch still explores every
        # rule.
        program = parse_program("p <- q.\nq <- ins.a.")
        body = program.rules[0].body  # Call(q)
        assert frontier_footprint(program, body) == EMPTY_FOOTPRINT
        assert footprint(program, body) == fp(ins=["a"])

    def test_frontier_of_iso_is_full_body_closure(self):
        program = parse_program("p <- iso(a(X) * ins.b(X)).")
        body = program.rules[0].body
        assert frontier_footprint(program, body) == fp(reads=["a"], ins=["b"])


class TestConflicts:
    def test_inserts_commute(self):
        assert not _conflicts(fp(ins=["a"]), fp(ins=["a"]))

    def test_deletes_commute(self):
        assert not _conflicts(fp(dels=["a"]), fp(dels=["a"]))

    def test_insert_vs_delete_conflicts(self):
        assert _conflicts(fp(ins=["a"]), fp(dels=["a"]))
        assert _conflicts(fp(dels=["a"]), fp(ins=["a"]))

    def test_read_vs_write_conflicts_both_directions(self):
        assert _conflicts(fp(reads=["a"]), fp(ins=["a"]))
        assert _conflicts(fp(reads=["a"]), fp(dels=["a"]))
        assert _conflicts(fp(ins=["a"]), fp(reads=["a"]))

    def test_disjoint_predicates_do_not_conflict(self):
        assert not _conflicts(fp(reads=["a"], ins=["b"]), fp(reads=["c"], dels=["d"]))


class TestAmpleSelection:
    def _ample(self, program, goal_text):
        goal = program.resolve_goal(parse_goal(goal_text))
        reducer = PartialOrderReducer(program)
        idx, _ = reducer._ample_index(goal.parts, EMPTY_FOOTPRINT, frozenset())
        return idx

    def test_insert_only_branch_is_ample(self):
        program = parse_program("p <- ins.a.\nq <- b(X) * del.b(X) * q.\nq <- not b(_).")
        assert self._ample(program, "p | q") == 0

    def test_frontier_conflict_blocks_ampleness(self):
        # Left's first step deletes what right reads, and right's first
        # step reads what left deletes: neither frontier is independent,
        # so every interleaving is expanded.
        program = parse_program("dummy <- ins.unused.")
        assert (
            self._ample(program, "(del.b(m) * ins.a(m)) | (b(Y) * ins.c(Y))")
            is None
        )

    def test_shared_variable_blocks_ampleness(self):
        program = parse_program("dummy <- ins.unused.")
        assert self._ample(program, "ins.a(Y) | b(Y)") is None

    def test_bind_free_frontier_rescues_shared_variable(self):
        # The branches share X, but the left branch's *next* step is a
        # ground test: no binding can flow in either direction through
        # it, so the dynamic re-check keeps the ample decision that the
        # all-or-nothing variable test used to throw away.
        program = parse_program("dummy <- ins.unused.")
        goal = program.resolve_goal(parse_goal("(a(m) * ins.r(X)) | b(X)"))
        reducer = PartialOrderReducer(program)
        idx, rescued = reducer._ample_index(
            goal.parts, EMPTY_FOOTPRINT, frozenset()
        )
        assert idx == 0 and rescued

    def test_rescued_decision_counts_and_agrees_with_full_expansion(self):
        # End-to-end: the rescued ample set must bump the counter and
        # lose no solutions against the unreduced search.
        program = parse_program(
            "go(X) <- (a(m) * ins.r(X)) | (b(X) * ins.s(X))."
        )
        db = parse_database("a(m). b(k). b(l).")
        goal = parse_goal("go(X)")

        def solutions(**kw):
            interp = Interpreter(program, **kw)
            return {
                (
                    tuple(sorted((str(v), str(t)) for v, t in s.bindings.items())),
                    s.database,
                )
                for s in interp.solve(goal, db)
            }

        inst = Instrumentation.create()
        with instrumented(inst):
            reduced = solutions()
        assert inst.metrics.counter("por.recheck_rescued") > 0
        assert reduced == solutions(por=False)

    def test_leftmost_independent_branch_wins(self):
        program = parse_program("dummy <- ins.unused.")
        # Two insert-only writers conflict with a reader of both
        # predicates, so nothing is ample ...
        assert self._ample(program, "ins.a | ins.b | (a * b)") is None
        # ... but without the reader the leftmost writer is.
        assert self._ample(program, "ins.a | ins.b") == 0

    def test_bare_call_branch_is_trivially_ample(self):
        # Unfolding touches no data, so a call branch is always ample
        # (modulo variable sharing); any read/write conflict surfaces
        # one configuration later, after the rule body is exposed.
        program = parse_program("p <- b(X) * ins.a(X).\nq <- b(Y) * del.b(Y).")
        assert self._ample(program, "p | q") == 0
        # Once unfolded, the left branch's frontier reads ``b`` which the
        # sibling deletes, so it is no longer ample; the right branch's
        # frontier is a pure read against an insert-only sibling closure
        # and takes over as the representative.
        assert (
            self._ample(program, "(b(X) * ins.a(X)) | (b(Y) * del.b(Y))") == 1
        )


class TestReductionEndToEnd:
    def test_toggle_controls_reducer(self):
        program = parse_program("p <- ins.a.")
        assert Interpreter(program)._reducer is not None
        assert Interpreter(program, por=False)._reducer is None
        # Attached faults bypass the reducer even when por=True (the
        # chaos differential in test_transitions_diff.py runs it).
        class _Injector:
            def perturb(self, proc, db, steps):
                return steps

        interp = Interpreter(program, faults=_Injector())
        assert interp._reducer is not None
        assert interp.faults is not None

    def test_conc_fanout_reduced_at_least_2x(self):
        # The acceptance benchmark: on the conc_fanout profile workload
        # the reducer must cut both transition work and unification
        # fan-out by >= 2x (measured ~100x / ~86x; asserting the floor).
        from repro.obs.analyze import _FANOUT_TD

        db_text = "item(j1). item(j2). item(j3). item(j4). item(j5)."

        def measure(por):
            inst = Instrumentation.create()
            with instrumented(inst):
                interp = Interpreter(parse_program(_FANOUT_TD), por=por)
                sols = list(
                    interp.solve(parse_goal("spawn"), parse_database(db_text))
                )
            assert len(sols) == 1
            return sols[0].database, inst.metrics

        final_on, on = measure(True)
        final_off, off = measure(False)
        assert final_on == final_off
        assert off.counter("search.steps") >= 2 * on.counter("search.steps")
        assert off.counter("unify.attempts") >= 2 * on.counter("unify.attempts")
        assert on.counter("por.ample_configs") > 0
        assert on.counter("por.steps_pruned") > 0
        assert off.counter("por.ample_configs") == 0

    def test_forever_blocked_branch_prunes_finitely(self):
        # A branch nothing can ever unblock deadlocks the whole goal;
        # the reducer proves it and fails finitely, where the naive
        # enumeration chases the independent looping branch (whose
        # process tree grows without bound) into the budget.  ``init``
        # keeps ``gate`` statically insertable so the dead-config filter
        # cannot claim the credit.  (This is the small version of the
        # diverging counter machine in
        # tests/paper/test_complexity_claims.py.)
        text = """
        go <- init * (stuck | looper).
        init <- ins.gate(g) * del.gate(g).
        stuck <- gate(_).
        looper <- looper * looper.
        """
        program = parse_program(text)
        assert Interpreter(program, max_configs=500).succeeds("go", Database()) is False
        with pytest.raises(SearchBudgetExceeded):
            Interpreter(program, max_configs=500, por=False).succeeds(
                "go", Database()
            )

    def test_dfs_simulate_agrees_under_reduction(self):
        from repro.obs.analyze import _FANOUT_TD

        db = parse_database("item(j1). item(j2). item(j3).")
        on = Interpreter(parse_program(_FANOUT_TD)).simulate("spawn", db)
        off = Interpreter(parse_program(_FANOUT_TD), por=False).simulate("spawn", db)
        assert on is not None and off is not None
        assert on.database == off.database
