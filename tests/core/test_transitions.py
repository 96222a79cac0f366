"""Tests for the small-step transition relation and its pruning helpers."""

import pytest

from repro import Database, Interpreter, parse_database, parse_goal, parse_program
from repro.core.formulas import Conc, Truth
from repro.core.terms import Constant, Variable
from repro.core.por import update_footprint
from repro.core.transitions import (
    canonical_key,
    dead_config,
    dead_step,
    enabled_steps,
    frontier_blocked,
    is_final,
)


def steps_of(prog_text, goal_text, db_text=""):
    prog = parse_program(prog_text)
    goal = prog.resolve_goal(parse_goal(goal_text))
    db = parse_database(db_text)

    def no_iso(body, db):  # pragma: no cover - not used in these tests
        return iter(())

    return prog, list(enabled_steps(prog, goal, db, no_iso))


class TestEnabledSteps:
    def test_truth_has_no_steps(self):
        prog, steps = steps_of("p <- q.", "true")
        assert steps == []
        assert is_final(Truth())

    def test_test_step_per_match(self):
        _, steps = steps_of("x <- y.", "p(X)", "p(a). p(b).")
        assert len(steps) == 2
        assert {str(s.action) for s in steps} == {"p(a)", "p(b)"}

    def test_failed_test_no_steps(self):
        _, steps = steps_of("x <- y.", "p(zz)", "p(a).")
        assert steps == []

    def test_seq_steps_only_first(self):
        _, steps = steps_of("x <- y.", "ins.a * ins.b")
        assert len(steps) == 1
        assert str(steps[0].action) == "ins.a"

    def test_conc_steps_all_branches(self):
        _, steps = steps_of("x <- y.", "ins.a | ins.b")
        assert {str(s.action) for s in steps} == {"ins.a", "ins.b"}

    def test_call_steps_one_per_rule(self):
        _, steps = steps_of("p <- ins.a.\np <- ins.b.", "p")
        assert len(steps) == 2
        assert all(s.action.kind == "call" for s in steps)

    def test_unbound_update_is_blocked(self):
        _, steps = steps_of("x <- y.", "ins.p(X)")
        assert steps == []

    def test_unbound_builtin_is_blocked(self):
        _, steps = steps_of("x <- y.", "X > 3")
        assert steps == []

    def test_neg_step_when_absent(self):
        _, steps = steps_of("x <- y.", "not p(a)", "p(b).")
        assert len(steps) == 1
        assert steps[0].action.kind == "neg"


class TestCanonicalKey:
    def test_invariant_under_renaming(self):
        prog = parse_program("x <- y.")
        g1 = prog.resolve_goal(parse_goal("p(A) * q(A, B)"))
        g2 = prog.resolve_goal(parse_goal("p(Z) * q(Z, W)"))
        assert canonical_key(g1) == canonical_key(g2)

    def test_distinguishes_sharing(self):
        prog = parse_program("x <- y.")
        shared = prog.resolve_goal(parse_goal("p(A) * q(A)"))
        distinct = prog.resolve_goal(parse_goal("p(A) * q(B)"))
        assert canonical_key(shared) != canonical_key(distinct)

    def test_conc_sorting_merges_branch_orders(self):
        prog = parse_program("x <- y.")
        g1 = prog.resolve_goal(parse_goal("ins.a | ins.b"))
        g2 = prog.resolve_goal(parse_goal("ins.b | ins.a"))
        assert canonical_key(g1, sort_conc=True) == canonical_key(g2, sort_conc=True)
        assert canonical_key(g1, sort_conc=False) != canonical_key(
            g2, sort_conc=False
        )

    def test_seq_order_matters(self):
        prog = parse_program("x <- y.")
        g1 = prog.resolve_goal(parse_goal("ins.a * ins.b"))
        g2 = prog.resolve_goal(parse_goal("ins.b * ins.a"))
        assert canonical_key(g1) != canonical_key(g2)

    def test_keys_are_hashable(self):
        prog = parse_program("x <- y.")
        g = prog.resolve_goal(parse_goal("iso(p(X) * 1 < 2) | del.q(a)"))
        assert hash(canonical_key(g)) is not None

    def test_conc_tie_between_shared_variable_branches(self):
        # Equal-shape branches whose skeletons tie: only the variable
        # pattern distinguishes orderings, and the key must not depend
        # on which order the branches were written in.
        prog = parse_program("x <- y.")
        g1 = prog.resolve_goal(parse_goal("p(X, Y) | p(Z, X)"))
        g2 = prog.resolve_goal(parse_goal("p(Z, X) | p(X, Y)"))
        assert canonical_key(g1) == canonical_key(g2)


class TestCanonicalKeyCaching:
    """Keys are cached per immutable node and shared across contexts."""

    def _goal(self, text):
        prog = parse_program("x <- y.")
        return prog.resolve_goal(parse_goal(text))

    def test_repeated_calls_return_equal_keys(self):
        for text in (
            "p(A) * q(A, B)",
            "ins.a | p(X) | iso(del.b * q(X))",
            "iso(iso(p(X) * q(X)))",
        ):
            g = self._goal(text)
            assert canonical_key(g) == canonical_key(g)
            assert canonical_key(g, sort_conc=False) == canonical_key(
                g, sort_conc=False
            )

    def test_nested_nodes_key_identically_in_and_out_of_context(self):
        # The same subformula keyed standalone and keyed as a child of a
        # larger nest must induce the same renaming classes: a seq/conc/
        # iso nest over renamed parts keys identically to the original.
        g1 = self._goal("iso(p(A) * (q(A) | r(B))) * s(B)")
        g2 = self._goal("iso(p(X) * (q(X) | r(Y))) * s(Y)")
        assert canonical_key(g1) == canonical_key(g2)
        assert canonical_key(g1, sort_conc=False) == canonical_key(
            g2, sort_conc=False
        )

    def test_cache_attribute_populated_once(self):
        g = self._goal("p(A) * q(A, B)")
        assert not hasattr(g, "_ckey_cache") or True  # may be pre-warmed
        first = canonical_key(g)
        cache = g._ckey_cache
        assert canonical_key(g) == first
        assert g._ckey_cache is cache

    def test_structure_sharing_reuses_child_keys(self):
        # apply_subst with a domain disjoint from a subformula returns
        # the *same* node, so its cached key pair is reused verbatim.
        from repro.core.formulas import apply_subst
        from repro.core.terms import Variable

        g = self._goal("p(A) * (q(B) | r(B))")
        canonical_key(g)  # warm every node's cache
        conc_part = g.parts[1]
        stepped = apply_subst(g, {Variable("A"): parse_goal("p(c)").atom.args[0]})
        assert stepped.parts[1] is conc_part


class TestUpdateFootprint:
    def test_collects_from_rules_and_goal(self):
        prog = parse_program("p <- ins.a * del.b.")
        ins, dels = update_footprint(prog, prog.resolve_goal(parse_goal("ins.c")))
        assert ins == {"a", "c"}
        assert dels == {"b"}


class TestDeadConfig:
    def _ctx(self, prog_text):
        prog = parse_program(prog_text)
        ins, dels = update_footprint(prog)
        return prog, ins, dels

    def test_test_on_never_inserted_pred_is_dead(self):
        prog, ins, dels = self._ctx("p <- static(a) * ins.out(a).")
        goal = prog.resolve_goal(parse_goal("static(zz) * ins.out(a)"))
        assert dead_config(goal, Database(), ins, dels)

    def test_test_on_insertable_pred_not_dead(self):
        prog, ins, dels = self._ctx("p <- ins.out(a).")
        goal = prog.resolve_goal(parse_goal("out(a)"))
        assert not dead_config(goal, Database(), ins, dels)

    def test_neg_on_never_deleted_pred_is_dead(self):
        prog, ins, dels = self._ctx("p <- ins.flag.")
        goal = prog.resolve_goal(parse_goal("not flag"))
        assert dead_config(goal, parse_database("flag."), ins, dels)

    def test_failing_builtin_is_dead(self):
        prog, ins, dels = self._ctx("p <- ins.x.")
        goal = prog.resolve_goal(parse_goal("2 > 3"))
        assert dead_config(goal, Database(), ins, dels)

    def test_one_dead_branch_kills_conc(self):
        prog, ins, dels = self._ctx("p <- static(a).")
        goal = prog.resolve_goal(parse_goal("static(zz) | ins.whatever"))
        assert dead_config(goal, Database(), ins, dels)

    def test_call_frontier_never_dead(self):
        prog, ins, dels = self._ctx("p <- static(a).")
        goal = prog.resolve_goal(parse_goal("p"))
        assert not dead_config(goal, Database(), ins, dels)

    def test_substitution_applies_at_the_leaves(self):
        prog, ins, dels = self._ctx("p <- ins.done(a).")
        goal = prog.resolve_goal(parse_goal("qualified(A, tech) * ins.done(A)"))
        db = parse_database("qualified(tech0, tech).")
        assert dead_config(goal, db, ins, dels, {Variable("A"): Constant("clerk0")})
        assert not dead_config(goal, db, ins, dels)


class TestDeadStep:
    """Out of a live configuration, each pinned step leads to a dead one,
    and the incremental check finds it through the guard it flips."""

    @pytest.mark.parametrize(
        "goal_text, db_text, action",
        [
            # A sibling guard sharing the bound variable; ``ok`` is
            # never inserted.
            ("a(X) | ok(X)", "a(1). ok(2).", "a(1)"),
            # An absence test on an inserted, never-deleted predicate.
            ("ins.p(1) | (not p(1) * x)", "", "ins.p(1)"),
            # A tuple test on a deleted, never-inserted predicate.
            ("del.q(1) | (q(1) * x)", "q(1).", "del.q(1)"),
        ],
    )
    def test_step_into_dead_configuration(self, goal_text, db_text, action):
        prog, steps = steps_of("", goal_text, db_text)
        goal = prog.resolve_goal(parse_goal(goal_text))
        db = parse_database(db_text)
        ins, dels = update_footprint(prog, goal)
        assert not dead_config(goal, db, ins, dels)
        (step,) = [s for s in steps if str(s.action) == action]
        assert dead_step(step, goal, ins, dels)
        assert dead_config(step.residual, step.database, ins, dels, step.subst)


class TestNonGroundAbsence:
    """An absence test is dead only once it is ground: a sibling may
    still bind its variable to a value no fact has.  Here ``q(X)`` binds
    X = 2, and ``not p(2)`` holds although ``p(1)`` does."""

    PROGRAM, GOAL, FACTS = "", "(t * not p(X)) | q(X)", "t. p(1). q(2)."

    def _setup(self):
        prog = parse_program(self.PROGRAM)
        return prog, prog.resolve_goal(parse_goal(self.GOAL)), parse_database(self.FACTS)

    def test_not_dead_until_ground(self):
        prog, goal, db = self._setup()
        ins, dels = update_footprint(prog, goal)
        residual = prog.resolve_goal(parse_goal("not p(X) | q(X)"))
        assert not dead_config(residual, db, ins, dels)
        assert dead_config(residual, db, ins, dels, {Variable("X"): Constant(1)})
        assert not dead_config(residual, db, ins, dels, {Variable("X"): Constant(2)})

    @pytest.mark.parametrize("por", [True, False])
    def test_solve_finds_the_answer(self, por):
        prog, goal, db = self._setup()
        solutions = list(Interpreter(prog, por=por).solve(goal, db))
        assert [{str(v): str(t) for v, t in s.bindings.items()} for s in solutions] == [
            {"X": "2"}
        ]

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_simulate_finds_the_answer(self, seed):
        prog, goal, db = self._setup()
        exe = Interpreter(prog).simulate(goal, db, seed=seed)
        assert exe is not None
        assert {str(v): str(t) for v, t in exe.bindings.items()} == {"X": "2"}


class TestFrontierBlocked:
    def test_failing_test_blocks(self):
        prog = parse_program("p <- ins.flag.")
        goal = prog.resolve_goal(parse_goal("flag * ins.done"))
        assert frontier_blocked(goal, Database())
        assert not frontier_blocked(goal, parse_database("flag."))

    def test_conc_blocked_only_if_all_blocked(self):
        prog = parse_program("p <- ins.flag.")
        goal = prog.resolve_goal(parse_goal("flag | ins.other"))
        assert not frontier_blocked(goal, Database())

    def test_substitution_applies_at_the_leaves(self):
        prog = parse_program("p <- ins.done(a).")
        db = parse_database("qualified(tech0, tech).")
        clerk = {Variable("A"): Constant("clerk0")}
        goal = prog.resolve_goal(parse_goal("qualified(A, tech) * ins.done(A)"))
        assert frontier_blocked(goal, db, clerk)
        assert not frontier_blocked(goal, db)
        update = prog.resolve_goal(parse_goal("ins.done(A)"))
        assert not frontier_blocked(update, db, clerk)
        assert frontier_blocked(update, db)
