"""Tests for the isolation modality: atomicity and serializability.

Isolation is the paper's bridge from processes back to transactions:
``iso(a)`` executes ``a`` with no interleaving from siblings, and
``iso(t1) | iso(t2) | ...`` executes the ``ti`` serializably.
"""

import pytest

from repro import Database, Interpreter, atom, parse_database, parse_goal, parse_program
from repro.core.terms import Variable


def interp(text, **kw):
    return Interpreter(parse_program(text), **kw)


class TestAtomicity:
    def test_iso_executes_body(self):
        i = interp("t <- iso(ins.p(a) * ins.q(b)).")
        (sol,) = i.solve(parse_goal("t"), Database())
        assert sol.database == parse_database("p(a). q(b).")

    def test_iso_failure_is_failure(self):
        i = interp("t <- iso(ins.p(a) * missing(x)).")
        assert not i.succeeds(parse_goal("t"), Database())

    def test_iso_binds_outer_variables(self):
        i = interp("t(X) <- iso(item(X) * del.item(X)).")
        sols = list(i.solve(parse_goal("t(X)"), parse_database("item(a).")))
        assert len(sols) == 1
        assert str(next(iter(sols[0].bindings.values()))) == "a"

    def test_no_sibling_interleaving_inside_iso(self):
        # The isolated body requires flag absent at start AND end; the
        # sibling inserts flag.  Without isolation there is an
        # interleaving where the sibling's insert lands in the middle --
        # harmless here -- but crucially the isolated body can never
        # observe flag both absent and present.
        prog = """
        critical <- iso(not flag * ins.work * not flag).
        intruder <- ins.flag.
        """
        i = interp(prog)
        finals = i.final_databases(parse_goal("critical | intruder"), Database())
        # both orders exist (iso before/after intruder's insert)...
        assert parse_database("work. flag.") in finals
        # ...but in every final state work was decided atomically
        for db in finals:
            assert atom("work") in db

    def test_interleaving_possible_without_iso(self):
        # Contrast case: without iso the intruder CAN land mid-body, so
        # there is an execution where the second `not flag` fails -- but
        # also executions that commit.  With iso the mid-body landing is
        # impossible, which test_no_sibling_interleaving_inside_iso pins.
        prog = """
        critical <- not flag * ins.work * not flag.
        intruder <- ins.flag.
        """
        i = interp(prog)
        assert i.succeeds(parse_goal("critical | intruder"), Database())


class TestSerializability:
    def test_concurrent_isolated_transfers_conserve_money(self):
        prog = """
        transfer(F, T, Amt) <- iso(
            balance(F, B1) * B1 >= Amt *
            del.balance(F, B1) * B1n is B1 - Amt * ins.balance(F, B1n) *
            balance(T, B2) *
            del.balance(T, B2) * B2n is B2 + Amt * ins.balance(T, B2n)
        ).
        """
        i = interp(prog, max_configs=500_000)
        db = parse_database("balance(a, 100). balance(b, 100).")
        goal = parse_goal("transfer(a, b, 30) | transfer(b, a, 10)")
        finals = i.final_databases(goal, db)
        assert finals  # both transfers can commit
        for final in finals:
            total = sum(f.args[1].value for f in final.facts("balance"))
            assert total == 200

    def test_serializable_outcomes_only(self):
        # Two isolated increments of a register: the lost-update anomaly
        # (both read 0, both write 1) must be impossible.
        prog = """
        bump <- iso(reg(V) * del.reg(V) * V2 is V + 1 * ins.reg(V2)).
        """
        i = interp(prog)
        finals = i.final_databases(parse_goal("bump | bump"), parse_database("reg(0)."))
        assert finals == {parse_database("reg(2).")}

    def test_lost_update_without_isolation(self):
        # The same body without iso exhibits the anomaly: reg(1) is a
        # reachable final state (both processes read 0).
        prog = """
        bump <- reg(V) * del.reg(V) * V2 is V + 1 * ins.reg(V2).
        """
        i = interp(prog)
        finals = i.final_databases(parse_goal("bump | bump"), parse_database("reg(0)."))
        assert parse_database("reg(2).") in finals
        assert parse_database("reg(1).") in finals


class TestNestedTransactions:
    def test_subtransaction_failure_aborts_parent(self, bank_program, bank_db):
        i = Interpreter(bank_program)
        # withdraw would succeed but deposit's account is missing:
        # relative commit -- the whole transfer fails, leaving balances
        # untouched (the committed withdraw is rolled back with it).
        assert not i.succeeds(parse_goal("transfer(a, nosuch, 10)"), bank_db)

    def test_successful_nested_transfer(self, bank_program, bank_db):
        i = Interpreter(bank_program)
        (sol,) = i.solve(parse_goal("transfer(a, b, 30)"), bank_db)
        assert sol.database == parse_database("balance(a, 70). balance(b, 40).")

    def test_insufficient_funds(self, bank_program, bank_db):
        i = Interpreter(bank_program)
        assert not i.succeeds(parse_goal("transfer(b, a, 500)"), bank_db)

    def test_nested_iso(self):
        prog = """
        outer <- iso(ins.a * inner * ins.c).
        inner <- iso(ins.b).
        """
        i = interp(prog)
        (sol,) = i.solve(parse_goal("outer"), Database())
        assert sol.database == parse_database("a. b. c.")

    def test_iso_trace_records_subtrace(self):
        i = interp("t <- iso(ins.p(a)).")
        exe = i.simulate(parse_goal("t"), Database())
        iso_actions = [a for a in exe.trace if a.kind == "iso"]
        assert len(iso_actions) == 1
        assert any(sub.kind == "ins" for sub in iso_actions[0].subtrace)


class TestIsoAnswers:
    """``iso(a)`` is one transition carrying the body's whole answer
    (docs/SEMANTICS.md, rule [iso]): bindings between two variables are
    part of it, whether the body is generated, served from the table or
    run untabled."""

    SHARE = "s(U, U) <- f."

    @pytest.mark.parametrize("tabling", [True, False])
    def test_iso_binds_shared_variables_to_one_variable(self, tabling):
        i = interp(self.SHARE, tabling=tabling)
        (sol,) = i.solve(parse_goal("iso(s(Y, Z))"), parse_database("f."))
        y, z = sol.bindings[Variable("Y")], sol.bindings[Variable("Z")]
        assert isinstance(y, Variable)
        assert y == z

    @pytest.mark.parametrize("tabling", [True, False])
    def test_shared_variables_cannot_take_two_values_in_solve(self, tabling):
        db = parse_database("f. p(a). q(b).")
        for goal in ("s(Y, Z) * p(Y) * q(Z)", "iso(s(Y, Z)) * p(Y) * q(Z)"):
            i = interp(self.SHARE, tabling=tabling)
            assert list(i.solve(parse_goal(goal), db)) == [], goal

    @pytest.mark.parametrize("tabling", [True, False])
    def test_shared_variables_cannot_take_two_values_in_simulate(self, tabling):
        i = interp(self.SHARE, tabling=tabling)
        goal = parse_goal("iso(s(Y, Z)) * p(Y) * q(Z)")
        assert i.simulate(goal, parse_database("f. p(a). q(b).")) is None

    @pytest.mark.parametrize("tabling", [True, False])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize(
        "warmup, facts, answer",
        [
            # Unseeded DFS pulls the first iso's executions lazily, so
            # when iso(pick(Y)) meets the same body and database, the
            # first one's generator is paused after X = 1.  Serving that
            # partial snapshot would offer only Y = 1.
            (None, "q(1). q(2). q(3). r(1, 3).", ("1", "3")),
            # The warm-up leaves the entry warm with X = 1, and the first
            # iso pauses while serving it.  A second generator would
            # store Y = 1..3, and the first would skip X = 2 and X = 3
            # as duplicates.
            ("iso(pick(X))", "q(1). q(2). q(3). r(1, 5). r(2, 1).", ("2", "1")),
        ],
        ids=["generating", "serving-warm-entry"],
    )
    def test_body_met_while_its_generator_is_paused_runs_untabled(
        self, warmup, facts, answer, tabling, seed
    ):
        i = interp("pick(X) <- q(X).", tabling=tabling)
        db = parse_database(facts)
        if warmup is not None:
            assert i.simulate(parse_goal(warmup), db, seed=seed) is not None
        exe = i.simulate(
            parse_goal("iso(pick(X)) * iso(pick(Y)) * r(X, Y)"), db, seed=seed
        )
        assert exe is not None
        assert {str(v): str(t) for v, t in exe.bindings.items()} == dict(
            zip("XY", answer)
        )
