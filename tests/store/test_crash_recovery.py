"""Kill-and-reopen crash recovery, driven by the faults layer.

A :class:`StoreCrash` window in a :class:`FaultPlan` kills the store at
a chosen WAL append -- after the row is durable, before the in-memory
mirror advances, the torn moment of a real power cut.  Recovery is
reopening the file: the WAL tail replays into the last snapshot and any
unreleased savepoint is gone.  The oracle throughout is a
:class:`MemoryStore` fed the prefix of updates that became durable.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    MemoryStore,
    SqliteStore,
    StoreCrashed,
    parse_atom,
    parse_database,
    parse_program,
)
from repro.faults import FaultPlan, StoreCrash, Window


def crash_at(append):
    """A plan whose store crashes exactly at WAL append *append* (1-based)."""
    return FaultPlan(seed=0, store_crashes=(StoreCrash(Window(append, append + 1)),))


def facts(n, pred="p"):
    return [parse_atom("%s(%d)" % (pred, i)) for i in range(n)]


class TestPlanWiring:
    def test_store_crash_makes_plan_persistent(self):
        plan = crash_at(3)
        assert not plan.transient

    def test_describe_mentions_store_crash(self):
        assert "store crash" in crash_at(3).describe()

    def test_empty_plan_unchanged(self):
        plan = FaultPlan(seed=0)
        assert plan.store_crashes == ()
        assert plan.transient


class TestKillMidAppend:
    def test_durable_prefix_survives_reopen(self, tmp_path):
        path = str(tmp_path / "state.tdlog")
        store = SqliteStore(path, faults=crash_at(3))
        oracle = MemoryStore(Database())
        with pytest.raises(StoreCrashed):
            for fact in facts(10):
                store.insert(fact)
                oracle.insert(fact)
        # The crash fired on the third append: that row is on disk (the
        # torn moment is post-fsync), but the mirror never advanced.
        oracle.insert(facts(10)[2])
        assert len(store._db) == 2  # mirror is torn...
        with SqliteStore(path) as recovered:
            assert recovered.database() == oracle.database()  # ...disk is not

    def test_crashed_store_refuses_everything(self, tmp_path):
        path = str(tmp_path / "state.tdlog")
        store = SqliteStore(path, faults=crash_at(1))
        with pytest.raises(StoreCrashed):
            store.insert(parse_atom("p(1)"))
        for op in (
            lambda: store.insert(parse_atom("p(2)")),
            lambda: store.delete(parse_atom("p(1)")),
            lambda: store.savepoint(),
            lambda: store.database(),
            lambda: store.checkpoint(),
            lambda: store.stats(),
        ):
            with pytest.raises(StoreCrashed):
                op()

    def test_crash_inside_savepoint_loses_the_scope(self, tmp_path):
        path = str(tmp_path / "state.tdlog")
        base = parse_database("keep(1). keep(2).")
        with SqliteStore(path) as store:
            store.insert_all(base)
        store = SqliteStore(path, faults=crash_at(5))
        store.savepoint()
        with pytest.raises(StoreCrashed):
            for fact in facts(10, "tmp"):
                store.insert(fact)
        # Appends 3 and 4 happened inside the never-released savepoint;
        # the crash voids the whole scope: its rows are staged, and only
        # the outermost release writes them.
        with SqliteStore(path) as recovered:
            assert recovered.database() == base

    def test_crash_then_reopen_then_continue(self, tmp_path):
        path = str(tmp_path / "state.tdlog")
        store = SqliteStore(path, faults=crash_at(2))
        with pytest.raises(StoreCrashed):
            store.insert_all(facts(4))
        with SqliteStore(path) as recovered:
            recovered.insert_all(facts(4))
            assert set(recovered) == set(facts(4))
        with SqliteStore(path) as again:
            assert set(again) == set(facts(4))


class TestEngineCommitAtomicity:
    """A crash while committing a winning trace must not leave a
    partial execution visible after recovery."""

    PROGRAM = """
        transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
        withdraw(Acct, Amt) <-
            balance(Acct, Bal) * Bal >= Amt *
            del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
        deposit(Acct, Amt) <-
            balance(Acct, Bal) *
            del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
    """

    def test_crash_mid_commit_rolls_back_on_reopen(self, tmp_path):
        path = str(tmp_path / "bank.tdlog")
        program = parse_program(self.PROGRAM)
        db = parse_database("balance(a, 100). balance(b, 10).")
        with SqliteStore(path) as store:
            store.insert_all(db)
        # The append tick is per-instance: the reopened store's third
        # append lands mid-way through staging the winning trace.
        store = SqliteStore(path, faults=crash_at(3))
        with pytest.raises(StoreCrashed):
            Interpreter(program, store=store).simulate(
                "transfer(a, b, 30)", seed=0
            )
        with SqliteStore(path) as recovered:
            assert recovered.database() == db  # untouched: all-or-nothing

    def test_commit_without_crash_is_durable(self, tmp_path):
        path = str(tmp_path / "bank.tdlog")
        program = parse_program(self.PROGRAM)
        db = parse_database("balance(a, 100). balance(b, 10).")
        with SqliteStore(path) as store:
            store.insert_all(db)
            execution = Interpreter(program, store=store).simulate(
                "transfer(a, b, 30)", seed=0
            )
            assert execution is not None
        with SqliteStore(path) as recovered:
            assert recovered.database() == execution.database
