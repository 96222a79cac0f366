"""``Store.commit``: a durable ``simulate`` hands the store the state its
search built, and the store adopts it instead of deriving it again.

The oracle for the WAL is an independent walk of the trace over a plain
Python set; the oracle for the final state is ``replay_actions``.
"""

import tempfile

import pytest
from hypothesis import given, settings

from repro import (
    Database,
    Interpreter,
    MemoryStore,
    SqliteStore,
    StoreCrashed,
    StoreError,
    parse_atom,
    parse_database,
    parse_program,
)
from repro.core.transitions import replay_actions
from repro.faults import FaultPlan, StoreCrash, Window
from repro.store import fsck
from repro.store.sqlite import decode_record
from tests.property.test_property_engines import programs, small_dbs

BANK = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""
BANK_DB = "balance(a, 100). balance(b, 10)."
SINGLE = "transfer(a, b, 30)"
NESTED = "iso(transfer(a, b, 30) * transfer(b, a, 5))"

#: (program, database, goal): a no-op insert of a present fact, an
#: insert its own trace deletes again, and the nested ledger goal.
TRACES = {
    "noop_insert": ("", "p(a).", "iso(ins.p(a) * ins.q(1)) * ins.p(a) * ins.q(2)"),
    "insert_then_delete": ("", "p(a).", "ins.t(1) * del.t(1) * iso(del.p(a) * ins.p(a))"),
    "nested_transfers": (BANK, BANK_DB, NESTED),
}


@pytest.fixture(params=["memory", "sqlite"])
def make_store(request, tmp_path):
    """A factory for a fresh store of the parametrized backend, seeded
    with an equal copy of *db*."""
    counter = [0]

    def factory(db):
        counter[0] += 1
        if request.param == "memory":
            return MemoryStore(db)
        store = SqliteStore(str(tmp_path / ("s%d.tdlog" % counter[0])))
        store.insert_all(db)
        return store

    return factory


def searched(program_text, db_text, goal):
    """One execution of *goal* from *db_text*, committed only to a
    throwaway in-memory store (so no ambient store is consulted)."""
    db = parse_database(db_text)
    execution = Interpreter(parse_program(program_text), store=MemoryStore(db)).simulate(goal)
    assert execution is not None
    return db, execution


def set_walk(actions, facts):
    """The WAL rows a commit of *actions* must write: one per update
    that changes the set *facts*, in trace order."""
    rows = []
    for action in actions:
        if action.kind == "ins" and action.atom not in facts:
            facts.add(action.atom)
            rows.append(("+", action.atom))
        elif action.kind == "del" and action.atom in facts:
            facts.remove(action.atom)
            rows.append(("-", action.atom))
        elif action.kind in ("iso", "table"):
            rows += set_walk(action.subtrace, facts)
    return rows


def flat_updates(actions):
    """Every ``ins`` and ``del`` of *actions*, subtraces included."""
    for action in actions:
        if action.kind in ("ins", "del"):
            yield action
        elif action.kind in ("iso", "table"):
            yield from flat_updates(action.subtrace)


def wal_rows(store, after=0):
    return [
        (op, decode_record(blob, path=store.path, table="wal", rowid=seq))
        for seq, op, blob in store._conn.execute(
            "SELECT seq, op, fact FROM wal WHERE seq > ? ORDER BY seq", (after,)
        )
    ]


def wal_watermark(store):
    return store._conn.execute("SELECT COALESCE(MAX(seq), 0) FROM wal").fetchone()[0]


class TestAdopt:
    def test_simulate_publishes_the_searched_state(self, make_store):
        store = make_store(parse_database(BANK_DB))
        execution = Interpreter(parse_program(BANK), store=store).simulate(NESTED)
        assert execution is not None
        assert store.database() is execution.database
        assert execution.database == parse_database("balance(a, 75). balance(b, 35).")
        store.close()

    def test_single_transfer_commit_derives_no_state(self, make_store, monkeypatch):
        db, execution = searched(BANK, BANK_DB, SINGLE)
        store = make_store(db)
        calls = []
        derive = Database._derive

        def counted(self, *args, **kwargs):
            calls.append(args)
            return derive(self, *args, **kwargs)

        monkeypatch.setattr(Database, "_derive", counted)
        store.commit(db, execution.database, execution.trace)
        monkeypatch.undo()
        assert calls == []
        assert store.database() is execution.database
        store.close()


class TestMovedState:
    def test_moved_state_is_refused_and_nothing_written(self, make_store):
        db, execution = searched(BANK, BANK_DB, SINGLE)
        store = make_store(db)
        store.insert(parse_atom("balance(c, 1)"))
        before = store.database()
        rows = wal_rows(store) if isinstance(store, SqliteStore) else None
        with pytest.raises(StoreError, match="moved"):
            store.commit(db, execution.database, execution.trace)
        assert store.database() is before
        if rows is not None:
            assert wal_rows(store) == rows
            assert store.stats()["open_savepoints"] == 0
        store.close()

    def test_equal_but_distinct_initial_is_accepted(self, make_store):
        db, execution = searched(BANK, BANK_DB, SINGLE)
        store = make_store(parse_database(BANK_DB))
        assert store.database() is not db and store.database() == db
        store.commit(db, execution.database, execution.trace)
        assert store.database() is execution.database
        store.close()


class TestSqliteCommit:
    @pytest.fixture
    def path(self, tmp_path):
        return str(tmp_path / "ledger.tdlog")

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_wal_rows_follow_the_trace(self, path, name):
        program, db_text, goal = TRACES[name]
        db, execution = searched(program, db_text, goal)
        with SqliteStore(path) as store:
            store.insert_all(db)
            mark = wal_watermark(store)
            store.commit(db, execution.database, execution.trace)
            expected = set_walk(execution.trace, set(db))
            assert wal_rows(store, mark) == expected
        if name == "noop_insert":
            assert len(expected) < len(list(flat_updates(execution.trace)))
        elif name == "insert_then_delete":
            assert [op for op, _fact in expected] == ["+", "-", "-", "+"]
        with SqliteStore(path) as store:
            assert store.database() == execution.database

    def test_failed_flush_leaves_the_mirror_at_initial(self, path):
        db, execution = searched(BANK, BANK_DB, SINGLE)
        with SqliteStore(path) as store:
            store.insert_all(db)
            before = store.database()

            def broken(sql, rows):
                raise StoreError("disk gone")

            store._exec_many = broken
            with pytest.raises(StoreError, match="disk gone"):
                store.commit(before, execution.database, execution.trace)
            assert store.database() is before
            assert not store._conn.in_transaction
            assert store.stats()["open_savepoints"] == 0
        with SqliteStore(path) as store:
            assert store.database() == before


class TestCrashModel:
    """A crash at any tick of a commit leaves the file holding the
    initial state, or the final one once the rows are flushed, and fsck
    finds it clean."""

    SNAPSHOT_EVERY = 4

    def open(self, path, faults=None):
        return SqliteStore(path, faults=faults, snapshot_every=self.SNAPSHOT_EVERY)

    def seeded(self, path, db, faults=None):
        with self.open(path) as store:
            store.insert_all(db)
        return self.open(path, faults)

    def test_every_tick_recovers_cleanly(self, tmp_path):
        db, execution = searched(BANK, BANK_DB, NESTED)
        with self.seeded(str(tmp_path / "dry.tdlog"), db) as store:
            store.commit(db, execution.database, execution.trace)
            ticks = {
                "pre-fsync": store._appends,
                "post-fsync": store._appends,
                "mid-savepoint-release": store._released,
                "mid-checkpoint-fold": store._checkpoints,
            }
        # Eight effective updates; the top scope, three iso and six
        # table scopes; one fold, after the flush.
        assert ticks == {
            "pre-fsync": 8, "post-fsync": 8,
            "mid-savepoint-release": 10, "mid-checkpoint-fold": 1,
        }
        case = 0
        for point, reached in sorted(ticks.items()):
            for tick in range(1, reached + 1):
                case += 1
                path = str(tmp_path / ("crash%d.tdlog" % case))
                plan = FaultPlan(
                    seed=0,
                    store_crashes=(StoreCrash(Window(tick, tick + 1), point=point),),
                )
                store = self.seeded(path, db, plan)
                with pytest.raises(StoreCrashed):
                    store.commit(db, execution.database, execution.trace)
                flushed = point == "mid-checkpoint-fold"
                with SqliteStore(path) as recovered:
                    expected = execution.database if flushed else db
                    assert recovered.database() == expected, (point, tick)
                assert fsck(path).ok, (point, tick)


class TestGeneratedPrograms:
    @settings(max_examples=40, deadline=None)
    @given(programs(), small_dbs())
    def test_reopened_file_holds_the_execution(self, prog, db):
        with tempfile.TemporaryDirectory() as root:
            path = root + "/gen.tdlog"
            with SqliteStore(path) as store:
                store.insert_all(db)
                execution = Interpreter(prog, store=store).simulate("t")
                if execution is None:
                    assert store.database() == db
                    return
                assert store.database() is execution.database
            assert execution.database == replay_actions(execution.trace, db)
            with SqliteStore(path) as store:
                assert store.database() == execution.database
