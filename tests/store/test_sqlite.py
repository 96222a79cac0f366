"""SQLite backend internals: durability, the WAL/snapshot lifecycle,
savepoint mapping, recovery, and the store's own counters."""

import os
import sqlite3
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    Database,
    Interpreter,
    MemoryStore,
    SqliteStore,
    StoreError,
    parse_atom,
    parse_database,
    parse_goal,
)
from repro.faults import FaultPlan, StoreCrash, Window
from repro.obs.context import Instrumentation, instrumented
from repro.store import StoreCrashed, fsck
from repro.store.sqlite import SCHEMA_VERSION, content_digest, decode_record


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "state.tdlog")


@pytest.fixture
def db():
    return parse_database("e(a, b). e(b, c). color(a, red).")


def facts(n, pred="p"):
    return [parse_atom("%s(%d)" % (pred, i)) for i in range(n)]


class TestDurability:
    def test_state_survives_reopen(self, path, db):
        with SqliteStore(path) as store:
            store.insert_all(db)
            store.delete(parse_atom("e(a, b)"))
        with SqliteStore(path) as store:
            assert store.database() == db.delete(parse_atom("e(a, b)"))

    def test_typed_constants_round_trip(self, path):
        # The reason facts are pickled: these two facts stringify
        # identically but are different atoms.
        from repro import atom, const

        a, b = atom("p", const(1)), atom("p", const("1"))
        with SqliteStore(path) as store:
            store.insert(a)
            store.insert(b)
        with SqliteStore(path) as store:
            assert a in store and b in store and len(store) == 2

    def test_recovery_replays_wal_tail_over_snapshot(self, path):
        with SqliteStore(path, snapshot_every=4) as store:
            store.insert_all(facts(4))  # folds into a snapshot
            store.insert_all(facts(2, "tail"))  # stays in the WAL
            assert store.stats()["generation"] == 1
            assert store.stats()["wal_length"] == 2
        inst = Instrumentation.create()
        with instrumented(inst):
            with SqliteStore(path, snapshot_every=100) as store:
                assert set(store) == set(facts(4)) | set(facts(2, "tail"))
        counters = inst.metrics.snapshot()["counters"]
        assert counters["store.recoveries"] == 1
        assert counters["store.wal_replayed"] == 2


class TestCheckpoint:
    def test_threshold_folds_wal(self, path):
        with SqliteStore(path, snapshot_every=3) as store:
            store.insert_all(facts(2))
            assert store.stats()["generation"] == 0
            store.insert(parse_atom("p(2)"))
            stats = store.stats()
            assert stats["generation"] == 1
            assert stats["wal_length"] == 0
            assert stats["snapshot_facts"] == 3

    def test_explicit_checkpoint(self, path, db):
        with SqliteStore(path) as store:
            store.insert_all(db)
            generation = store.checkpoint()
            assert generation == 1
            assert store.stats()["wal_length"] == 0
        with SqliteStore(path) as store:
            assert store.database() == db

    def test_no_checkpoint_inside_savepoint(self, path):
        with SqliteStore(path) as store:
            sp = store.savepoint()
            store.insert(parse_atom("p(1)"))
            with pytest.raises(StoreError, match="savepoint"):
                store.checkpoint()
            store.release(sp)
            store.checkpoint()

    def test_auto_checkpoint_deferred_past_open_savepoint(self, path, db):
        # The threshold trips inside the savepoint but must not fire
        # until the scope commits.
        with SqliteStore(path, snapshot_every=2) as store:
            sp = store.savepoint()
            store.insert_all(facts(5))
            assert store.stats()["generation"] == 0
            store.release(sp)
            assert store.stats()["generation"] == 1
        with SqliteStore(path) as store:
            assert set(store) == set(facts(5))

    def test_deferral_is_counted_once_per_episode(self, path):
        inst = Instrumentation.create()
        with instrumented(inst):
            with SqliteStore(path, snapshot_every=2) as store:
                sp = store.savepoint()
                # Trips the threshold repeatedly inside one scope: one
                # deferral episode, not one count per insert.
                store.insert_all(facts(6))
                store.release(sp)
        counters = inst.metrics.snapshot()["counters"]
        assert counters["store.checkpoint_deferred"] == 1
        assert counters["store.snapshots"] == 1

    def test_deferred_checkpoint_retries_after_rollback(self, path, db):
        # A rollback drains the stack too: the deferred fold must not
        # wait for the *next* mutation to happen.
        with SqliteStore(path, snapshot_every=2) as store:
            store.insert_all(db)  # tips over the threshold pre-scope
            assert store.stats()["generation"] == 1
            sp = store.savepoint()
            store.insert_all(facts(4, "tmp"))
            assert store.stats()["generation"] == 1  # deferred
            store.rollback(sp)
            # The aborted scope's rows are gone; the WAL tail that
            # remains is below threshold, so no spurious fold either.
            assert store.stats()["generation"] == 1
            sp2 = store.savepoint()
            store.insert_all(facts(4, "keep"))
            store.rollback(sp2)
            assert store.stats()["open_savepoints"] == 0
        with SqliteStore(path) as store:
            assert store.database() == db


class TestSavepointDurability:
    def test_rolled_back_scope_leaves_no_trace(self, path, db):
        with SqliteStore(path) as store:
            store.insert_all(db)
            sp = store.savepoint()
            store.insert(parse_atom("tmp(1)"))
            store.rollback(sp)
        with SqliteStore(path) as store:
            assert store.database() == db

    def test_unreleased_savepoint_dies_with_the_process(self, path, db):
        store = SqliteStore(path)
        store.insert_all(db)
        store.savepoint()
        store.insert(parse_atom("tmp(1)"))
        store.close()  # rolls the open scope back, like a kill
        with SqliteStore(path) as store:
            assert store.database() == db

    def test_released_scope_is_durable(self, path, db):
        with SqliteStore(path) as store:
            store.insert_all(db)
            with store.transaction():
                store.insert(parse_atom("tmp(1)"))
        with SqliteStore(path) as store:
            assert parse_atom("tmp(1)") in store


class TestLifecycle:
    def test_operations_after_close_raise(self, path):
        store = SqliteStore(path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.insert(parse_atom("p(1)"))

    def test_schema_version_mismatch(self, path):
        SqliteStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (SCHEMA_VERSION + 1,),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="schema version"):
            SqliteStore(path)

    def test_snapshot_every_validation(self, path):
        with pytest.raises(ValueError):
            SqliteStore(path, snapshot_every=0)

    def test_stats_shape(self, path, db):
        with SqliteStore(path) as store:
            store.insert_all(db)
            stats = store.stats()
        assert stats["backend"] == "SqliteStore"
        assert stats["path"] == path
        assert stats["facts"] == 3
        assert stats["predicates"] == {"color": 1, "e": 2}
        assert stats["open_savepoints"] == 0


class TestCounters:
    def test_update_counters_and_fsync_histogram(self, path):
        inst = Instrumentation.create()
        with instrumented(inst):
            with SqliteStore(path) as store:
                store.insert_all(facts(3))
                store.delete(parse_atom("p(0)"))
                store.insert(parse_atom("p(1)"))  # no-op: not counted
                with store.transaction():
                    store.insert(parse_atom("q(1)"))
        snap = inst.metrics.snapshot()
        counters = snap["counters"]
        assert counters["store.opens"] == 1
        assert counters["store.inserts"] == 4
        assert counters["store.deletes"] == 1
        assert counters["store.wal_appends"] == 5
        assert counters["store.savepoints"] == 1
        assert counters["store.releases"] == 1
        assert "store.recoveries" not in counters
        # Every WAL append is timed into the fsync histogram.
        assert snap["histograms"]["store.wal_fsync_ms"]["count"] == 5


def traced(store):
    """The SQL statements *store* runs from here on, and the statements
    it hands to ``executemany``."""
    statements, batches = [], []
    store._conn.set_trace_callback(statements.append)
    exec_many = store._exec_many

    def counted(sql, rows):
        batches.append(sql)
        return exec_many(sql, rows)

    store._exec_many = counted
    return statements, batches


class TestCommitStatements:
    """Savepoint scopes live in memory: a commit writes its staged rows
    in one transaction, and a scope with nothing to write issues no
    SQL at all."""

    def test_single_transfer_is_one_transaction(self, path, bank_program, bank_db):
        with SqliteStore(path) as store:
            store.insert_all(bank_db)
            statements, batches = traced(store)
            execution = Interpreter(bank_program, store=store).simulate(
                "transfer(a, b, 30)"
            )
            assert execution is not None
            assert statements[0] == "BEGIN IMMEDIATE"
            assert statements[-1] == "COMMIT"
            inserts = statements[1:-1]
            assert len(inserts) == 4  # two deletes and two inserts
            assert all(sql.startswith("INSERT INTO wal ") for sql in inserts)
            assert batches == ["INSERT INTO wal (op, pred, fact) VALUES (?, ?, ?)"]
        with SqliteStore(path) as store:
            assert store.database() == parse_database("balance(a, 70). balance(b, 40).")

    def test_empty_scope_issues_no_sql(self, path):
        with SqliteStore(path) as store:
            store.insert(parse_atom("p(1)"))
            statements, _batches = traced(store)
            outer = store.savepoint()
            inner = store.savepoint()
            store.insert(parse_atom("p(1)"))  # already present: stages nothing
            store.release(inner)
            store.release(outer)
            assert statements == []

    def test_rolled_back_scope_issues_no_sql(self, path):
        with SqliteStore(path) as store:
            statements, _batches = traced(store)
            outer = store.savepoint()
            store.insert(parse_atom("p(1)"))
            inner = store.savepoint()
            store.delete(parse_atom("p(1)"))
            store.rollback(inner)
            store.rollback(outer)
            assert statements == []
            assert store.database() == Database()

    def test_failed_flush_leaves_the_mirror_unchanged(self, path):
        with SqliteStore(path) as store:
            store.insert(parse_atom("p(1)"))
            before = store.database()
            sp = store.savepoint()
            store.insert(parse_atom("p(2)"))

            def broken(sql, rows):
                raise StoreError("disk gone")

            store._exec_many = broken
            with pytest.raises(StoreError, match="disk gone"):
                store.release(sp)
            assert store.database() == before
            assert not store._conn.in_transaction
            assert store.stats()["open_savepoints"] == 0
        with SqliteStore(path) as store:
            assert store.database() == before


SNAPSHOT_EVERY = 3
tail_facts = st.builds(
    lambda pred, n: parse_atom("%s(%d)" % (pred, n)),
    st.sampled_from(["p", "q"]),
    st.integers(min_value=0, max_value=3),
)
tail_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "delete"]), tail_facts),
        st.tuples(
            st.sampled_from(["savepoint", "release", "rollback", "checkpoint", "reopen"])
        ),
    ),
    max_size=30,
)


class TestReadsLeaveTheStoreAlone:
    """A routed read evaluates over in-memory states: unlike
    ``datalog.evaluate``, it materializes nothing into the store."""

    def test_recursive_read_writes_no_wal_row(self, path):
        from repro import parse_program, select_engine

        program = parse_program(
            "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y)."
        )
        with SqliteStore(path) as store:
            store.insert_all(parse_database("e(a, b). e(b, c). e(c, d)."))
            before = store.database()
            rows = store._conn.execute("SELECT * FROM wal ORDER BY seq").fetchall()
            engine = select_engine(program, store=store)
            statements, batches = traced(store)
            for goal in ("path(a, X)", "path(X, Y)", "e(X, Y)"):
                assert engine.route(parse_goal(goal)) is engine.reader
                assert list(engine.solve(goal))
            assert statements == [] and batches == []
            assert store.database() is before
            assert store._conn.execute("SELECT * FROM wal ORDER BY seq").fetchall() == rows
        with SqliteStore(path) as store:
            assert store.database() == before


def committed_tail(store):
    return store._conn.execute(
        "SELECT COUNT(*) FROM wal WHERE seq > "
        "(SELECT value FROM meta WHERE key='checkpoint_seq')"
    ).fetchone()[0]


def assert_folded(store):
    """What a fold leaves: one snapshot row per mirror fact, the
    mirror's content digest recorded, and fsck finding nothing but the
    writer lease this open store holds."""
    db = store.database()
    rows = [
        decode_record(blob, path=store.path, table="snapshot", rowid=rowid)
        for rowid, blob in store._conn.execute("SELECT rowid, fact FROM snapshot")
    ]
    assert len(rows) == len(db) and set(rows) == set(db)
    recorded = store._conn.execute(
        "SELECT value FROM meta WHERE key='snapshot_digest'"
    ).fetchone()[0]
    assert recorded == content_digest(db)
    assert [i.check for i in fsck(store.path).issues] == ["lease"]


class TestWalTailBookkeeping:
    """The WAL tail is counted in memory: after every operation it
    equals SQLite's own count; an automatic fold fires exactly when that
    count reaches ``snapshot_every`` with no scope open, and leaves the
    snapshot equal to the mirror; and a reopened store equals the
    :class:`MemoryStore` oracle fed the same operations (a reopen drops
    open scopes, as a crash does)."""

    @settings(max_examples=60, deadline=None)
    @given(tail_ops)
    def test_tail_matches_sqlite(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tail.tdlog")
            store = SqliteStore(path, snapshot_every=SNAPSHOT_EVERY)
            oracle, scopes = MemoryStore(), []
            staged = []  # rows each open scope has staged so far
            tail = 0  # the test's own model of the committed tail
            try:
                for op in ops:
                    kind = op[0]
                    generation = store.stats()["generation"]
                    checks_fold = True
                    if kind in ("insert", "delete"):
                        before = oracle.database()
                        getattr(store, kind)(op[1])
                        getattr(oracle, kind)(op[1])
                        if oracle.database() == before:
                            checks_fold = False  # a no-op update
                        elif staged:
                            staged[-1] += 1
                        else:
                            tail += 1
                    elif kind == "savepoint":
                        scopes.append((store.savepoint(), oracle.savepoint()))
                        staged.append(0)
                        checks_fold = False
                    elif kind in ("release", "rollback") and scopes:
                        sp, osp = scopes.pop()
                        getattr(store, kind)(sp)
                        getattr(oracle, kind)(osp)
                        rows = staged.pop()
                        if kind == "release":
                            if staged:
                                staged[-1] += rows
                            else:
                                tail += rows
                    elif kind == "checkpoint" and not scopes:
                        store.checkpoint()
                        tail, checks_fold = 0, False
                    elif kind == "reopen":
                        store.close()
                        if scopes:
                            oracle.rollback(scopes[0][1])
                        scopes, staged = [], []
                        store = SqliteStore(path, snapshot_every=SNAPSHOT_EVERY)
                        assert store.database() == oracle.database()
                        checks_fold = False
                    else:
                        checks_fold = False
                    folded = store.stats()["generation"] > generation
                    if checks_fold:
                        assert folded == (not scopes and tail >= SNAPSHOT_EVERY)
                        if folded:
                            tail = 0
                    if folded:
                        assert_folded(store)
                    assert store._wal_tail == committed_tail(store) == tail
                    assert store.database() == oracle.database()
                store.close()
                if scopes:
                    oracle.rollback(scopes[0][1])
                with SqliteStore(path, snapshot_every=SNAPSHOT_EVERY) as reopened:
                    assert reopened.database() == oracle.database()
                    assert reopened._wal_tail == committed_tail(reopened)
            finally:
                store.close()


def p(i):
    return parse_atom("p(%d)" % i)


#: Single updates that fold every four rows under ``snapshot_every=4``;
#: after the first, each fold both drops and adds snapshot facts.
FOLD_SCRIPT = (
    [("insert", p(i)) for i in range(4)]
    + [("delete", p(0)), ("insert", p(4)), ("delete", p(1)), ("insert", p(5))]
    + [("delete", p(2)), ("insert", p(6)), ("insert", p(0)), ("delete", p(4))]
    + [("delete", p(3)), ("insert", p(7)), ("delete", p(5)), ("insert", p(1))]
)


def scripted(ops):
    db = Database()
    for kind, fact in ops:
        db = getattr(db, kind)(fact)
    return db


class TestIncrementalFolds:
    """A fold writes only the rows the mirror changed, from a row map
    that it replaces only once the fold commits."""

    def test_failed_fold_leaves_the_next_fold_correct(self, path):
        with SqliteStore(path, snapshot_every=100) as store:
            store.insert_all(facts(4))
            store.checkpoint()
            store.delete(p(0))
            store.insert(p(4))

            exec_many = store._exec_many

            def broken(sql, rows):
                # The stale rows' deletes run; the inserts fail.
                if sql.startswith("INSERT INTO snapshot"):
                    raise StoreError("disk gone")
                exec_many(sql, rows)

            store._exec_many = broken
            with pytest.raises(StoreError, match="disk gone"):
                store.checkpoint()
            assert not store._conn.in_transaction
            assert store.stats()["generation"] == 1
            assert store.stats()["snapshot_facts"] == 4
            del store._exec_many
            store.delete(p(1))
            store.insert(p(0))
            assert store.checkpoint() == 2
            assert_folded(store)
            expected = store.database()
        assert fsck(path).ok
        with SqliteStore(path) as store:
            assert store.database() == expected

    def test_duplicate_snapshot_row_is_gone_after_the_next_fold(self, path):
        with SqliteStore(path) as store:
            store.insert_all(facts(3))
            store.checkpoint()
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute(
            "INSERT INTO snapshot (pred, fact) SELECT pred, fact FROM snapshot "
            "WHERE rowid = (SELECT MIN(rowid) FROM snapshot)"
        )
        conn.close()
        flagged = [i.reason for i in fsck(path).issues if i.check == "snapshot"]
        assert flagged and "digest mismatch" in flagged[0]
        with SqliteStore(path) as store:
            assert store.database() == Database(facts(3))
            store.checkpoint()
            assert_folded(store)
        assert fsck(path).ok

    @pytest.mark.parametrize("fold", [2, 3])
    def test_crash_mid_fold_reopens_to_the_state_before_it(self, path, fold):
        crash = StoreCrash(Window(fold, fold + 1), point="mid-checkpoint-fold")
        store = SqliteStore(
            path, snapshot_every=4, faults=FaultPlan(seed=0, store_crashes=(crash,))
        )
        with pytest.raises(StoreCrashed):
            for kind, fact in FOLD_SCRIPT:
                getattr(store, kind)(fact)
        store.close()
        done = 4 * fold  # the update that tripped the crashed fold
        with SqliteStore(path, snapshot_every=4) as store:
            assert store.database() == scripted(FOLD_SCRIPT[:done])
            assert store.stats()["generation"] == fold - 1
            snapshot = {
                decode_record(blob, path=path, table="snapshot", rowid=rowid)
                for rowid, blob in store._conn.execute(
                    "SELECT rowid, fact FROM snapshot"
                )
            }
            assert snapshot == set(scripted(FOLD_SCRIPT[: done - 4]))
            store.checkpoint()
            assert_folded(store)
            for kind, fact in FOLD_SCRIPT[done:]:
                getattr(store, kind)(fact)
            assert store.stats()["generation"] == fold + (len(FOLD_SCRIPT) - done) // 4
            assert_folded(store)
        assert fsck(path).ok
