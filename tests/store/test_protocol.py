"""Store protocol conformance: every backend against the Database oracle.

The protocol's promise is that a store is semantically interchangeable
with the immutable :class:`Database` it mirrors -- same facts, same
match results, same content hash, same copy-on-write indexes -- plus a
savepoint discipline that maps the paper's ``iso`` construct.  These
tests run identically over every shipped backend.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    MemoryStore,
    SqliteStore,
    StoreError,
    open_store,
    parse_atom,
    parse_database,
    parse_program,
)
from repro.core.transitions import replay_actions
from repro.store import Savepoint, Store


@pytest.fixture(params=["memory", "sqlite"])
def make_store(request, tmp_path):
    """A factory minting a fresh store of the parametrized backend."""
    counter = [0]

    def factory(db=None):
        counter[0] += 1
        if request.param == "memory":
            return MemoryStore(db if db is not None else Database())
        store = SqliteStore(str(tmp_path / ("s%d.tdlog" % counter[0])))
        if db is not None:
            store.insert_all(db)
        return store

    return factory


@pytest.fixture
def db():
    return parse_database("e(a, b). e(b, c). e(c, d). color(a, red).")


class TestQuerySurface:
    def test_database_mirror_equals_seed(self, make_store, db):
        store = make_store(db)
        assert store.database() == db
        assert len(store) == len(db)
        assert set(store) == set(db)

    def test_facts_and_predicates(self, make_store, db):
        store = make_store(db)
        assert store.facts("e") == db.facts("e")
        assert store.facts("nothing") == frozenset()
        assert store.predicates() == db.predicates()

    def test_matching_agrees_with_database_match(self, make_store, db):
        store = make_store(db)
        pattern = parse_atom("e(a, X)")
        assert list(store.matching(pattern)) == list(db.match(pattern))
        assert store.holds(pattern)
        assert not store.holds(parse_atom("e(z, X)"))

    def test_contains(self, make_store, db):
        store = make_store(db)
        assert parse_atom("e(a, b)") in store
        assert parse_atom("e(b, a)") not in store

    def test_content_hash_tracks_state(self, make_store, db):
        store = make_store(db)
        assert store.content_hash() == hash(db)
        store.insert(parse_atom("e(d, e)"))
        assert store.content_hash() == hash(db.insert(parse_atom("e(d, e)")))

    def test_arg_index_is_the_databases(self, make_store, db):
        store = make_store(db)
        index = store.arg_index("e", 0)
        assert index == db.arg_index("e", 0)


class TestUpdates:
    def test_insert_returns_new_state(self, make_store, db):
        store = make_store(db)
        fact = parse_atom("e(d, e)")
        out = store.insert(fact)
        assert fact in out and fact in store

    def test_insert_present_fact_is_noop(self, make_store, db):
        store = make_store(db)
        before = store.database()
        assert store.insert(parse_atom("e(a, b)")) is before

    def test_delete_and_noop_delete(self, make_store, db):
        store = make_store(db)
        out = store.delete(parse_atom("e(a, b)"))
        assert parse_atom("e(a, b)") not in out
        before = store.database()
        assert store.delete(parse_atom("missing(x)")) is before

    def test_batch_updates(self, make_store):
        store = make_store()
        facts = [parse_atom("p(%d)" % i) for i in range(5)]
        store.insert_all(facts)
        assert len(store) == 5
        store.delete_all(facts[:3])
        assert set(store) == set(facts[3:])


class TestSavepoints:
    def test_rollback_restores_state(self, make_store, db):
        store = make_store(db)
        sp = store.savepoint()
        store.insert(parse_atom("tmp(1)"))
        store.delete(parse_atom("e(a, b)"))
        store.rollback(sp)
        assert store.database() == db

    def test_release_keeps_changes(self, make_store, db):
        store = make_store(db)
        sp = store.savepoint()
        store.insert(parse_atom("tmp(1)"))
        store.release(sp)
        assert parse_atom("tmp(1)") in store

    def test_nested_inner_rollback_outer_release(self, make_store, db):
        store = make_store(db)
        outer = store.savepoint()
        store.insert(parse_atom("keep(1)"))
        inner = store.savepoint()
        store.insert(parse_atom("drop(1)"))
        store.rollback(inner)
        store.release(outer)
        assert parse_atom("keep(1)") in store
        assert parse_atom("drop(1)") not in store

    def test_outer_rollback_discards_released_inner(self, make_store, db):
        store = make_store(db)
        outer = store.savepoint()
        inner = store.savepoint()
        store.insert(parse_atom("drop(1)"))
        store.release(inner)
        store.rollback(outer)
        assert store.database() == db

    def test_releasing_outer_closes_inner(self, make_store, db):
        # SQLite RELEASE semantics: releasing an outer savepoint
        # implicitly commits (and closes) every savepoint nested in it.
        store = make_store(db)
        outer = store.savepoint()
        inner = store.savepoint()
        store.insert(parse_atom("tmp(1)"))
        store.release(outer)
        assert parse_atom("tmp(1)") in store
        with pytest.raises(StoreError):
            store.rollback(inner)

    def test_unknown_savepoint_raises(self, make_store, db):
        store = make_store(db)
        with pytest.raises(StoreError):
            store.release(Savepoint("bogus", depth=0))

    def test_transaction_contextmanager(self, make_store, db):
        store = make_store(db)
        with store.transaction():
            store.insert(parse_atom("tmp(1)"))
        assert parse_atom("tmp(1)") in store
        with pytest.raises(RuntimeError, match="boom"):
            with store.transaction():
                store.insert(parse_atom("tmp(2)"))
                raise RuntimeError("boom")
        assert parse_atom("tmp(2)") not in store


class TestCommit:
    def test_commit_matches_execution(self, make_store):
        program = parse_program(
            """
            transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
            withdraw(Acct, Amt) <-
                balance(Acct, Bal) * Bal >= Amt *
                del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
            deposit(Acct, Amt) <-
                balance(Acct, Bal) *
                del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
            """
        )
        db = parse_database("balance(a, 100). balance(b, 10).")
        execution = Interpreter(program).simulate("transfer(a, b, 30)", db, seed=0)
        assert execution is not None
        store = make_store(db)
        store.commit(db, execution.database, execution.trace)
        assert store.database() is execution.database
        assert store.database() == replay_actions(execution.trace, db)


class TestOpenStore:
    def test_mem_spec(self, db):
        store = open_store("mem", db=db)
        assert isinstance(store, MemoryStore)
        assert store.database() == db

    def test_sqlite_spec_and_seeding(self, tmp_path, db):
        path = str(tmp_path / "state.tdlog")
        with open_store("sqlite:" + path, db=db) as store:
            assert isinstance(store, SqliteStore)
            assert store.database() == db
        # Reopening never re-seeds: the durable state wins.
        with open_store("sqlite:" + path, db=Database()) as store:
            assert store.database() == db

    def test_bare_tdlog_path(self, tmp_path):
        path = str(tmp_path / "state.tdlog")
        with open_store(path) as store:
            assert isinstance(store, SqliteStore)

    def test_bad_specs(self):
        with pytest.raises(StoreError):
            open_store("voodoo")
        with pytest.raises(StoreError):
            open_store("sqlite:")


def test_store_is_abstract():
    with pytest.raises(TypeError):
        Store()  # noqa: abstract
