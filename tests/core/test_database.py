"""Unit tests for immutable database states."""

import sys

import pytest

from repro.core.database import Database, Schema, SchemaError
from repro.core.terms import Atom, Constant, Variable, atom

X = Variable("X")


class TestConstruction:
    def test_empty(self):
        db = Database()
        assert len(db) == 0
        assert not db

    def test_from_facts(self):
        db = Database([atom("p", "a"), atom("p", "b"), atom("q")])
        assert len(db) == 3
        assert atom("p", "a") in db
        assert atom("q") in db

    def test_duplicates_collapse(self):
        db = Database([atom("p", "a"), atom("p", "a")])
        assert len(db) == 1

    def test_rejects_nonground(self):
        with pytest.raises(ValueError):
            Database([Atom("p", (X,))])

    def test_from_mapping(self):
        db = Database.from_mapping({"p": [("a",), ("b",)], "flag": [()]})
        assert atom("p", "a") in db
        assert atom("flag") in db

    def test_from_mapping_scalar_rows(self):
        db = Database.from_mapping({"p": ["a", 3]})
        assert atom("p", "a") in db
        assert atom("p", 3) in db


class TestEqualityHash:
    def test_content_equality(self):
        d1 = Database([atom("p", "a"), atom("q", "b")])
        d2 = Database([atom("q", "b"), atom("p", "a")])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_path_independence(self):
        base = Database([atom("p", "a")])
        via1 = base.insert(atom("q", "b")).insert(atom("r", "c"))
        via2 = base.insert(atom("r", "c")).insert(atom("q", "b"))
        assert via1 == via2
        assert hash(via1) == hash(via2)

    def test_not_equal_to_other_types(self):
        assert Database() != frozenset()


class TestUpdates:
    def test_insert_returns_new(self):
        d0 = Database()
        d1 = d0.insert(atom("p", "a"))
        assert atom("p", "a") in d1
        assert atom("p", "a") not in d0

    def test_insert_existing_is_noop_same_object(self):
        d1 = Database([atom("p", "a")])
        assert d1.insert(atom("p", "a")) is d1

    def test_delete(self):
        d1 = Database([atom("p", "a"), atom("p", "b")])
        d2 = d1.delete(atom("p", "a"))
        assert atom("p", "a") not in d2
        assert atom("p", "b") in d2
        assert atom("p", "a") in d1

    def test_delete_absent_is_noop_same_object(self):
        d1 = Database([atom("p", "a")])
        assert d1.delete(atom("q", "x")) is d1
        assert d1.delete(atom("p", "b")) is d1

    def test_delete_last_fact_clears_predicate(self):
        d = Database([atom("p", "a")]).delete(atom("p", "a"))
        assert "p" not in d.predicates()
        assert d == Database()

    def test_insert_all_delete_all(self):
        facts = [atom("p", i) for i in range(5)]
        d = Database().insert_all(facts)
        assert len(d) == 5
        assert d.delete_all(facts) == Database()

    def test_nonground_updates_rejected(self):
        with pytest.raises(ValueError):
            Database().insert(Atom("p", (X,)))
        with pytest.raises(ValueError):
            Database().delete(Atom("p", (X,)))


class TestQueries:
    def test_match_ground(self):
        db = Database([atom("p", "a")])
        assert list(db.match(atom("p", "a"))) == [{}]
        assert list(db.match(atom("p", "b"))) == []

    def test_match_binds_variables(self):
        db = Database([atom("p", "a"), atom("p", "b")])
        results = list(db.match(Atom("p", (X,))))
        values = sorted(str(s[X]) for s in results)
        assert values == ["a", "b"]

    def test_match_respects_subst(self):
        db = Database([atom("p", "a"), atom("p", "b")])
        results = list(db.match(Atom("p", (X,)), {X: atom("x", "a").args[0]}))
        assert len(results) == 1

    def test_holds(self):
        db = Database([atom("p", "a")])
        assert db.holds(Atom("p", (X,)))
        assert not db.holds(atom("q"))

    def test_facts_and_predicates(self):
        db = Database([atom("p", "a"), atom("q", "b")])
        assert db.facts("p") == frozenset({atom("p", "a")})
        assert db.facts("absent") == frozenset()
        assert db.predicates() == {"p", "q"}

    def test_iteration_sorted(self):
        db = Database([atom("q", "z"), atom("p", "b"), atom("p", "a")])
        assert list(db) == [atom("p", "a"), atom("p", "b"), atom("q", "z")]

    def test_difference(self):
        d1 = Database([atom("p", "a"), atom("p", "b")])
        d2 = Database([atom("p", "a")])
        assert d1.difference(d2) == frozenset({atom("p", "b")})

    def test_public_arg_index(self):
        db = Database([atom("e", "a", "b"), atom("e", "a", "c")])
        idx = db.arg_index("e", 0)
        assert idx is db._arg_index("e", 0)
        assert set(idx[atom("x", "a").args[0]]) == set(db.facts("e"))


class TestArgIndexes:
    """Per-position match indexes and their maintenance across updates.

    Derived databases share index structure with their parent for
    untouched predicates and update the touched one incrementally --
    these tests pin that a stale bucket can never leak through
    delete -> insert chains.
    """

    Y = Variable("Y")

    def test_match_after_delete_then_insert(self):
        # The counter-update shape every bank/lab workload hits:
        # del.balance(a, 100) then ins.balance(a, 70).
        d0 = Database([atom("balance", "a", 100), atom("balance", "b", 10)])
        list(d0.match(Atom("balance", (atom("x", "a").args[0], X))))  # warm index
        d1 = d0.delete(atom("balance", "a", 100)).insert(atom("balance", "a", 70))
        results = list(d1.match(Atom("balance", (atom("x", "a").args[0], X))))
        assert [str(s[X]) for s in results] == ["70"]
        # The parent is untouched.
        parent = list(d0.match(Atom("balance", (atom("x", "a").args[0], X))))
        assert [str(s[X]) for s in parent] == ["100"]

    def test_index_probe_on_second_position(self):
        d = Database([atom("e", "a", "b"), atom("e", "c", "b"), atom("e", "a", "d")])
        results = list(d.match(Atom("e", (X, atom("x", "b").args[0]))))
        assert sorted(str(s[X]) for s in results) == ["a", "c"]

    def test_zero_arg_predicate_match_and_updates(self):
        d0 = Database()
        assert not d0.holds(atom("flag"))
        d1 = d0.insert(atom("flag"))
        assert list(d1.match(atom("flag"))) == [{}]
        d2 = d1.delete(atom("flag"))
        assert list(d2.match(atom("flag"))) == []
        d3 = d2.insert(atom("flag"))
        assert d3.holds(atom("flag"))

    def test_warm_index_consistent_with_cold(self):
        # A pattern answered from a derived db's (incrementally updated)
        # index must equal a from-scratch db's answer.
        facts = [atom("p", i, i * i) for i in range(10)]
        warm = Database(facts)
        pattern = Atom("p", (atom("x", 3).args[0], X))
        list(warm.match(pattern))  # build index on position 0
        for i in range(0, 10, 2):
            warm = warm.delete(atom("p", i, i * i))
        warm = warm.insert(atom("p", 3, 999)).delete(atom("p", 3, 9))
        cold = Database(
            [atom("p", i, i * i) for i in range(1, 10, 2) if i != 3]
            + [atom("p", 3, 999)]
        )
        assert warm == cold
        assert sorted(map(str, (s[X] for s in warm.match(pattern)))) == sorted(
            map(str, (s[X] for s in cold.match(pattern)))
        )

    def test_deleting_last_indexed_fact_empties_bucket(self):
        a_const = atom("x", "a").args[0]
        d0 = Database([atom("p", "a")])
        list(d0.match(Atom("p", (a_const,))))  # warm bucket for "a"
        d1 = d0.delete(atom("p", "a"))
        assert list(d1.match(Atom("p", (a_const,)))) == []
        d2 = d1.insert(atom("p", "a"))
        assert list(d2.match(Atom("p", (a_const,)))) == [{}]


class TestMixedArities:
    """One name at two arities: ``p/1`` and ``p/2`` share a name but not
    a signature, and a fact too short to have a position can never
    match a pattern bound there."""

    def test_match_skips_shorter_facts(self):
        db = Database([atom("p", "a"), atom("p", "a", "b")])
        assert list(db.match(atom("p", X, "b"))) == [{X: Constant("a")}]
        assert list(db.match(atom("p", "a", X))) == [{X: Constant("b")}]
        assert list(db.match(atom("p", X))) == [{X: Constant("a")}]

    def test_insert_into_a_warm_index(self):
        db = Database([atom("p", "a"), atom("p", "a", "b")])
        list(db.match(atom("p", X, "b")))  # warms the ("p", 1) index
        grown = db.insert(atom("p", "c"))
        assert list(grown.match(atom("p", X, "b"))) == [{X: Constant("a")}]
        assert [s[X] for s in grown.match(atom("p", X))] == [
            Constant("a"), Constant("c")
        ]
        shrunk = grown.delete(atom("p", "a"))
        assert list(shrunk.match(atom("p", X, "b"))) == [{X: Constant("a")}]
        assert shrunk == Database([atom("p", "c"), atom("p", "a", "b")])

    def test_solve_reads_one_arity(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "r.td"
        program.write_text("r(Y) <- p(X, Y).")
        facts = tmp_path / "r.facts"
        facts.write_text("p(a). p(a, b).")
        argv = ["solve", str(program), "--goal", "p(X, b)", "--db", str(facts)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("solution")] == [
            "solution 1: X = a"
        ]


class TestTupleTestsBuildNoAtoms:
    """A tuple test resolves its pattern's arguments into a tuple: no
    pattern atom is built, and a ground probe that misses interns
    nothing."""

    @staticmethod
    def atoms_built(run):
        built = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code is Atom.__new__.__code__:
                built.append(frame.f_locals.get("pred"))

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return built

    def test_probes_build_no_atom(self):
        db = Database([atom("e", "a", "b"), atom("e", "b", "c")])
        Y = Variable("Y")
        a, b, z = Constant("a"), Constant("b"), Constant("z")
        pair, loop = atom("e", X, Y), atom("e", X, X)
        list(db.match(pair, {X: a}))  # warm the caches
        checks = {
            "index probe": lambda: list(db.match(pair, {X: a})),
            "scan": lambda: list(db.match(pair)),
            "ground hit": lambda: db.holds(pair, {X: a, Y: b}),
            "ground miss": lambda: db.holds(pair, {X: a, Y: z}),
            "repeated variable": lambda: list(db.match(loop)),
        }
        for name, check in checks.items():
            assert self.atoms_built(check) == [], name

    def test_interned_finds_only_live_atoms(self):
        fact = atom("e", "a", "b")
        assert Atom.interned("e", fact.args) is fact
        assert Atom.interned("e", (Constant("a"), Constant("zz"))) is None


class TestUpdateCost:
    """A delete costs what it changes and iteration costs no sort: the
    warm sorted lists and index buckets are bisected, not scanned, and
    iteration replays them as they are."""

    Y = Variable("Y")

    @staticmethod
    def count_atom_comparisons(monkeypatch):
        counts = {"__eq__": 0, "__ne__": 0, "__lt__": 0}
        for name in counts:

            def counted(self, other, _name=name, _original=getattr(Atom, name)):
                counts[_name] += 1
                return _original(self, other)

            monkeypatch.setattr(Atom, name, counted)
        return counts

    def test_delete_bisects_and_iteration_does_not_sort(self, monkeypatch):
        db = Database(atom("balance", "a%04d" % i, i) for i in range(2000))
        probe = Atom("balance", (Constant("a0042"), X))
        assert len(list(db.match(probe))) == 1  # warms both caches
        counts = self.count_atom_comparisons(monkeypatch)
        smaller = db.delete(atom("balance", "a1000", 1000))
        assert sum(counts.values()) < 64, counts  # a scan makes 4,002
        counts["__lt__"] = 0
        assert len(list(smaller)) == 1999
        assert counts["__lt__"] == 0
        assert atom("balance", "a1000", 1000) not in list(smaller)

    def test_delete_keeps_the_typed_twin(self):
        # True and 1 are distinct constants: q(1) and q(True) are two
        # facts, and deleting one leaves the other in the warm sorted
        # list and index bucket.
        db = Database([atom("q", 1), atom("q", True)])
        assert len(db) == 2
        list(db.match(Atom("q", (X,))))  # warm the sorted list
        list(db.match(Atom("q", (Constant(1),))))  # and the index
        smaller = db.delete(atom("q", 1))
        assert [str(f) for f in smaller] == ["q(True)"]
        assert list(smaller.match(Atom("q", (Constant(1),)))) == []
        assert len(list(smaller.match(Atom("q", (Constant(True),))))) == 1


class TestSchema:
    def test_declare_and_check(self):
        s = Schema([("p", 2)])
        s.check(atom("p", "a", "b"))
        with pytest.raises(SchemaError):
            s.check(atom("p", "a"))

    def test_strict_unknown_predicate(self):
        s = Schema([("p", 1)], strict=True)
        with pytest.raises(SchemaError):
            s.check(atom("q", "a"))

    def test_open_schema_learns(self):
        s = Schema(strict=False)
        s.check(atom("q", "a"))
        assert "q" in s

    def test_same_name_different_arity_coexist(self):
        # predicate identity is name/arity: p/1 and p/2 are unrelated
        s = Schema([("p", 1)])
        s.declare("p", 2)
        s.check(atom("p", "a"))
        s.check(atom("p", "a", "b"))
        assert ("p", 1) in s and ("p", 2) in s
        assert ("p", 3) not in s

    def test_signatures_sorted(self):
        s = Schema([("b", 1), ("a", 2)])
        assert s.signatures() == (("a", 2), ("b", 1))
