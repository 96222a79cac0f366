"""Unit tests for terms and atoms."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.terms import (
    Atom,
    Constant,
    Variable,
    atom,
    const,
    is_ground,
    term_from_python,
    var,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")
        assert Constant(1) != Constant(2)

    def test_string_and_int_payloads_differ(self):
        assert Constant("1") != Constant(1)

    def test_hashable(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2

    def test_str(self):
        assert str(Constant("lab")) == "lab"
        assert str(Constant(42)) == "42"


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_distinct_from_constant(self):
        assert Variable("X") != Constant("X")

    def test_str(self):
        assert str(Variable("Work")) == "Work"


class TestAtom:
    def test_signature(self):
        a = atom("done", "t1", "w1", "alice")
        assert a.signature == ("done", 3)
        assert a.arity == 3

    def test_propositional_atom(self):
        a = atom("halt")
        assert a.args == ()
        assert str(a) == "halt"

    def test_str_with_args(self):
        a = Atom("p", (Constant("a"), Variable("X")))
        assert str(a) == "p(a, X)"

    def test_is_ground(self):
        assert atom("p", "a", 3).is_ground()
        assert not Atom("p", (Variable("X"),)).is_ground()

    def test_variables_yields_repeats_in_order(self):
        x, y = Variable("X"), Variable("Y")
        a = Atom("p", (x, y, x))
        assert list(a.variables()) == [x, y, x]

    def test_atoms_hashable_and_ordered(self):
        atoms = {atom("p", "a"), atom("p", "a"), atom("q", "a")}
        assert len(atoms) == 2
        assert sorted(atoms) == [atom("p", "a"), atom("q", "a")]


#: Arguments that exercise every branch of the order: ints, strings
#: (``"1"`` stringifies like ``1``), ``True``/``1`` (equal but sorting
#: apart) and variables (equal-named ones are distinct objects).
order_terms = st.sampled_from(
    [Constant(v) for v in (0, 1, 2, "1", "a", "b", True, False)]
) | st.sampled_from(["X", "Y"]).map(Variable)
order_atoms = st.builds(
    Atom,
    st.sampled_from(["p", "q"]),
    st.lists(order_terms, max_size=3).map(tuple),
)


class TestAtomOrder:
    """``Atom.__lt__`` compares only the first differing arguments, yet
    orders exactly as the full sort keys do."""

    @given(order_atoms, order_atoms)
    def test_lt_is_the_sort_key_order(self, a, b):
        assert (a < b) == (a._sort_key() < b._sort_key())

    @given(st.lists(order_atoms, max_size=12))
    def test_sorts_agree(self, atoms):
        by_lt = sorted(atoms)
        assert by_lt == sorted(atoms, key=Atom._sort_key)
        assert [a._sort_key() for a in by_lt] == sorted(a._sort_key() for a in atoms)


class TestConversions:
    def test_term_from_python_passthrough(self):
        v = Variable("X")
        assert term_from_python(v) is v
        c = Constant("a")
        assert term_from_python(c) is c

    def test_term_from_python_wraps_scalars(self):
        assert term_from_python("a") == Constant("a")
        assert term_from_python(7) == Constant(7)

    def test_term_from_python_rejects_other_types(self):
        with pytest.raises(TypeError):
            term_from_python(3.14)
        with pytest.raises(TypeError):
            term_from_python(["list"])

    def test_const_var_helpers(self):
        assert const("a") == Constant("a")
        assert var("X") == Variable("X")

    def test_is_ground_helper(self):
        assert is_ground([atom("p", "a"), atom("q")])
        assert not is_ground([atom("p", "a"), Atom("q", (Variable("X"),))])


class TestInterning:
    """Constants and atoms are hash-consed: equal values are one object."""

    def test_equal_constants_are_identical(self):
        assert Constant("a") is Constant("a")
        assert Constant(7) is Constant(7)

    def test_bool_and_int_do_not_collide(self):
        # True == 1 in Python; the intern key includes the value's type,
        # and equality is identity, so the atoms differ as they print,
        # whichever of them is built first.
        assert Constant(True) is not Constant(1)
        assert Constant(True) != Constant(1)
        assert Constant(False) is not Constant(0)
        assert atom("p", 1) is not atom("p", True)
        assert atom("p", True) is not atom("p", 1)
        assert str(atom("p", True)) == "p(True)"

    def test_equal_atoms_are_identical(self):
        assert atom("p", "a", 1) is atom("p", "a", 1)
        assert atom("p") is atom("p")
        assert Atom("p", (Variable("X"),)) is Atom("p", (Variable("X"),))

    def test_distinct_values_stay_distinct(self):
        assert Constant("a") is not Constant("b")
        assert atom("p", "a") is not atom("q", "a")
        assert atom("p", "a") is not atom("p", "a", "a")

    def test_variables_are_not_interned(self):
        # Fresh variables are minted per rule unfolding; interning them
        # would only add table overhead.  Equality is still by name.
        assert Variable("X") == Variable("X")

    def test_groundness_cached_per_atom(self):
        ground = atom("p", "a")
        open_atom = Atom("p", (Variable("X"),))
        assert ground.is_ground()
        assert not open_atom.is_ground()

    def test_pickle_round_trip_preserves_identity(self):
        import pickle

        for original in (Constant("a"), Constant(7), atom("p", "a", 2)):
            assert pickle.loads(pickle.dumps(original)) is original

    def test_interning_survives_collection_of_other_refs(self):
        # The tables are weak: dropping one reference must not corrupt
        # the identity guarantee for survivors.
        import gc

        keep = Constant("keep-me")
        temp = Constant("temp-%d" % id(keep))
        del temp
        gc.collect()
        assert Constant("keep-me") is keep
