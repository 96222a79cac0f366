"""First-order terms and atoms for Transaction Datalog and classical Datalog.

Transaction Datalog (TD) is a function-free logic language: a *term* is
either a constant or a variable, and an *atom* is a predicate symbol
applied to a tuple of terms.  Everything here is immutable and hashable so
that ground atoms can live inside frozenset-based database states and so
that whole process configurations can be memoized.

The module deliberately keeps the data model tiny and explicit:

* :class:`Constant` -- an uninterpreted constant (wraps a Python value).
* :class:`Variable` -- a logical variable, identified by name.
* :class:`Atom` -- ``pred(t1, ..., tn)``.

Constants compare by value, variables by name.  ``Atom`` exposes the
predicate *signature* ``name/arity`` used throughout schema handling.

Hash-consing
------------

Constants and atoms are *interned*: constructing ``Constant("a")`` (or an
``Atom`` with the same predicate and arguments) twice returns the same
object.  The engines hash these objects constantly -- every database
state is a frozenset of atoms, every memo table keys on them -- so each
instance precomputes its hash once, equality gets an identity fast path,
and ``Atom`` caches its groundness.  The intern tables hold their entries
weakly, so transient pattern atoms from a search are reclaimed with the
search.  Interning is a cache, not an identity guarantee: equality is
still by value, and code must never rely on ``is`` for term comparison.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Tuple, Union

__all__ = [
    "Constant",
    "Variable",
    "Term",
    "Atom",
    "Signature",
    "atom",
    "const",
    "var",
    "is_ground",
    "term_from_python",
]


# Python payload types allowed inside a Constant.  Strings and integers
# cover everything in the paper's examples (work-item ids, agent names,
# task names, account balances).
ConstValue = Union[str, int]


class Constant:
    """An uninterpreted constant symbol.

    TD treats constants as uninterpreted (genericity); arithmetic shows up
    only through built-in comparison atoms handled by the engines.

    Ordering is total but purely syntactic (integers sort apart from
    strings) -- it exists so databases iterate deterministically, not to
    compare values; use builtins for value comparisons.  Constants are
    interned per ``(type, value)``, so equality is identity:
    ``Constant(True) != Constant(1)``, as their renderings differ.
    """

    __slots__ = ("value", "_hash", "__weakref__")

    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, value: ConstValue):
        key = (value.__class__, value)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((cls, value)))
        cls._interned[key] = self
        return self

    def __setattr__(self, name, _value):
        raise AttributeError("Constant is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Constant, (self.value,))

    def _sort_key(self):
        return ("c", type(self.value).__name__, str(self.value))

    def __lt__(self, other):
        if isinstance(other, (Constant, Variable)):
            return self._sort_key() < other._sort_key()
        return NotImplemented

    def __repr__(self) -> str:
        return "Constant(value=%r)" % (self.value,)

    def __str__(self) -> str:
        return str(self.value)


class Variable:
    """A logical variable.  Names conventionally start with an uppercase
    letter or underscore (the parser enforces this for concrete syntax).

    Variables are *not* interned -- call unfolding freshens them with a
    global counter, so most are short-lived -- but each instance caches
    its hash, which substitution dictionaries probe constantly.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((Variable, name)))

    def __setattr__(self, name, _value):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Variable):
            return self.name == other.name
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Variable, (self.name,))

    def _sort_key(self):
        return ("v", "", self.name)

    def __lt__(self, other):
        if isinstance(other, (Constant, Variable)):
            return self._sort_key() < other._sort_key()
        return NotImplemented

    def __repr__(self) -> str:
        return "Variable(name=%r)" % (self.name,)

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, Variable]

#: A predicate signature: (name, arity).
Signature = Tuple[str, int]


class Atom:
    """A (possibly non-ground) atom ``pred(args)``.

    Atoms are used in three roles in TD, distinguished by context rather
    than by type: facts in a database state (ground), tuple tests /
    elementary updates on base predicates, and calls to derived
    predicates defined by rules.
    """

    __slots__ = ("pred", "args", "_hash", "_ground", "__weakref__")

    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, pred: str, args: Tuple[Term, ...] = ()):
        key = (pred, args)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((cls, pred, args)))
        object.__setattr__(
            self, "_ground", all(isinstance(t, Constant) for t in args)
        )
        cls._interned[key] = self
        return self

    def __setattr__(self, name, _value):
        raise AttributeError("Atom is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Atom):
            return self.pred == other.pred and self.args == other.args
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.pred, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def signature(self) -> Signature:
        return (self.pred, len(self.args))

    def is_ground(self) -> bool:
        return self._ground

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of this atom, left to right, with repeats."""
        for t in self.args:
            if isinstance(t, Variable):
                yield t

    def _sort_key(self):
        return (self.pred, tuple(t._sort_key() for t in self.args))

    def __lt__(self, other):
        # The order of ``_sort_key``, without building either key: only
        # the first pair of arguments that differ is compared.  Interned
        # constants make ``is`` a cheap skip; equal-named variables are
        # distinct objects with equal keys, so their keys still decide.
        if not isinstance(other, Atom):
            return NotImplemented
        if self.pred != other.pred:
            return self.pred < other.pred
        for mine, theirs in zip(self.args, other.args):
            if mine is not theirs:
                mine, theirs = mine._sort_key(), theirs._sort_key()
                if mine != theirs:
                    return mine < theirs
        return len(self.args) < len(other.args)

    def __repr__(self) -> str:
        return "Atom(pred=%r, args=%r)" % (self.pred, self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ", ".join(str(t) for t in self.args))


def term_from_python(value: Union[Term, ConstValue]) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Existing terms pass through; strings and ints become constants.  This
    is the convenience layer used by the fluent API and the test suite.
    """
    if isinstance(value, (Constant, Variable)):
        return value
    if isinstance(value, (str, int)):
        return Constant(value)
    raise TypeError("cannot convert %r to a term" % (value,))


def atom(pred: str, *args: Union[Term, ConstValue]) -> Atom:
    """Convenience constructor: ``atom('p', 'a', Variable('X'))``."""
    return Atom(pred, tuple(term_from_python(a) for a in args))


def const(value: ConstValue) -> Constant:
    """Convenience constructor for a constant."""
    return Constant(value)


def var(name: str) -> Variable:
    """Convenience constructor for a variable."""
    return Variable(name)


def is_ground(atoms: Iterable[Atom]) -> bool:
    """True if every atom in *atoms* is ground."""
    return all(a.is_ground() for a in atoms)
