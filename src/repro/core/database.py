"""Immutable database states.

A TD execution is a sequence of database states, and the semantics of a
transaction is a *binary relation on states* (which states it can carry
the database from and to).  That makes hashable, immutable states the
central data structure of the whole system: engines memoize and table
on them, and property tests compare them.

A :class:`Database` is a frozenset of ground atoms with a predicate index
for fast tuple tests.  Updates return new databases and share the
underlying index dictionaries where possible (persistent-data-structure
style sharing keeps the small-step search affordable).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import context as _obs
from .terms import Atom, Constant, Signature, Term, Variable
from .unify import Substitution, walk

__all__ = ["Database", "Schema", "SchemaError", "plan_join"]


class SchemaError(ValueError):
    """Raised when a fact or operation violates the database schema."""


class Schema:
    """A database schema: a finite set of base predicate signatures.

    The paper fixes the schema when measuring data complexity; keeping it
    explicit also catches arity typos in hand-written programs early.
    A schema may be *open* (``strict=False``), in which case unknown
    predicates are admitted on first use -- convenient for quick scripts.

    Predicates are identified by *name/arity*: ``p/1`` and ``p/2`` are
    unrelated and may coexist (the usual Datalog convention).
    ``name in schema`` asks whether any arity of *name* is declared;
    ``(name, arity) in schema`` asks for the exact signature.
    """

    def __init__(self, signatures: Iterable[Signature] = (), strict: bool = True):
        self._signatures: set = set()
        self.strict = strict
        for name, arity in signatures:
            self.declare(name, arity)

    def declare(self, name: str, arity: int) -> None:
        self._signatures.add((name, arity))

    def check(self, fact: Atom) -> None:
        if fact.signature in self._signatures:
            return
        if self.strict:
            raise SchemaError(
                "unknown base predicate %s/%d" % (fact.pred, fact.arity)
            )
        self.declare(fact.pred, fact.arity)

    def __contains__(self, key) -> bool:
        if isinstance(key, tuple):
            return key in self._signatures
        return any(name == key for name, _arity in self._signatures)

    def signatures(self) -> Tuple[Signature, ...]:
        return tuple(sorted(self._signatures))

    def __repr__(self) -> str:
        sigs = ", ".join("%s/%d" % s for s in self.signatures())
        return "Schema(%s)" % sigs


def _with(facts: list, fact: Atom) -> list:
    """A copy of the sorted list *facts* with *fact* inserted in order."""
    new = list(facts)
    insort(new, fact)
    return new


def _without(facts: list, fact: Atom) -> list:
    """A copy of the sorted list *facts*, which holds *fact*, with *fact*
    removed.  Equal facts share a sort key, so bisection finds it in
    O(log n) comparisons; the copy runs at C speed."""
    i = bisect_left(facts, fact)
    return facts[:i] + facts[i + 1 :]


class _Plan:
    """A tuple-test pattern's arguments resolved through a substitution,
    and how to test a fact against them.

    *args* holds each argument walked to a constant or to an unbound
    variable.  *first* is the first position holding a constant (``-1``
    if none), which picks the index :meth:`Database.match` probes;
    *checks* pairs every later constant position with its constant;
    *binds* pairs each variable with the position of its first
    occurrence; *repeats* pairs each further occurrence's position with
    that first one.  A pattern with no *binds* is ground.
    """

    __slots__ = ("args", "first", "checks", "binds", "repeats")

    def __init__(self, args: Tuple[Term, ...], subst: Substitution):
        resolved: List[Term] = []
        first = -1
        checks: List[Tuple[int, Constant]] = []
        binds: List[Tuple[Variable, int]] = []
        repeats: List[Tuple[int, int]] = []
        for pos, term in enumerate(args):
            while term.__class__ is Variable:
                value = subst.get(term)
                if value is None:
                    for var, earlier in binds:
                        if var.name == term.name:
                            repeats.append((pos, earlier))
                            break
                    else:
                        binds.append((term, pos))
                    break
                term = value
            else:
                if first < 0:
                    first = pos
                else:
                    checks.append((pos, term))
            resolved.append(term)
        self.args = tuple(resolved)
        self.first = first
        self.checks = checks
        self.binds = binds
        self.repeats = repeats


class Database:
    """An immutable set of ground atoms, indexed by predicate.

    Equality and hashing are by content, so two databases reached along
    different execution paths compare equal -- the property every memo
    table in the engines relies on.
    """

    __slots__ = ("_index", "_hash", "_sorted", "_argidx")

    def __init__(self, facts: Iterable[Atom] = ()):
        index: Dict[str, FrozenSet[Atom]] = {}
        staging: Dict[str, set] = {}
        for fact in facts:
            if not fact.is_ground():
                raise ValueError("database facts must be ground: %s" % (fact,))
            staging.setdefault(fact.pred, set()).add(fact)
        for pred, group in staging.items():
            index[pred] = frozenset(group)
        self._index = index
        self._hash: Optional[int] = None
        self._sorted: Dict[str, list] = {}
        self._argidx: Dict[Tuple[str, int], Dict] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_index(cls, index: Dict[str, FrozenSet[Atom]]) -> "Database":
        db = cls.__new__(cls)
        db._index = index
        db._hash = None
        db._sorted = {}
        db._argidx = {}
        return db

    # -- lazy per-instance query caches ----------------------------------------
    #
    # The cached structures are never mutated after they are built, so a
    # successor state produced by insert/delete can adopt them wholesale
    # for untouched predicates and copy-on-write just the touched
    # predicate's entries (see ``_derive``) -- the small-step search
    # then pays index-build cost once per predicate, not once per state.

    def _sorted_facts(self, pred: str) -> list:
        cached = self._sorted.get(pred)
        if cached is None:
            # One key per fact instead of two per comparison.
            cached = sorted(self._index.get(pred, ()), key=Atom._sort_key)
            self._sorted[pred] = cached
        return cached

    def _arg_index(self, pred: str, pos: int) -> Dict:
        """Per-position index, built lazily for whichever argument
        positions queries actually bind: joins like ``e(X, A) * e(A, B)``
        probe the second relation by its bound first argument, and
        ``e(A, B) * e(X, B)`` probes by the second -- each position gets
        its own index the first time a query needs it."""
        cached = self._argidx.get((pred, pos))
        if cached is None:
            cached = {}
            for fact in self._sorted_facts(pred):
                # A fact of *pred* at a smaller arity has no argument
                # here, so no pattern bound at *pos* can match it.
                if pos < len(fact.args):
                    cached.setdefault(fact.args[pos], []).append(fact)
            self._argidx[(pred, pos)] = cached
        return cached

    def arg_index(self, pred: str, pos: int) -> Dict:
        """Public name for :meth:`_arg_index`, part of the
        :class:`repro.store.Store` query surface.  Treat the returned
        mapping as read-only: it is shared copy-on-write across
        successor states.  A value may map to an empty bucket: a delete
        that removes a value's last fact keeps its key.  Once an index
        holds more than twice as many keys as its predicate has facts, a
        delete drops it, and the next probe rebuilds it from the live
        facts."""
        return self._arg_index(pred, pos)

    def _derive(self, pred: str, fact: Atom, removed: bool) -> "Database":
        """A successor state differing from ``self`` by one fact of
        *pred*, with query caches shared for every untouched predicate
        and updated copy-on-write for *pred* itself."""
        group = self._index.get(pred, frozenset())
        new_index = dict(self._index)
        if removed:
            new_group = group - {fact}
            if new_group:
                new_index[pred] = new_group
            else:
                del new_index[pred]
        else:
            new_index[pred] = group | {fact}
        db = Database._from_index(new_index)
        for p, lst in self._sorted.items():
            if p != pred:
                db._sorted[p] = lst
        old_sorted = self._sorted.get(pred)
        if old_sorted is not None:
            db._sorted[pred] = (
                _without(old_sorted, fact) if removed else _with(old_sorted, fact)
            )
        arity = len(fact.args)
        for key, idx in self._argidx.items():
            pos = key[1]
            if key[0] != pred or pos >= arity:
                # Another predicate, or a position *fact* is too short
                # to have (see ``_arg_index``): shared unchanged.
                db._argidx[key] = idx
                continue
            if removed and len(idx) > 2 * (len(group) - 1):
                # More keys than twice the facts left: the emptied
                # buckets outnumber the live keys.  Drop the index; the
                # next probe rebuilds it from the live facts.
                continue
            value = fact.args[pos]
            # A delete leaves an emptied bucket in place: popping its key
            # would leave a dummy slot that every later ``copy`` clones.
            new_idx = idx.copy()
            bucket = new_idx.get(value, [])
            new_idx[value] = (
                _without(bucket, fact) if removed else _with(bucket, fact)
            )
            db._argidx[key] = new_idx
        return db

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[Tuple]]) -> "Database":
        """Build a database from ``{pred: [args-tuple, ...]}``.

        Argument tuples may contain raw strings/ints; they are wrapped in
        constants.  ``{"p": [("a",), ("b",)]}`` gives ``{p(a), p(b)}``.
        """
        facts: List[Atom] = []
        for pred, rows in mapping.items():
            for row in rows:
                if not isinstance(row, tuple):
                    row = (row,)
                args = tuple(
                    arg if isinstance(arg, Constant) else Constant(arg) for arg in row
                )
                facts.append(Atom(pred, args))
        return cls(facts)

    # -- set interface --------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        group = self._index.get(fact.pred)
        return group is not None and fact in group

    def __iter__(self) -> Iterator[Atom]:
        for pred in sorted(self._index):
            yield from self._sorted_facts(pred)

    def __len__(self) -> int:
        return sum(len(g) for g in self._index.values())

    def __bool__(self) -> bool:
        return any(self._index.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._index == other._index

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._index.items()))
        return self._hash

    def __repr__(self) -> str:
        return "Database{%s}" % (", ".join(str(f) for f in self))

    # -- queries ---------------------------------------------------------------

    def facts(self, pred: str) -> FrozenSet[Atom]:
        """All facts for a predicate (empty frozenset if none)."""
        return self._index.get(pred, frozenset())

    def predicates(self) -> AbstractSet[str]:
        """Predicates that currently have at least one fact."""
        return {p for p, g in self._index.items() if g}

    def match(
        self, pattern: Atom, subst: Substitution = {}
    ) -> Iterator[Substitution]:
        """Tuple testing: one extended substitution per fact that
        matches *pattern* under *subst*, in the predicate's sorted order.

        This is the elementary query operation of TD.  The pattern's
        arguments are resolved through *subst* once, into a tuple, and
        no pattern atom is built: a ground pattern is a membership test
        through :meth:`Atom.interned`, yielding at most once, and a
        pattern with variables enumerates the facts its first bound
        argument indexes (or all of them), counting one
        ``unify.attempts`` per fact it tries.
        """
        group = self._index.get(pattern.pred)
        if not group:
            return iter(())
        plan = _Plan(pattern.args, subst)
        if not plan.binds:
            fact = Atom.interned(pattern.pred, plan.args)
            return iter((subst,) if fact is not None and fact in group else ())
        return self._bind(pattern.pred, plan, subst)

    def _bind(
        self, pred: str, plan: _Plan, subst: Substitution
    ) -> Iterator[Substitution]:
        """The facts of *pred* that a non-ground *plan* selects, each
        tried against the resolved arguments and bound into a copy of
        *subst*: one ``unify.attempts`` per fact tried."""
        first = plan.first
        candidates = (
            self._sorted_facts(pred)
            if first < 0
            else self._arg_index(pred, first).get(plan.args[first], ())
        )
        arity = len(plan.args)
        checks, repeats, binds = plan.checks, plan.repeats, plan.binds
        # Re-read after each answer: the slot may change between pulls,
        # and each attempt counts for the observers active when it runs.
        observers = _obs._ACTIVE
        for fact in candidates:
            if observers is not None:
                observers.unified(pred)
            fargs = fact.args
            if len(fargs) != arity:
                continue
            for pos, value in checks:
                if fargs[pos] is not value:
                    break
            else:
                for pos, earlier in repeats:
                    if fargs[pos] is not fargs[earlier]:
                        break
                else:
                    out = dict(subst)
                    for var, pos in binds:
                        out[var] = fargs[pos]
                    yield out
                    observers = _obs._ACTIVE

    def holds(self, pattern: Atom, subst: Substitution = {}) -> bool:
        """True if at least one fact matches *pattern*."""
        for _ in self.match(pattern, subst):
            return True
        return False

    # -- updates ----------------------------------------------------------------

    def insert(self, fact: Atom) -> "Database":
        """Elementary insertion ``ins.p(t)``: a new state with *fact* added.

        Inserting an already-present fact is a no-op returning ``self``
        (database states are sets, as in the paper).
        """
        if not fact.is_ground():
            raise ValueError("cannot insert non-ground fact: %s" % (fact,))
        group = self._index.get(fact.pred, frozenset())
        if fact in group:
            return self
        return self._derive(fact.pred, fact, removed=False)

    def delete(self, fact: Atom) -> "Database":
        """Elementary deletion ``del.p(t)``: a new state with *fact* removed.

        Deleting an absent fact is a no-op returning ``self``.
        """
        if not fact.is_ground():
            raise ValueError("cannot delete non-ground fact: %s" % (fact,))
        group = self._index.get(fact.pred)
        if group is None or fact not in group:
            return self
        return self._derive(fact.pred, fact, removed=True)

    def insert_all(self, facts: Iterable[Atom]) -> "Database":
        """One successor state holding *facts* too.

        Unlike a chain of :meth:`insert` calls, this derives one state
        for the whole batch: untouched predicates keep their query
        caches, and a touched predicate's are rebuilt on first use, in
        the order :meth:`insert` would have kept them."""
        index = self._index
        added: Dict[str, set] = {}
        for fact in facts:
            if not fact.is_ground():
                raise ValueError("cannot insert non-ground fact: %s" % (fact,))
            group = index.get(fact.pred)
            if group is None or fact not in group:
                added.setdefault(fact.pred, set()).add(fact)
        if not added:
            return self
        new_index = dict(index)
        for pred, new in added.items():
            group = index.get(pred)
            new_index[pred] = frozenset(new) if group is None else group | new
        db = Database._from_index(new_index)
        for pred, lst in self._sorted.items():
            if pred not in added:
                db._sorted[pred] = lst
        for key, idx in self._argidx.items():
            if key[0] not in added:
                db._argidx[key] = idx
        return db

    def delete_all(self, facts: Iterable[Atom]) -> "Database":
        db = self
        for fact in facts:
            db = db.delete(fact)
        return db

    # -- comparison helpers -----------------------------------------------------

    def difference(self, other: "Database") -> FrozenSet[Atom]:
        """Facts present here but not in *other* (for delta reporting).

        Works predicate by predicate, skipping the groups a successor
        state shares with its parent, so the cost follows the
        predicates that differ rather than the size of the state."""
        changed = [
            group - other._index.get(pred, frozenset())
            for pred, group in self._index.items()
            if other._index.get(pred) is not group
        ]
        return frozenset().union(*changed)


def plan_join(
    atoms: Sequence[Atom], db: Database, theta: Substitution = {}
) -> List[int]:
    """Greedy join order for a conjunction of *atoms* against *db*, as
    indices into *atoms*.

    Repeatedly picks the atom with the fewest still-unbound variable
    arguments (a bound argument lets :meth:`Database.match` probe the
    per-``(pred, position)`` index instead of scanning every fact of
    the predicate), breaking ties by relation size, then by textual
    position; the chosen atom's variables are bound from then on.
    Arguments are resolved through *theta*, the bindings in force where
    the conjunction runs.  Any order enumerates the same substitutions;
    only the fan-out differs.
    """
    free = [
        [v for v in (walk(t, theta) for t in a.args) if isinstance(v, Variable)]
        for a in atoms
    ]
    sizes = [len(db.facts(a.pred)) for a in atoms]
    bound: Set[Variable] = set()

    def rank(i: int):
        unbound = 0
        for v in free[i]:
            if v not in bound:
                unbound += 1
        return (unbound, sizes[i], i)

    remaining = list(range(len(atoms)))
    order: List[int] = []
    while remaining:
        i = min(remaining, key=rank)
        remaining.remove(i)
        order.append(i)
        bound.update(free[i])
    return order
