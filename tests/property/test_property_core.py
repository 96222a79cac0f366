"""Property-based tests (hypothesis) for the core data structures and
semantic invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Database, Interpreter, SearchBudgetExceeded, parse_goal, parse_program
from repro.core.formulas import (
    BinOp,
    Builtin,
    Call,
    Conc,
    Del,
    Ins,
    Isol,
    Neg,
    Seq,
    Test,
    Truth,
    apply_subst,
    conc,
    iso,
    seq,
    walk_formulas,
)
from repro.core.parser import parse_goal as pg
from repro.core.terms import Atom, Constant, Variable, atom
from repro.core.por import update_footprint
from repro.core.transitions import (
    canonical_key,
    dead_config,
    dead_step,
    enabled_steps,
    frontier_blocked,
    successor,
)
from repro.core.unify import apply_atom, match_atom, unify_atoms, walk

# -- strategies -------------------------------------------------------------

constants = st.sampled_from([Constant(c) for c in "abcde"]) | st.integers(
    min_value=0, max_value=9
).map(Constant)
variables = st.sampled_from([Variable(v) for v in ("X", "Y", "Z")])
terms = constants | variables
preds = st.sampled_from(["p", "q", "r"])


@st.composite
def atoms(draw, ground=False):
    pred = draw(preds)
    arity = draw(st.integers(min_value=0, max_value=3))
    pool = constants if ground else terms
    args = tuple(draw(pool) for _ in range(arity))
    return Atom(pred, args)


@st.composite
def databases(draw):
    facts = draw(st.lists(atoms(ground=True), max_size=12))
    return Database(facts)


# -- database laws ------------------------------------------------------------


class TestDatabaseLaws:
    @given(databases(), atoms(ground=True))
    def test_insert_then_contains(self, db, fact):
        assert fact in db.insert(fact)

    @given(databases(), atoms(ground=True))
    def test_delete_then_absent(self, db, fact):
        assert fact not in db.delete(fact)

    @given(databases(), atoms(ground=True))
    def test_insert_idempotent(self, db, fact):
        once = db.insert(fact)
        assert once.insert(fact) == once

    @given(databases(), atoms(ground=True))
    def test_delete_inverts_insert_on_fresh_fact(self, db, fact):
        if fact not in db:
            assert db.insert(fact).delete(fact) == db

    @given(databases(), atoms(ground=True), atoms(ground=True))
    def test_independent_updates_commute(self, db, f1, f2):
        if f1 != f2:
            assert db.insert(f1).insert(f2) == db.insert(f2).insert(f1)
            assert db.delete(f1).delete(f2) == db.delete(f2).delete(f1)

    @given(databases())
    def test_iteration_reconstructs(self, db):
        assert Database(list(db)) == db

    @given(databases(), databases())
    def test_equality_is_content(self, d1, d2):
        assert (d1 == d2) == (set(d1) == set(d2))


# -- incremental updates against a rebuilt state ----------------------------------

# Fixed arities, so a pattern can bind any position of its predicate.
UPDATE_ARITIES = {"p": 1, "q": 2, "r": 2}
UPDATE_CONSTANTS = [Constant(c) for c in ("a", "b", "c")] + [
    Constant(i) for i in range(3)
]


def _update_patterns():
    """Per predicate: the all-variable pattern, and every pattern that
    binds one argument position to one constant."""
    free = (Variable("X"), Variable("Y"))
    for pred, arity in sorted(UPDATE_ARITIES.items()):
        yield Atom(pred, free[:arity])
        for pos in range(arity):
            for c in UPDATE_CONSTANTS:
                yield Atom(pred, free[:pos] + (c,) + free[pos + 1 : arity])


UPDATE_PATTERNS = list(_update_patterns())


@st.composite
def update_facts(draw):
    pred = draw(st.sampled_from(sorted(UPDATE_ARITIES)))
    args = st.sampled_from(UPDATE_CONSTANTS)
    return Atom(pred, tuple(draw(args) for _ in range(UPDATE_ARITIES[pred])))


update_ops = st.one_of(
    st.tuples(st.sampled_from(["ins", "del"]), update_facts()),
    st.tuples(st.just("warm"), st.sampled_from(UPDATE_PATTERNS)),
)


def shared_view(db):
    """A state equal to *db* that reads its query caches but builds any
    missing ones for itself, so checking it never warms *db*."""
    view = Database._from_index(db._index)
    view._sorted = dict(db._sorted)
    view._argidx = dict(db._argidx)
    return view


class TestIncrementalUpdates:
    """Copy-on-write updates (bisected deletes, ordered inserts, shared
    caches) agree with a state rebuilt from a plain set after every
    step, whichever caches were warm when the step ran."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(update_ops, max_size=40))
    def test_updates_agree_with_rebuilt_state(self, ops):
        db, model = Database(), frozenset()
        history = [(db, model)]
        for op, item in ops:
            if op == "ins":
                db, model = db.insert(item), model | {item}
            elif op == "del":
                db, model = db.delete(item), model - {item}
            else:
                list(db.match(item))
            rebuilt, view = Database(model), shared_view(db)
            assert list(view) == list(rebuilt) == sorted(model)
            assert len(view) == len(rebuilt) == len(model)
            assert view == rebuilt and hash(view) == hash(rebuilt)
            for pattern in UPDATE_PATTERNS:
                assert list(view.match(pattern)) == list(rebuilt.match(pattern))
            for earlier, earlier_model in history:
                assert db.difference(earlier) == model - earlier_model
                assert earlier.difference(db) == earlier_model - model
            history.append((db, model))


# -- checks under a step's substitution ------------------------------------------

THETA_ARITIES = {"p": 1, "q": 2, "r": 2}
THETA_VARS = [Variable(v) for v in ("X", "Y", "Z")]
THETA_CONSTS = [Constant(i) for i in range(3)]
theta_terms = st.sampled_from(THETA_VARS + THETA_CONSTS)
theta_preds = st.sampled_from(sorted(THETA_ARITIES))


@st.composite
def theta_atoms(draw, ground=False):
    pred = draw(theta_preds)
    pool = st.sampled_from(THETA_CONSTS) if ground else theta_terms
    return Atom(pred, tuple(draw(pool) for _ in range(THETA_ARITIES[pred])))


theta_exprs = st.recursive(
    theta_terms,
    lambda sub: st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
    max_leaves=3,
)
theta_leaves = st.one_of(
    *(st.builds(kind, theta_atoms()) for kind in (Test, Neg, Ins, Del, Call)),
    st.builds(
        Builtin,
        st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "is"]),
        theta_exprs,
        theta_exprs,
    ),
)
theta_formulas = st.recursive(
    theta_leaves,
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: seq(*ps)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: conc(*ps)),
        sub.map(iso),
    ),
    max_leaves=8,
)
pred_sets = st.frozensets(theta_preds)


@st.composite
def thetas(draw):
    """Idempotent substitutions: each bound variable maps to a constant
    or to a variable the substitution leaves unbound."""
    domain = draw(st.sets(st.sampled_from(THETA_VARS)))
    values = st.sampled_from(THETA_CONSTS + [v for v in THETA_VARS if v not in domain])
    return {v: draw(values) for v in THETA_VARS if v in domain}


@st.composite
def theta_databases(draw):
    return Database(draw(st.lists(theta_atoms(ground=True), max_size=8)))


def _outcome(check, *args):
    """A check's verdict, or the type of the exception it raised."""
    try:
        return check(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def _dead_reference(f, db, ins, dels):
    """:func:`dead_config`'s definition, by recursion over the frontier."""
    if isinstance(f, Test):
        return f.atom.pred not in ins and not db.holds(f.atom)
    if isinstance(f, Neg):
        # Only a ground absence test: a sibling may bind a variable.
        return f.atom.pred not in dels and f.atom.is_ground() and db.holds(f.atom)
    if isinstance(f, Builtin):
        try:
            return f.evaluate({}) is None
        except ValueError:
            return False
    if isinstance(f, Seq):
        return _dead_reference(f.parts[0], db, ins, dels)
    if isinstance(f, Conc):
        return any(_dead_reference(p, db, ins, dels) for p in f.parts)
    if isinstance(f, Isol):
        return _dead_reference(f.body, db, ins, dels)
    return False


def _rebuilt(f, theta):
    """``apply_subst`` through the flattening constructors."""
    if isinstance(f, Seq):
        return Seq(tuple(_rebuilt(p, theta) for p in f.parts))
    if isinstance(f, Conc):
        return Conc(tuple(_rebuilt(p, theta) for p in f.parts))
    if isinstance(f, Isol):
        return Isol(_rebuilt(f.body, theta), f.budget)
    if isinstance(f, Builtin):
        left, right = _rebuilt_expr(f.left, theta), _rebuilt_expr(f.right, theta)
        return Builtin(f.op, left, right)
    if isinstance(f, Truth):
        return f
    return type(f)(apply_atom(f.atom, theta))


def _rebuilt_expr(expr, theta):
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, _rebuilt_expr(expr.left, theta), _rebuilt_expr(expr.right, theta)
        )
    return walk(expr, theta)


class TestSubstitutionAwareChecks:
    """The frontier checks take a step's substitution and apply it at the
    leaves: the verdict (or the exception raised) equals the check on the
    substituted tree, and, for dead_config, the recursive definition's;
    the tree ``apply_subst`` builds equals the one the flattening
    constructors build."""

    @settings(max_examples=300, deadline=None)
    @given(theta_formulas, theta_databases(), thetas(), pred_sets, pred_sets)
    def test_dead_config_under_theta(self, f, db, theta, ins, dels):
        applied = apply_subst(f, theta)
        verdict = _outcome(dead_config, f, db, ins, dels, theta)
        assert verdict == _outcome(dead_config, applied, db, ins, dels)
        assert verdict == _outcome(_dead_reference, applied, db, ins, dels)

    @settings(max_examples=300, deadline=None)
    @given(theta_formulas, theta_databases(), thetas())
    def test_frontier_blocked_under_theta(self, f, db, theta):
        assert _outcome(frontier_blocked, f, db, theta) == _outcome(
            frontier_blocked, apply_subst(f, theta), db
        )

    @settings(max_examples=300, deadline=None)
    @given(theta_formulas, thetas())
    def test_apply_subst_matches_constructors(self, f, theta):
        applied, reference = apply_subst(f, theta), _rebuilt(f, theta)
        assert applied == reference
        assert hash(applied) == hash(reference)
        assert str(applied) == str(reference)
        for node in walk_formulas(applied):
            if isinstance(node, (Seq, Conc)):
                assert not any(isinstance(p, (type(node), Truth)) for p in node.parts)


#: Rules for the generated calls (``p/1``, ``q/2``, ``r/2``): unfolding
#: binds the caller's variables, and bodies put fresh guards, ``true`` or
#: a concurrent composition at the stepped position.
STEP_PROGRAM = parse_program(
    """
    p(0).
    p(X) <- X > 1.
    q(X, 1) <- r(X, X) * X = 2.
    q(2, Y) <- iso(Y is 1 + 1) | p(Y).
    r(X, Y) <- p(X) * p(Y).
    """
)


def _no_iso(body, db, cap=None):
    return iter(())


def _without_iso(f):
    """*f* with every ``iso`` replaced by its body, so its redexes step
    without a nested search."""
    if isinstance(f, Isol):
        return _without_iso(f.body)
    if isinstance(f, Seq):
        return seq(*map(_without_iso, f.parts))
    if isinstance(f, Conc):
        return conc(*map(_without_iso, f.parts))
    return f


class TestIncrementalDeadCheck:
    """Out of a live configuration, :func:`dead_step` re-checks only the
    guards a step can flip; its verdict is the full :func:`dead_config`
    of the step's successor, and :func:`successor` builds the tree that
    substituting the plugged residual builds.  Each configuration runs
    a formula whose redexes step beside one that may keep guards inside
    an ``iso``."""

    @settings(max_examples=400, deadline=None)
    @given(theta_formulas, theta_formulas, theta_databases(), pred_sets, pred_sets)
    def test_dead_step_matches_dead_config(self, stepping, other, db, ins, dels):
        f = conc(_without_iso(stepping), other)
        if dead_config(f, db, ins, dels):
            return
        for step in enabled_steps(STEP_PROGRAM, f, db, _no_iso):
            verdict = dead_step(step, f, ins, dels)
            assert verdict == dead_config(
                step.residual, step.database, ins, dels, step.subst
            )
            assert successor(step) == apply_subst(step.residual, step.subst)


class TestDeadConfigSound:
    """A configuration :func:`dead_config` prunes has no solution: the
    unreduced, untabled search finds none from it, given the footprint
    of the program and the configuration itself.  Searches that exhaust
    their small budget decide nothing and are skipped."""

    @settings(max_examples=500, deadline=None)
    @given(theta_formulas, theta_databases(), thetas())
    def test_dead_means_no_solution(self, f, db, theta):
        f = apply_subst(f, theta)
        ins, dels = update_footprint(STEP_PROGRAM, f)
        if not dead_config(f, db, ins, dels):
            return
        interp = Interpreter(STEP_PROGRAM, por=False, tabling=False, max_configs=300)
        try:
            solution = next(iter(interp.solve(f, db)), None)
        except SearchBudgetExceeded:
            return
        assert solution is None


# -- unification laws -----------------------------------------------------------


class TestUnificationLaws:
    @given(atoms(), atoms())
    def test_unifier_actually_unifies(self, a1, a2):
        theta = unify_atoms(a1, a2)
        if theta is not None:
            assert apply_atom(a1, theta) == apply_atom(a2, theta)

    @given(atoms(), atoms(ground=True))
    def test_match_instantiates_to_fact(self, pattern, fact):
        theta = match_atom(pattern, fact)
        if theta is not None:
            assert apply_atom(pattern, theta) == fact

    @given(atoms())
    def test_self_unification_is_trivial(self, a):
        theta = unify_atoms(a, a)
        assert theta is not None
        assert apply_atom(a, theta) == a


# -- canonical key laws -----------------------------------------------------------


class TestCanonicalKeyLaws:
    @given(atoms(), atoms())
    def test_conc_commutative_under_key(self, a1, a2):
        from repro.core.formulas import Call

        f1 = conc(Call(a1), Call(a2))
        f2 = conc(Call(a2), Call(a1))
        assert canonical_key(f1, sort_conc=True) == canonical_key(f2, sort_conc=True)

    @given(atoms())
    def test_key_stable(self, a):
        from repro.core.formulas import Call

        f = seq(Call(a), Call(a))
        assert canonical_key(f) == canonical_key(f)


# -- semantic invariants ------------------------------------------------------------


def _finals(prog_text, goal_text, db):
    interp = Interpreter(parse_program(prog_text), max_configs=100_000)
    return interp.final_databases(parse_goal(goal_text), db)


class TestSemanticInvariants:
    @settings(max_examples=25, deadline=None)
    @given(databases())
    def test_query_preserves_database(self, db):
        finals = _finals("x <- y.", "p(X)", db)
        for final in finals:
            assert final == db

    @settings(max_examples=25, deadline=None)
    @given(databases(), atoms(ground=True))
    def test_ins_is_union(self, db, fact):
        goal = "ins.%s" % fact
        (final,) = _finals("x <- y.", goal, db)
        assert final == db.insert(fact)

    @settings(max_examples=20, deadline=None)
    @given(databases())
    def test_conc_of_inserts_order_independent(self, db):
        finals = _finals("x <- y.", "ins.m1 | ins.m2", db)
        assert finals == {db.insert(atom("m1")).insert(atom("m2"))}

    @settings(max_examples=20, deadline=None)
    @given(databases())
    def test_iso_equals_body_when_alone(self, db):
        # with no siblings, iso(a) and a have the same final states
        with_iso = _finals("x <- y.", "iso(del.p(a) * ins.q(b))", db)
        without = _finals("x <- y.", "del.p(a) * ins.q(b)", db)
        assert with_iso == without

    @settings(max_examples=15, deadline=None)
    @given(databases())
    def test_seq_associativity_semantics(self, db):
        lhs = _finals("x <- y.", "(ins.a * del.b) * ins.c", db)
        rhs = _finals("x <- y.", "ins.a * (del.b * ins.c)", db)
        assert lhs == rhs

    @settings(max_examples=15, deadline=None)
    @given(databases())
    def test_conc_commutativity_semantics(self, db):
        lhs = _finals("x <- y.", "(ins.a * del.c) | del.b", db)
        rhs = _finals("x <- y.", "del.b | (ins.a * del.c)", db)
        assert lhs == rhs
