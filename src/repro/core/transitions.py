"""Small-step operational semantics of Transaction Datalog.

A *configuration* pairs a residual process (a formula; ``true`` means
finished) with a database state.  The transition relation below is the
procedural interpretation from the paper:

* an elementary operation (tuple test, ``ins``, ``del``, absence test,
  builtin) executes atomically, possibly binding variables;
* a call to a derived predicate unfolds, nondeterministically, into the
  body of any rule whose head unifies with it;
* ``a * b`` (sequential composition) steps in ``a`` until it finishes;
* ``a | b`` (concurrent composition) steps in either side -- the
  interleaving semantics through which concurrent TD processes
  communicate via the database;
* ``iso(a)`` contributes a *single* transition for each complete
  execution of ``a`` from the current state: isolation means no sibling
  steps are interleaved within ``a``.

Bindings made by a step apply to the *entire* residual process, which is
how a value read by one concurrent branch becomes visible to another
branch sharing the variable.

The module also provides configuration canonicalization (variables are
renamed apart in traversal order, and concurrent branches are optionally
sorted) so searches can memoize visited configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .database import Database
from .errors import SafetyError
from .formulas import (
    BinOp,
    Builtin,
    Call,
    Conc,
    Del,
    Formula,
    Ins,
    Isol,
    Neg,
    Seq,
    Test,
    TRUTH,
    Truth,
    apply_subst,
    conc,
    free_variables,
    seq,
)
from .program import Program
from .terms import Atom, Term, Variable
from .unify import Substitution, apply_atom, unify_atoms

__all__ = [
    "Action",
    "Step",
    "Configuration",
    "is_final",
    "enabled_steps",
    "canonical_key",
    "dead_config",
    "dead_step",
    "frontier_blockers",
    "successor",
]


@dataclass(frozen=True)
class Action:
    """A record of one executed elementary step, for execution traces.

    ``kind`` is one of ``test ins del neg builtin call iso table``.  For
    ``iso`` the nested trace of the isolated sub-execution is attached;
    ``table`` is a call served whole from the interpreter's answer table
    (see :mod:`repro.core.tabling`) and carries the cached execution's
    trace the same way, so replay still reproduces the final state.
    """

    kind: str
    atom: Optional[Atom] = None
    detail: str = ""
    subtrace: Tuple["Action", ...] = ()

    def __str__(self) -> str:
        if self.kind == "iso":
            inner = "; ".join(str(a) for a in self.subtrace)
            return "iso[%s]" % inner
        if self.kind == "table":
            inner = "; ".join(str(a) for a in self.subtrace)
            return "table %s[%s]" % (self.atom, inner)
        if self.kind == "builtin":
            return self.detail
        if self.kind in ("ins", "del"):
            return "%s.%s" % (self.kind, self.atom)
        if self.kind == "neg":
            return "not %s" % (self.atom,)
        if self.kind == "call":
            return "call %s" % (self.atom,)
        return str(self.atom)


class Step:
    """One enabled transition out of a configuration.

    ``residual`` is the full remaining process, *before* applying
    ``subst``; ``local`` is just the subformula that replaced the
    stepped redex (``true`` for elementary operations, the instantiated
    rule body for a call).  Schedulers use ``local`` to notice that a
    rule choice left its own branch blocked -- e.g. an iteration's stop
    rule unfolded before its flag exists -- and defer that choice behind
    immediately runnable ones.

    A search takes a fraction of the steps it enumerates, so the indexed
    enumeration builds its steps lazily: a step keeps its ``redex``, the
    context chain ``ctx`` enclosing it (see :func:`_plug`) and the
    pre-step database ``source``, and builds ``residual``, ``action``
    and, for ``ins``/``del``, ``database`` on first read.  Building is
    pure, so when -- or whether -- a part is built changes nothing a
    search observes.  Steps built whole (table-served and ``iso`` steps,
    and the naive enumeration's) have ``redex`` None.
    """

    __slots__ = ("subst", "local", "redex", "ctx", "source",
                 "_residual", "_action", "_database")

    def __init__(self, action: Action, subst: Substitution, residual: Formula,
                 database: Database, local: Formula = TRUTH):
        self._action = action
        self.subst = subst
        self._residual = residual
        self._database = database
        self.local = local
        self.redex = None

    @property
    def residual(self) -> Formula:
        residual = self._residual
        if residual is None:
            residual = self._residual = _plug(self.ctx, self.local)
        return residual

    @property
    def action(self) -> Action:
        action = self._action
        if action is None:
            action = self._action = _redex_action(self.redex, self.subst)
        return action

    @property
    def database(self) -> Database:
        database = self._database
        if database is None:
            redex = self.redex
            if isinstance(redex, Ins):
                database = self.source.insert(redex.atom)
            else:
                database = self.source.delete(redex.atom)
            self._database = database
        return database


def _lazy_step(redex: Formula, ctx, subst: Substitution, db: Database,
               local: Formula = TRUTH) -> Step:
    """An enumerated step of *redex* from state *db*; an update's
    successor state is left to build on first read."""
    step = object.__new__(Step)
    step.redex = redex
    step.ctx = ctx
    step.subst = subst
    step.local = local
    step._residual = step._action = None
    if isinstance(redex, (Ins, Del)):
        step.source = db
        step._database = None
    else:
        step._database = db
    return step


def _redex_action(redex: Formula, subst: Substitution) -> Action:
    """The trace record of stepping *redex* under *subst*."""
    if isinstance(redex, Test):
        return Action("test", _display_atom(apply_atom(redex.atom, subst)))
    if isinstance(redex, Call):
        return Action("call", _display_atom(apply_atom(redex.atom, subst)))
    if isinstance(redex, Neg):
        return Action("neg", _display_atom(redex.atom))
    if isinstance(redex, Builtin):
        return Action("builtin", detail=str(redex))
    return Action("ins" if isinstance(redex, Ins) else "del", redex.atom)


@dataclass(frozen=True)
class Configuration:
    """A process/database pair, plus the answer terms accumulated so far
    for the goal's free variables."""

    process: Formula
    database: Database
    answers: Tuple[Term, ...] = ()



def _display_atom(a: Atom) -> Atom:
    """Normalize an atom for trace display: unbound variables keep their
    source name but lose the per-unfold freshness suffix, so traces are
    reproducible across runs and engines."""
    if a.is_ground():
        return a
    args = tuple(
        Variable(t.name.split("#")[0]) if isinstance(t, Variable) else t
        for t in a.args
    )
    return Atom(a.pred, args)


def is_final(proc: Formula) -> bool:
    """A configuration is final when its process has reduced to ``true``."""
    return isinstance(proc, Truth)


#: Type of the callback used to execute isolated sub-processes: given a
#: body, a database, and an optional attempt-budget cap (``Isol.budget``)
#: it yields (answer substitution, final database, trace) triples for
#: the body's complete executions.  A capped attempt that exhausts its
#: budget yields nothing further (failure, hence rollback) instead of
#: raising.
IsolRunner = Callable[
    [Formula, Database, Optional[int]],
    Iterator[Tuple[Substitution, Database, Tuple[Action, ...]]],
]


def _never_steps(proc: Formula) -> bool:
    """True if ``proc`` provably yields no step *in any database state*.

    This is the freeness summary behind the indexed redex enumeration:
    non-ground updates and under-instantiated builtins are blocked until
    a sibling binds their variables, and that blockedness is decidable
    from the node alone.  The verdict is cached on the (immutable) node,
    so a deep concurrent process pays for each blocked branch once, not
    once per enumeration.  The summary is *exact* for the redexes it
    skips -- skipping never changes the multiset of steps enumerated
    (see the differential test in ``tests/core/test_transitions_diff.py``).
    """
    cached = getattr(proc, "_never_steps", None)
    if cached is not None:
        return cached
    if isinstance(proc, (Ins, Del)):
        verdict = not proc.atom.is_ground()
    elif isinstance(proc, Builtin):
        if proc.op == "is":
            # ``X is expr`` fires once the right side is ground; a
            # non-term left side always raises at evaluation time.
            verdict = isinstance(proc.left, BinOp) or _expr_has_vars(proc.right)
        else:
            verdict = _expr_has_vars(proc.left) or _expr_has_vars(proc.right)
    elif isinstance(proc, Seq):
        verdict = _never_steps(proc.parts[0]) if proc.parts else True
    elif isinstance(proc, Conc):
        verdict = all(_never_steps(p) for p in proc.parts)
    elif isinstance(proc, Isol):
        # The nested search yields one step per complete execution of
        # the body; a body that cannot take a first step (and is not
        # already ``true``) has none.
        verdict = not isinstance(proc.body, Truth) and _never_steps(proc.body)
    elif isinstance(proc, Truth):
        return True  # no transitions out of the empty process
    else:
        verdict = False  # Test / Neg / Call: depends on db or program
    object.__setattr__(proc, "_never_steps", verdict)
    return verdict


def _expr_has_vars(expr) -> bool:
    if isinstance(expr, Variable):
        return True
    if hasattr(expr, "op"):
        return _expr_has_vars(expr.left) or _expr_has_vars(expr.right)
    return False


def enabled_steps(
    program: Program,
    proc: Formula,
    db: Database,
    isol_runner: IsolRunner,
    *,
    optimized: bool = True,
    reducer=None,
    ev=None,
    parent=None,
) -> Iterator[Step]:
    """Yield every transition enabled in ``(proc, db)``.

    The ``residual`` of each step is the whole remaining process with the
    stepped redex replaced; the step's substitution has *not* yet been
    applied (callers apply it once, to the whole tree).

    ``optimized=False`` selects the naive reference enumeration (scan
    every rule, descend into every branch); the default indexed path
    skips provably blocked branches and dispatches calls through the
    program's per-signature rule index.  Both enumerate the same steps
    -- the naive path exists as the oracle for the differential test.

    ``reducer`` (a :class:`repro.core.por.PartialOrderReducer`) selects
    the partial-order-reduced enumeration instead: a sound *subset* of
    the full step set that preserves every reachable (answers, final
    database) pair.  ``ev`` (the search's observer handle,
    :class:`repro.obs.context.Observers`) receives the reducer's
    ``ample`` events, and ``parent`` is the provenance node of the
    configuration under expansion.  Both are ignored on the unreduced
    paths.
    """
    if reducer is not None:
        yield from reducer.steps(proc, db, isol_runner, ev, parent)
    elif optimized:
        yield from _steps(program, proc, db, isol_runner)
    else:
        yield from _steps_naive(program, proc, db, isol_runner)


def _plug(ctx, f: Formula = TRUTH) -> Formula:
    """Plug *f* into the stepped redex's place in the whole process.

    *ctx* is the linked chain of compositions enclosing the redex,
    innermost first: each frame ``(parent, before, after)`` holds a
    ``Conc``'s parts around the branch or, with ``before`` None, a
    ``Seq``'s parts behind its head.  Frames apply innermost first, so
    the result is the tree that wrapping level by level would build.
    """
    while ctx is not None:
        ctx, before, after = ctx
        f = seq(f, *after) if before is None else conc(*before, f, *after)
    return f


def successor(step: Step) -> Formula:
    """The process *step* leads to: its residual with its substitution
    applied.  For an enumerated step this is one pass up the context
    chain, substituting into each frame's siblings as it plugs, instead
    of plugging the residual and then rebuilding its spine under the
    substitution; the two trees are equal."""
    theta = step.subst
    if step.redex is None:
        return apply_subst(step.residual, theta)
    if not theta:
        return step.residual
    f = apply_subst(step.local, theta)
    ctx = step.ctx
    while ctx is not None:
        ctx, before, after = ctx
        after = [apply_subst(p, theta) for p in after]
        if before is None:
            f = seq(f, *after)
        else:
            f = conc(*[apply_subst(p, theta) for p in before], f, *after)
    return f


def _steps(
    program: Program, proc: Formula, db: Database, isol_runner: IsolRunner, ctx=None
) -> Iterator[Step]:
    # ``_never_steps`` has already excluded a non-ground update and a
    # builtin over unbound variables: not errors, since a sibling sharing
    # the variable may still bind it (cross-branch dataflow).
    if isinstance(proc, Truth) or _never_steps(proc):
        return
    if isinstance(proc, Test):
        for theta in db.match(proc.atom):
            yield _lazy_step(proc, ctx, theta, db)
        return
    if isinstance(proc, Neg):
        if not db.holds(proc.atom):
            yield _lazy_step(proc, ctx, {}, db)
        return
    if isinstance(proc, (Ins, Del)):
        yield _lazy_step(proc, ctx, {}, db)
        return
    if isinstance(proc, Builtin):
        try:
            theta = proc.evaluate({})
        except ValueError:
            return  # e.g. arithmetic over non-integers: never enabled
        if theta is not None:
            yield _lazy_step(proc, ctx, theta, db)
        return
    if isinstance(proc, Call):
        sig = proc.atom.signature
        if not program.is_derived(sig):
            raise SafetyError(
                "call to undefined predicate %s/%d" % sig
            )
        # Indexed dispatch: the program memoizes which rule heads match
        # this call shape, so repeated unfoldings skip the unification
        # scan over non-matching rules entirely.
        for rule, theta in program.match_rules(proc.atom):
            yield _lazy_step(proc, ctx, theta, db, rule.body)
        return
    if isinstance(proc, Seq):
        yield from _steps(
            program, proc.parts[0], db, isol_runner, (ctx, None, proc.parts[1:])
        )
        return
    if isinstance(proc, Conc):
        parts = proc.parts
        for i, branch in enumerate(parts):
            if _never_steps(branch):
                continue  # provably blocked: a sibling must bind it first
            yield from _steps(
                program, branch, db, isol_runner, (ctx, parts[:i], parts[i + 1 :])
            )
        return
    if isinstance(proc, Isol):
        for theta, final_db, trace in isol_runner(proc.body, db, proc.budget):
            yield Step(
                Action("iso", subtrace=tuple(trace)),
                theta,
                _plug(ctx),
                final_db,
            )
        return
    raise TypeError("cannot step formula of type %r" % type(proc).__name__)


def _steps_naive(
    program: Program, proc: Formula, db: Database, isol_runner: IsolRunner
) -> Iterator[Step]:
    """Reference enumeration: no blocked-branch skipping, calls resolved
    by scanning every freshly-renamed rule.  Kept as the oracle for the
    optimized path's differential test."""
    if isinstance(proc, Truth):
        return
    if isinstance(proc, Test):
        for theta in db.match(proc.atom):
            yield Step(
                Action("test", _display_atom(apply_atom(proc.atom, theta))),
                theta,
                Truth(),
                db,
            )
        return
    if isinstance(proc, Neg):
        if not db.holds(proc.atom):
            yield Step(Action("neg", _display_atom(proc.atom)), {}, Truth(), db)
        return
    if isinstance(proc, Ins):
        if not proc.atom.is_ground():
            return
        yield Step(Action("ins", proc.atom), {}, Truth(), db.insert(proc.atom))
        return
    if isinstance(proc, Del):
        if not proc.atom.is_ground():
            return
        yield Step(Action("del", proc.atom), {}, Truth(), db.delete(proc.atom))
        return
    if isinstance(proc, Builtin):
        try:
            theta = proc.evaluate({})
        except ValueError:
            return
        if theta is not None:
            yield Step(Action("builtin", detail=str(proc)), theta, Truth(), db)
        return
    if isinstance(proc, Isol):
        for theta, final_db, trace in isol_runner(proc.body, db, proc.budget):
            yield Step(
                Action("iso", subtrace=tuple(trace)),
                theta,
                Truth(),
                final_db,
            )
        return
    if isinstance(proc, Call):
        sig = proc.atom.signature
        if not program.is_derived(sig):
            raise SafetyError(
                "call to undefined predicate %s/%d" % sig
            )
        for rule in program.fresh_rules_for(sig):
            theta = unify_atoms(rule.head, proc.atom)
            if theta is not None:
                yield Step(
                    Action("call", _display_atom(apply_atom(proc.atom, theta))),
                    theta,
                    rule.body,
                    db,
                    rule.body,
                )
        return
    if isinstance(proc, Seq):
        head, rest = proc.parts[0], proc.parts[1:]
        for step in _steps_naive(program, head, db, isol_runner):
            yield Step(
                step.action,
                step.subst,
                seq(step.residual, *rest),
                step.database,
                step.local,
            )
        return
    if isinstance(proc, Conc):
        for i, branch in enumerate(proc.parts):
            others_before = proc.parts[:i]
            others_after = proc.parts[i + 1 :]
            for step in _steps_naive(program, branch, db, isol_runner):
                yield Step(
                    step.action,
                    step.subst,
                    conc(*others_before, step.residual, *others_after),
                    step.database,
                    step.local,
                )
        return
    raise TypeError("cannot step formula of type %r" % type(proc).__name__)


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def replay_actions(actions, db: Database) -> Database:
    """Re-apply a trace's update actions to *db*.

    Execution traces are certificates: replaying the inserts and deletes
    of a successful execution (including those inside ``iso`` subtraces)
    over the initial state must reproduce the execution's final state.
    Tests use this to validate every engine's traces; tools can use it
    to audit a logged run against a claimed outcome.
    """
    for action in actions:
        if action.kind == "ins":
            db = db.insert(action.atom)
        elif action.kind == "del":
            db = db.delete(action.atom)
        elif action.kind in ("iso", "table"):
            db = replay_actions(action.subtrace, db)
        # tests / negs / builtins / calls do not change the state
    return db


# ---------------------------------------------------------------------------
# Dead-configuration pruning
# ---------------------------------------------------------------------------


def _frontier_guards(proc: Formula) -> Tuple[Formula, ...]:
    """The tests, absence tests and builtins on *proc*'s frontier, in
    tree order -- the only leaves :func:`dead_config` can find dead.
    Cached on the (immutable) node, like :func:`_never_steps`."""
    cached = getattr(proc, "_frontier_guards", None)
    if cached is not None:
        return cached
    if isinstance(proc, (Test, Neg, Builtin)):
        guards: Tuple[Formula, ...] = (proc,)
    elif isinstance(proc, Seq):
        guards = _frontier_guards(proc.parts[0])
    elif isinstance(proc, Conc):
        guards = tuple(itertools.chain.from_iterable(map(_frontier_guards, proc.parts)))
    elif isinstance(proc, Isol):
        # Every execution of the isolated body starts with the body's
        # own frontier, so a dead body frontier kills the iso too.
        guards = _frontier_guards(proc.body)
    else:
        # Truth has no frontier; Ins/Del/Call frontiers can always act
        # (or need deeper search).
        guards = ()
    object.__setattr__(proc, "_frontier_guards", guards)
    return guards


def dead_config(
    proc: Formula,
    db: Database,
    insertable: frozenset,
    deletable: frozenset,
    subst: Substitution = {},
) -> bool:
    """True if ``apply_subst(proc, subst)`` can provably never complete
    from *db*.

    The check looks at each concurrent branch's *frontier* (the next
    formula it must execute).  A branch is permanently stuck -- and the
    whole configuration dead -- when its frontier is

    * a tuple test with no matching fact, on a predicate nothing can
      insert (waiting for a fact that can never arrive);
    * an absence test that is ground (under *subst*) and currently
      fails, on a predicate nothing can delete -- a variable a sibling
      may still bind keeps it alive, as it keeps a builtin; or
    * a failing builtin (builtins are state-independent).

    This prunes exponentially many doomed interleavings: without it, a
    branch that grabbed the wrong resource keeps every *other* branch
    exploring before the failure is discovered.  Pruning is sound
    because frontier failure of such a branch is invariant under any
    sibling activity.

    *subst* is applied at the leaves, so a search can judge a step's
    residual before building its substituted tree.  Substitution never
    creates a ``Seq`` or a ``Truth``, so the substituted tree's frontier
    is the substituted frontier and the verdict is the same.
    """
    for guard in _frontier_guards(proc):
        if _dead_guard(guard, db, insertable, deletable, subst):
            return True
    return False


def _dead_guard(
    guard: Formula,
    db: Database,
    insertable: frozenset,
    deletable: frozenset,
    subst: Substitution,
) -> bool:
    """Whether one frontier guard is permanently stuck (see
    :func:`dead_config`)."""
    if isinstance(guard, Test):
        return guard.atom.pred not in insertable and not db.holds(guard.atom, subst)
    if isinstance(guard, Neg):
        # Only a ground absence test is stuck for good: a sibling may
        # still bind a variable to a value no fact has.
        return (
            guard.atom.pred not in deletable
            and apply_atom(guard.atom, subst).is_ground()
            and db.holds(guard.atom, subst)
        )
    try:
        return guard.evaluate(subst) is None
    except ValueError:
        return False  # unbound variables: a sibling may still bind them


def dead_step(
    step: Step,
    proc: Formula,
    insertable: frozenset,
    deletable: frozenset,
    live: bool = True,
) -> bool:
    """:func:`dead_config` of the configuration *step* leads to from
    *proc*, applying the step's bindings at the leaves.

    When *proc*, over the step's pre-step database, is known to be
    *live* (it has no dead frontier guard), an enumerated step is judged
    incrementally.  It replaces one redex, makes its own bindings and
    changes at most one predicate, so only these guards can flip:

    * the new frontier at the stepped position: the guards of ``local``,
      or, when ``local`` is ``true`` under a sequence, those of the next
      element (under a concurrent composition the siblings are on the
      frontier already);
    * guards on *proc*'s frontier that mention a variable the step binds;
    * absence tests on the predicate an ``ins`` step inserts, and tuple
      tests on the predicate a ``del`` step deletes.

    Every other guard keeps its verdict: a builtin depends only on its
    variables, an insert only makes tuple tests truer, and a delete only
    absence tests.  The stepped redex, if a guard, holds under its own
    bindings.  Otherwise, and for a step built whole (table-served or
    ``iso``, whose state may differ in any predicate), the full check
    runs on the residual; one with no frontier guard is never dead, and
    its state is not built for the check.
    """
    if step.redex is None or not live:
        residual = step.residual
        return bool(_frontier_guards(residual)) and dead_config(
            residual, step.database, insertable, deletable, step.subst
        )
    subst = step.subst
    local = step.local
    if isinstance(local, Truth):
        ctx = step.ctx
        fresh = _frontier_guards(ctx[2][0]) if ctx is not None and ctx[1] is None else ()
    else:
        fresh = _frontier_guards(local)
    for guard in fresh:
        if _dead_guard(guard, step.database, insertable, deletable, subst):
            return True
    redex = step.redex
    if isinstance(redex, (Ins, Del)):
        flips = Neg if isinstance(redex, Ins) else Test
        pred = redex.atom.pred
        for guard in _frontier_guards(proc):
            if (
                isinstance(guard, flips)
                and guard.atom.pred == pred
                and _dead_guard(guard, step.database, insertable, deletable, subst)
            ):
                return True
    elif subst:
        for guard in _frontier_guards(proc):
            if not free_variables(guard).isdisjoint(subst) and _dead_guard(
                guard, step.database, insertable, deletable, subst
            ):
                return True
    return False


def frontier_blocked(proc: Formula, db: Database, subst: Substitution = {}) -> bool:
    """True if ``apply_subst(proc, subst)`` currently has no enabled
    elementary frontier (*subst* is applied at the leaves, as in
    :func:`dead_config`).

    Weaker than :func:`dead_config`: a blocked configuration may be
    unblocked by facts a sibling inserts later, so it cannot be pruned --
    but a scheduler should *defer* it.  The depth-first simulator orders
    successor configurations so that blocked ones are explored last;
    without this, a rule choice whose guard is not yet satisfied (e.g.
    the stop rule of an iteration testing a flag the loop body has not
    emitted yet) poisons the search, which then enumerates every
    interleaving of the sibling processes before backtracking out.
    """
    if isinstance(proc, Truth):
        return False
    if isinstance(proc, Test):
        return not db.holds(proc.atom, subst)
    if isinstance(proc, Neg):
        return db.holds(proc.atom, subst)
    if isinstance(proc, Builtin):
        try:
            return proc.evaluate(subst) is None
        except ValueError:
            return True  # unbound: cannot fire until a sibling binds it
    if isinstance(proc, (Ins, Del)):
        return not apply_atom(proc.atom, subst).is_ground()
    if isinstance(proc, Seq):
        return frontier_blocked(proc.parts[0], db, subst)
    if isinstance(proc, Conc):
        return all(frontier_blocked(p, db, subst) for p in proc.parts)
    if isinstance(proc, Isol):
        # An isolated body that cannot currently run should be deferred
        # (e.g. a stop rule's atomic emptiness check taken while work
        # remains -- committing to it early abandons the only consumer
        # of that work and poisons the search).  For pure-read bodies we
        # can decide enabledness exactly and cheaply; otherwise fall
        # back to the body's frontier.
        verdict = _pure_read_satisfiable(proc.body, db, subst)
        if verdict is not None:
            return not verdict
        return frontier_blocked(proc.body, db, subst)
    return False


def frontier_blockers(
    proc: Formula, db: Database, subst: Substitution = {}
) -> List[str]:
    """What the frontier of ``apply_subst(proc, subst)`` waits for, in
    words: each tuple test with no matching fact, absence test that
    fails, or builtin that fails or is unbound, in tree order; reasons
    from an ``iso`` body are marked ``inside iso:``.  Empty when nothing
    on the frontier is blocked (*subst* is applied at the leaves, as in
    :func:`dead_config`)."""
    if isinstance(proc, Test):
        if not db.holds(proc.atom, subst):
            return ["waiting for fact %s" % _display_atom(apply_atom(proc.atom, subst))]
    elif isinstance(proc, Neg):
        if db.holds(proc.atom, subst):
            return ["waiting for absence of %s"
                    % _display_atom(apply_atom(proc.atom, subst))]
    elif isinstance(proc, Builtin):
        try:
            if proc.evaluate(subst) is None:
                return ["guard fails: %s" % apply_subst(proc, subst)]
        except ValueError:
            return ["unbound builtin: %s" % apply_subst(proc, subst)]
    elif isinstance(proc, Seq):
        return frontier_blockers(proc.parts[0], db, subst)
    elif isinstance(proc, Conc):
        return [r for part in proc.parts for r in frontier_blockers(part, db, subst)]
    elif isinstance(proc, Isol):
        return ["inside iso: " + r for r in frontier_blockers(proc.body, db, subst)]
    return []


def _pure_read_satisfiable(
    body: Formula, db: Database, subst: Substitution = {}
) -> Optional[bool]:
    """For bodies built only from tests / absence tests / builtins and
    sequential composition: is the body, under *subst*, satisfiable in
    *db* right now?  Returns None when the body contains updates, calls,
    or concurrency (not decidable by inspection)."""
    parts = body.parts if isinstance(body, Seq) else (body,)
    if not all(isinstance(p, (Test, Neg, Builtin, Truth)) for p in parts):
        return None

    def sat(idx: int, theta) -> bool:
        if idx == len(parts):
            return True
        part = parts[idx]
        if isinstance(part, Test):
            return any(sat(idx + 1, t2) for t2 in db.match(part.atom, theta))
        if isinstance(part, Builtin):
            try:
                t2 = part.evaluate(theta)
            except ValueError:
                return False
            return t2 is not None and sat(idx + 1, t2)
        if isinstance(part, Neg) and db.holds(part.atom, theta):
            return False
        return sat(idx + 1, theta)  # ``true``, or an absence test that holds

    return sat(0, subst)


# ---------------------------------------------------------------------------
# Canonicalization for memoization
# ---------------------------------------------------------------------------
#
# The canonical key of a node is computed *compositionally* and cached on
# the node (formula trees are immutable, so nothing ever invalidates).
# Each node stores a pair
#
#     (shape, varseq)
#
# where ``shape`` is a hashable structure in which this node's variables
# appear as local first-occurrence indices ``('v', i)``, and ``varseq``
# is the tuple of distinct variables in that numbering order.  A
# composite node embeds each child as ``(child_shape, perm)`` with
# ``perm`` mapping the child's local indices to the parent's -- so
# cross-branch variable sharing is captured without renumbering the
# child's whole subtree.  Because a step's residual shares all untouched
# subtrees with its parent process (see ``apply_subst``), re-keying a
# successor configuration only does work proportional to the changed
# spine, not the whole tree.
#
# ``shape`` alone is the public key: ``varseq`` is first-occurrence
# ordered by construction, so the key is invariant under variable
# renaming, and composing the perms bottom-up reproduces exactly the
# global first-occurrence numbering the previous from-scratch algorithm
# produced.

#: Bound on how many concurrent-branch orderings are tried when several
#: branches have identical shapes.  Tied groups are tiny in practice
#: (the bound allows e.g. one group of 4 plus a pair); past it we keep
#: the stable order, which is sound and only costs memo sharing.
_MAX_TIE_CANDIDATES = 64


def _ckey_pair(f: Formula, sort_conc: bool):
    cache = getattr(f, "_ckey_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(f, "_ckey_cache", cache)
    pair = cache.get(sort_conc)
    if pair is None:
        pair = _ckey_build(f, sort_conc)
        cache[sort_conc] = pair
    return pair


def _ckey_build(f: Formula, sort_conc: bool):
    if isinstance(f, Truth):
        return (("T",), ())
    if isinstance(f, (Test, Neg, Ins, Del, Call)):
        local: Dict[Variable, int] = {}
        keys = []
        for t in f.atom.args:
            if isinstance(t, Variable):
                idx = local.get(t)
                if idx is None:
                    idx = len(local)
                    local[t] = idx
                keys.append(("v", idx))
            else:
                keys.append(("c", type(t.value).__name__, str(t.value)))
        shape = (type(f).__name__, f.atom.pred, tuple(keys))
        return (shape, tuple(local))
    if isinstance(f, Builtin):
        local = {}
        shape = (
            "B",
            f.op,
            _ckey_expr(f.left, local),
            _ckey_expr(f.right, local),
        )
        return (shape, tuple(local))
    if isinstance(f, Isol):
        # A single child: its local numbering *is* the parent's.  The
        # attempt budget is part of the shape: a capped iso and an
        # uncapped one are different processes (one can fail where the
        # other diverges).
        cshape, cvars = _ckey_pair(f.body, sort_conc)
        return (("I", f.budget, cshape), cvars)
    if isinstance(f, Seq):
        return _ckey_assemble(
            "S", [_ckey_pair(p, sort_conc) for p in f.parts]
        )
    if isinstance(f, Conc):
        pairs = [_ckey_pair(p, sort_conc) for p in f.parts]
        if not sort_conc:
            return _ckey_assemble("C", pairs)
        return _ckey_conc_sorted(pairs)
    raise TypeError("cannot canonicalize %r" % type(f).__name__)


def _ckey_expr(expr, local: Dict[Variable, int]):
    if isinstance(expr, Variable):
        idx = local.get(expr)
        if idx is None:
            idx = len(local)
            local[expr] = idx
        return ("v", idx)
    if hasattr(expr, "op"):
        return (
            "e",
            expr.op,
            _ckey_expr(expr.left, local),
            _ckey_expr(expr.right, local),
        )
    return ("c", type(expr.value).__name__, str(expr.value))


def _ckey_assemble(tag: str, pairs):
    """Combine ordered child (shape, varseq) pairs into the parent pair,
    renumbering variables by first occurrence across the children."""
    order: Dict[Variable, int] = {}
    embedded = []
    for cshape, cvars in pairs:
        perm = []
        for v in cvars:
            idx = order.get(v)
            if idx is None:
                idx = len(order)
                order[v] = idx
            perm.append(idx)
        embedded.append((cshape, tuple(perm)))
    return ((tag,) + tuple(embedded), tuple(order))


def _ckey_conc_sorted(pairs):
    """Canonical (shape, varseq) for a concurrent node, invariant under
    branch reordering.

    Branches are sorted by their perm-free shapes; groups of branches
    with *identical* shapes can still differ in how their variables are
    shared with the rest of the process, so within the tie groups every
    ordering (bounded by :data:`_MAX_TIE_CANDIDATES`) is tried and the
    lexicographically least assembled key wins.  The candidate set
    depends only on the multiset of branches, which is what makes the
    key genuinely commutative -- the previous implementation kept input
    order on ties and keyed ``p(X,Y) | p(Z,X)`` apart from its swap.
    """
    decorated = sorted(pairs, key=lambda pr: repr(pr[0]))
    groups: List[list] = []
    for pr in decorated:
        if groups and groups[-1][0][0] == pr[0]:
            groups[-1].append(pr)
        else:
            groups.append([pr])
    n_candidates = 1
    for g in groups:
        for k in range(2, len(g) + 1):
            n_candidates *= k
    if n_candidates == 1 or n_candidates > _MAX_TIE_CANDIDATES:
        return _ckey_assemble("C", [pr for g in groups for pr in g])
    best = None
    best_render = None
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        ordering = [pr for g in arrangement for pr in g]
        assembled = _ckey_assemble("C", ordering)
        render = repr(assembled[0])
        if best_render is None or render < best_render:
            best_render = render
            best = assembled
    return best


def canonical_key(proc: Formula, sort_conc: bool = True):
    """A hashable structural key for *proc*, invariant under variable
    renaming and (optionally) under reordering of concurrent branches.

    Renaming-apart matters because call unfolding freshens rule variables
    with a global counter: two searches reaching "the same" residual
    process would otherwise never share a memo entry.  Branch-order
    invariance matters because interleaving semantics makes ``a | b``
    and ``b | a`` the same process.

    Keys are assembled from per-node summaries cached on the (immutable)
    nodes, so residual processes -- which share almost all structure with
    their parent configuration -- are re-keyed in time proportional to
    what actually changed.  ``sort_conc=False`` disables branch sorting
    for the ablation benchmark.
    """
    return _ckey_pair(proc, sort_conc)[0]
