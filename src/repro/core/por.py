"""Partial-order reduction for the full-TD search engines.

Concurrent composition ``a | b`` is interleaving semantics: the naive
transition relation explores every schedule of elementary steps, even
though the paper's semantics only distinguishes executions by their
effect on the database and the answer bindings.  When two branches
touch disjoint parts of the store, all their interleavings commute and
reach the same final configurations -- so expanding *one* representative
schedule suffices.

This module implements an ample-set reducer over the same transition
relation as :func:`repro.core.transitions.enabled_steps`:

* Every formula node gets a **footprint** -- the predicates it may read
  (tuple tests, absence tests), insert, and delete, with calls expanded
  through the program's call graph (the per-signature closure
  :meth:`Program.signature_footprints`, cached on the program).  This
  extends the ``_never_steps`` freeness summaries from the indexed
  enumerator: where those decide *whether* a redex can step,
  footprints decide *what* the step can touch.
* At a concurrent node, a branch is **ample** when its frontier
  footprint cannot conflict with anything its siblings (or any
  concurrent competitor higher in the process tree) may ever do, and it
  shares no variables with them.  Conflict means read-vs-write overlap
  or insert-vs-delete on the same predicate; two inserts (or two
  deletes) of the same predicate commute under set semantics, which is
  what makes the paper's insert-only workflow fragment reduce so well.
* If an ample branch exists, only *its* steps are expanded; the sibling
  schedules are pruned (counted by ``por.steps_pruned``).  Otherwise
  every branch is expanded as before, with the sibling footprints
  joining the competitor set for nested concurrent nodes.

Soundness (why pruning loses no solutions): let ``t`` be the ample
branch of ``C = t | s1 | ... | sk`` (possibly nested under further
composition).  Any complete execution from ``C`` must eventually step
in ``t`` (concurrent parts are never ``true``; an execution that never
runs ``t`` never terminates).  Take the first ``t``-step ``s`` in such
an execution.  The competitor steps before ``s`` cannot change ``t``'s
enabled step set: they bind no variable of ``t`` (variable condition)
and write no predicate ``t``'s frontier reads (footprint condition) --
so ``s`` is already enabled at ``C``.  Conversely ``s`` binds no
competitor variable and its writes neither invalidate a competitor
read nor anti-commute with a competitor write, so executing ``s``
*first* and the prefix after it reaches the same configuration.  By
induction on execution length, every reachable (answers, final
database) pair of the full graph is reachable in the reduced graph at
the same or smaller depth -- BFS stays a fair semi-decision procedure
and the DFS failure memo stays sound.  The same argument covers the
two degenerate ample cases: a branch whose frontier can never fire
(nothing a disjoint competitor does can unblock it, so the whole
configuration is deadlocked and yielding nothing prunes it correctly),
and an isolated body (its frontier footprint is the body's full
closure, so a currently-failing ``iso`` attempt stays failing).

The reducer is *not* used when a fault injector is attached (the
injector perturbs schedules per tick, so every schedule must exist to
be perturbed -- this keeps ``tdlog chaos`` byte-identical) and not by
the state-space verifier (which counts the full graph by design).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from .database import Database
from .formulas import (
    Call,
    Conc,
    Del,
    Formula,
    Ins,
    Isol,
    Neg,
    Seq,
    Test,
    Truth,
    free_variables,
)
from .program import Program
from .transitions import IsolRunner, Step, _never_steps, _steps

__all__ = [
    "Footprint",
    "PartialOrderReducer",
    "footprint",
    "frontier_footprint",
    "por_disabled",
    "por_forced_off",
    "update_footprint",
]

#: When set, every :class:`repro.core.interpreter.Interpreter`
#: constructed ignores ``por=True``.  This is how the pruning audit
#: (``tdlog explain --audit-por``) replays a *fixed* workload -- one
#: that builds its own interpreters internally -- against the
#: full-interleaving oracle without threading a flag through it.
_FORCE_DISABLED = False


def por_forced_off() -> bool:
    """True while inside a :func:`por_disabled` block."""
    return _FORCE_DISABLED


@contextmanager
def por_disabled() -> Iterator[None]:
    """Force ``por=False`` on every interpreter built in this block."""
    global _FORCE_DISABLED
    previous = _FORCE_DISABLED
    _FORCE_DISABLED = True
    try:
        yield
    finally:
        _FORCE_DISABLED = previous


def _fp_lists(fp: "Footprint") -> Dict[str, list]:
    """A footprint as sorted lists (JSON-stable witness form)."""
    return {
        "reads": sorted(fp[0]),
        "inserts": sorted(fp[1]),
        "deletes": sorted(fp[2]),
    }

_EMPTY: frozenset = frozenset()

#: (reads, inserts, deletes) -- predicate names a (sub)process may touch.
Footprint = Tuple[frozenset, frozenset, frozenset]

EMPTY_FOOTPRINT: Footprint = (_EMPTY, _EMPTY, _EMPTY)


def footprint(program: Program, f: Formula) -> Footprint:
    """Everything *f* may ever read / insert / delete (call closure
    included).  Cached on the node, tagged with the program it was
    computed against (nodes belong to one program in practice; the tag
    keeps a stale cache from ever being reused)."""
    cached = getattr(f, "_por_fp", None)
    if cached is not None and cached[0] is program:
        return cached[1]
    if isinstance(f, (Test, Neg)):
        fp: Footprint = (frozenset((f.atom.pred,)), _EMPTY, _EMPTY)
    elif isinstance(f, Ins):
        fp = (_EMPTY, frozenset((f.atom.pred,)), _EMPTY)
    elif isinstance(f, Del):
        fp = (_EMPTY, _EMPTY, frozenset((f.atom.pred,)))
    elif isinstance(f, Call):
        fp = program.signature_footprints().get(f.atom.signature, EMPTY_FOOTPRINT)
    elif isinstance(f, (Seq, Conc)):
        fp = EMPTY_FOOTPRINT
        for p in f.parts:
            fp = _union(fp, footprint(program, p))
    elif isinstance(f, Isol):
        fp = footprint(program, f.body)
    else:  # Truth, Builtin: no database footprint
        fp = EMPTY_FOOTPRINT
    object.__setattr__(f, "_por_fp", (program, fp))
    return fp


def update_footprint(program: Program, *goals: Formula) -> Tuple[frozenset, frozenset]:
    """Predicates the program (plus the given goals) can ever insert or
    delete.  Used by :func:`~repro.core.transitions.dead_config`: tests
    on predicates outside the insert footprint can never *become* true,
    absence tests on predicates outside the delete footprint can never
    become true either.

    The rulebase's part is :meth:`Program.update_footprint`; each goal
    adds the updates of its :func:`footprint`, cached on its node.
    """
    insertable, deletable = program.update_footprint()
    for goal in goals:
        _, ins, dels = footprint(program, goal)
        insertable, deletable = insertable | ins, deletable | dels
    return insertable, deletable


def frontier_footprint(program: Program, f: Formula) -> Footprint:
    """What the *first* steps of *f* may touch.

    A bare call unfolds without touching the database (rule choice is
    preserved by the reduction, so an ample call branch still explores
    every rule).  An isolated body executes atomically *now*, so its
    frontier is the body's full closure.  Sequential composition
    contributes only its head; concurrent composition the union of its
    branches' frontiers (including currently-blocked redexes, whose
    eventual effects are conservatively charged to the frontier).
    """
    cached = getattr(f, "_por_ffp", None)
    if cached is not None and cached[0] is program:
        return cached[1]
    if isinstance(f, Call):
        fp = EMPTY_FOOTPRINT
    elif isinstance(f, Seq):
        fp = (
            frontier_footprint(program, f.parts[0])
            if f.parts
            else EMPTY_FOOTPRINT
        )
    elif isinstance(f, Conc):
        fp = EMPTY_FOOTPRINT
        for p in f.parts:
            fp = _union(fp, frontier_footprint(program, p))
    elif isinstance(f, Isol):
        fp = footprint(program, f.body)
    else:
        fp = footprint(program, f)
    object.__setattr__(f, "_por_ffp", (program, fp))
    return fp


def _union(a: Footprint, b: Footprint) -> Footprint:
    if a is EMPTY_FOOTPRINT:
        return b
    if b is EMPTY_FOOTPRINT:
        return a
    return (a[0] | b[0], a[1] | b[1], a[2] | b[2])


def _frontier_vars(f: Formula) -> frozenset:
    """Free variables of *f*'s frontier redexes -- the variables its
    *next* step could bind or have bound out from under it.  An
    isolated body runs atomically now, so the whole body counts."""
    if isinstance(f, Truth):
        return _EMPTY
    if isinstance(f, Seq):
        return _frontier_vars(f.parts[0]) if f.parts else _EMPTY
    if isinstance(f, Conc):
        out = _EMPTY
        for p in f.parts:
            out = out | _frontier_vars(p)
        return out
    if isinstance(f, Isol):
        return frozenset(free_variables(f.body))
    return frozenset(free_variables(f))


def _frontier_bind_free(f: Formula) -> bool:
    """Can *f*'s next step neither produce nor consume a binding?

    True when every frontier redex is ground: a ground test, update,
    absence test, or builtin yields the empty substitution, and a
    ground call's unifier binds only the renamed rule's variables.  A
    step from such a frontier commutes with any competitor binding --
    the competitor cannot change which redexes are enabled (no free
    variable to instantiate) and the step binds nothing back -- which
    is what lets :meth:`PartialOrderReducer._ample_index` keep an
    ample branch that merely *mentions* a shared variable in the parts
    behind its frontier.
    """
    return not _frontier_vars(f)


def _conflicts(frontier: Footprint, future: Footprint) -> bool:
    """Can a frontier step and any future competitor step fail to
    commute?  Read-vs-write in either direction, or insert-vs-delete of
    the same predicate.  Insert/insert and delete/delete commute under
    set semantics."""
    fr, fi, fd = frontier
    tr, ti, td = future
    if fr and (not fr.isdisjoint(ti) or not fr.isdisjoint(td)):
        return True
    if tr and (not tr.isdisjoint(fi) or not tr.isdisjoint(fd)):
        return True
    if not fi.isdisjoint(td):
        return True
    if not fd.isdisjoint(ti):
        return True
    return False


class PartialOrderReducer:
    """Ample-set pruned drop-in for the indexed step enumerator.

    ``steps`` yields a sound subset of
    :func:`repro.core.transitions.enabled_steps`: at each concurrent
    node it expands only the leftmost *ample* branch when one exists.
    Selection is purely static per configuration (footprints and
    variable sharing), so the reduced relation is deterministic and the
    naive enumeration remains the differential oracle.
    """

    __slots__ = ("program",)

    def __init__(self, program: Program):
        self.program = program

    def steps(
        self,
        proc: Formula,
        db: Database,
        isol_runner: IsolRunner,
        ev=None,
        parent=None,
    ) -> Iterator[Step]:
        """The reduced step set.  With an observer handle *ev*
        (:class:`repro.obs.context.Observers`), each ample decision is
        reported as its ``ample`` event: the ``por.*`` counters, the
        pruning credit, and -- for a decision that deferred siblings --
        a ``por.pruned`` trace event and a node under *parent* (the
        configuration being expanded) carrying the full ample-set
        witness (frontier and closure footprints, shared variables)
        that ``explain --audit-por`` cross-checks.  The witness is built
        only when a recorder is on."""
        return self._reduced(
            proc, db, isol_runner, EMPTY_FOOTPRINT, _EMPTY, ev, parent
        )

    # -- internals ------------------------------------------------------------

    def _reduced(
        self,
        proc: Formula,
        db: Database,
        isol_runner: IsolRunner,
        comp_fp: Footprint,
        comp_vars: frozenset,
        ev=None,
        parent=None,
        ctx=None,
    ) -> Iterator[Step]:
        if isinstance(proc, Truth) or _never_steps(proc):
            return
        if isinstance(proc, Seq):
            yield from self._reduced(
                proc.parts[0], db, isol_runner, comp_fp, comp_vars, ev,
                parent, (ctx, None, proc.parts[1:]),
            )
            return
        if isinstance(proc, Conc):
            parts = proc.parts
            idx, rescued = self._ample_index(parts, comp_fp, comp_vars)
            if idx is not None:
                if ev is not None:
                    self._note_ample(
                        parts, idx, comp_fp, comp_vars, ev, parent, rescued
                    )
                yield from self._reduced(
                    parts[idx], db, isol_runner, comp_fp, comp_vars, ev,
                    parent, (ctx, parts[:idx], parts[idx + 1 :]),
                )
                return
            # No ample branch: expand all, and let nested concurrent
            # nodes prove independence against the siblings too.
            program = self.program
            fps = [footprint(program, p) for p in parts]
            fvs = [free_variables(p) for p in parts]
            for i, branch in enumerate(parts):
                if _never_steps(branch):
                    continue
                sib_fp = comp_fp
                sib_vars = comp_vars
                for j in range(len(parts)):
                    if j != i:
                        sib_fp = _union(sib_fp, fps[j])
                        sib_vars = sib_vars | fvs[j]
                yield from self._reduced(
                    branch, db, isol_runner, sib_fp, sib_vars, ev,
                    parent, (ctx, parts[:i], parts[i + 1 :]),
                )
            return
        # Elementary redexes, calls, and iso: no concurrency below here.
        yield from _steps(self.program, proc, db, isol_runner, ctx)

    def _note_ample(
        self,
        parts: Tuple[Formula, ...],
        idx: int,
        comp_fp: Footprint,
        comp_vars: frozenset,
        ev,
        parent,
        rescued: bool,
    ) -> None:
        """Report one ample-set decision as the handle's ``ample`` event.
        ``pruned`` counts the step-capable siblings deferred; the
        witness the pruning audit re-verifies is built by a thunk, so
        only a recorder pays for it."""
        pruned = [
            p for j, p in enumerate(parts) if j != idx and not _never_steps(p)
        ]
        ample = parts[idx]

        def witness() -> Dict[str, object]:
            program = self.program
            ample_vars = free_variables(ample)
            return {
                "ample": str(ample),
                "rescued": rescued,
                "frontier_vars": sorted(str(v) for v in _frontier_vars(ample)),
                "ample_frontier": _fp_lists(frontier_footprint(program, ample)),
                "competitors": _fp_lists(comp_fp),
                "competitor_shared_vars": sorted(
                    str(v) for v in (ample_vars & comp_vars)
                ),
                "pruned": [
                    {
                        "branch": str(p),
                        "closure": _fp_lists(footprint(program, p)),
                        "shared_vars": sorted(
                            str(v) for v in (ample_vars & free_variables(p))
                        ),
                    }
                    for p in pruned
                ],
            }

        ev.ample(ample, len(pruned), rescued, parent, witness)

    def _ample_index(
        self,
        parts: Tuple[Formula, ...],
        comp_fp: Footprint,
        comp_vars: frozenset,
    ) -> Tuple[Optional[int], bool]:
        """Leftmost branch whose frontier is independent of every
        sibling's full closure and of the inherited competitors.

        Variable sharing alone no longer disqualifies a branch: when
        the shared variables cannot flow through the branch's *next*
        step -- every frontier redex is ground after the bindings
        applied so far, so the step neither binds a variable nor reads
        one a competitor could bind -- the ample decision is *rescued*
        (the dynamic re-check; counted by ``por.recheck_rescued``).
        Returns ``(index, rescued)``; ``(None, False)`` when every
        branch degrades to full expansion."""
        program = self.program
        for i, branch in enumerate(parts):
            ffp = frontier_footprint(program, branch)
            if _conflicts(ffp, comp_fp):
                continue
            bvars = free_variables(branch)
            shared = bool(comp_vars) and not bvars.isdisjoint(comp_vars)
            ok = True
            for j, sibling in enumerate(parts):
                if j == i:
                    continue
                if _conflicts(ffp, footprint(program, sibling)):
                    ok = False
                    break
                if bvars and not bvars.isdisjoint(free_variables(sibling)):
                    shared = True
            if not ok:
                continue
            if shared and not _frontier_bind_free(branch):
                continue
            return i, shared
        return None, False
