"""The full Transaction Datalog engine.

Full TD is data complete for RE (the paper's central expressibility
theorem), so no terminating evaluator exists; this engine provides the
two procedures that are possible:

* :meth:`Interpreter.solve` -- a breadth-first *semi-decision* procedure.
  BFS over the configuration graph is fair: if any execution of the goal
  exists it is found, even when other branches diverge (e.g. a runaway
  recursive process).  A configurable budget turns non-termination into a
  :class:`~repro.core.errors.SearchBudgetExceeded` report.

* :meth:`Interpreter.simulate` -- a depth-first backtracking scheduler
  that finds *one* successful execution and returns its full trace of
  elementary operations.  This is the mode in which the paper's workflow
  examples are "executed on the prototype and perform exactly as
  described"; a seed makes the interleaving choices reproducible, or
  deterministic left-to-right when no seed is given.

Isolated sub-processes (``iso(a)``) are executed by a nested search from
the current state; each complete sub-execution contributes one atomic
transition, which is precisely the paper's notion of isolation.  An
``iso`` with a budget annotation (``iso[k](a)``, or the ``with_budget``
recovery combinator) runs the nested search under a *private cap*: if
the attempt cannot complete within ``k`` configurations it simply
*fails*, which by the paper's rollback-on-failure semantics leaves no
trace -- the launching pad for ``retry``/``fallback`` recovery.

Graceful degradation: breadth-first searches interrupted by the budget
or by a cooperative :class:`Deadline` attach a resumable
:class:`Checkpoint` to the raised exception; :meth:`Interpreter.resume`
continues the search exactly where it stopped, with a fresh budget.

Fault injection: an injector passed as ``faults=`` (anything with a
``perturb(process, database, steps)`` method -- see
:mod:`repro.faults.inject`) is consulted once per configuration
expansion and may drop, reorder, or abort the enabled steps.  The hook
is duck-typed so the core never imports the faults package.

Storage: a backend passed as ``store=`` (anything speaking the
:class:`repro.store.Store` protocol -- same duck-typing discipline as
``faults=``) supplies the initial state when ``db`` is omitted, and
:meth:`Interpreter.simulate` *commits* the winning execution to it with
one ``store.commit(initial, final, trace)``: the store adopts the final
state the search built, and a durable one logs the trace's effective
updates with a savepoint scope per ``iso`` subtrace.  The search itself
never writes to the store (states stay immutable in-memory values), so
the default ``store=None`` path is byte-identical to before the
protocol existed.  See docs/STORAGE.md.
"""

from __future__ import annotations

import random
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..obs import context as _context
from .database import Database
from .errors import AttemptBudgetExceeded, DeadlineExceeded, SearchBudgetExceeded
from .formulas import TRUTH, Call, Formula, Seq, apply_subst, ordered_variables, seq
from .parser import as_goal
from .por import PartialOrderReducer, por_forced_off, update_footprint
from .program import Program
from .tabling import AnswerTable, canonical_call
from .terms import Atom, Term, Variable
from .transitions import (
    Action,
    Configuration,
    Step,
    _ckey_pair,
    canonical_key,
    dead_step,
    enabled_steps,
    frontier_blocked,
    frontier_blockers,
    is_final,
    successor,
)
from .unify import Substitution, walk

__all__ = ["Interpreter", "Solution", "Execution", "Checkpoint", "Deadline"]


@dataclass(frozen=True)
class Solution:
    """One way the goal can commit: answer bindings + final database."""

    bindings: Substitution
    database: Database


@dataclass(frozen=True)
class Execution:
    """A complete successful execution: solution plus the action trace."""

    bindings: Substitution
    database: Database
    trace: Tuple[Action, ...]

    @property
    def events(self) -> Tuple[str, ...]:
        """The trace rendered as strings (handy in tests and logs).

        ``table`` wrappers are flattened to the execution they recorded:
        unlike ``iso`` (whose bracket marks an atomicity boundary), a
        table action is a memoization artifact, and the events stream
        must read the same whether an answer was derived or replayed.
        """
        out: List[str] = []

        def emit(actions: Tuple[Action, ...]) -> None:
            for action in actions:
                if action.kind == "table":
                    emit(action.subtrace)
                else:
                    out.append(str(action))

        emit(self.trace)
        return tuple(out)


@dataclass(frozen=True)
class Checkpoint:
    """A resumable snapshot of an interrupted breadth-first search.

    Captured by :meth:`Interpreter._bfs` when the budget or a deadline
    fires and attached to the in-flight exception (``exc.checkpoint``);
    each enclosing search layer overwrites the field as the exception
    propagates, so the caller always sees the *outermost* (user-goal)
    checkpoint.  The snapshot is self-contained and picklable: frontier
    configurations, the visited-key summary, and already-emitted answers
    (so resumption never re-yields a solution).

    Resume with :meth:`Interpreter.resume`; a checkpoint taken under one
    ``sort_concurrent`` setting can only be resumed under the same one
    (the visited summary is keyed by canonical form).

    Deliberately *not* stored: the frontier's queued-key subsumption
    set.  It is a pure function of the frontier configurations, so
    resumption re-derives it from the pickled configurations -- a
    pickled copy could go stale if the key computation ever changes
    between checkpoint and resume.
    """

    goal: Formula
    goal_vars: Tuple[Variable, ...]
    frontier: Tuple[Configuration, ...]
    seen: frozenset
    emitted: frozenset
    traces: Optional[Mapping[object, Tuple[Action, ...]]]
    want_trace: bool
    spent: int
    sort_concurrent: bool
    #: Warm answer-table snapshot (:meth:`repro.core.tabling.
    #: AnswerTable.snapshot`), or ``None`` when the interrupted search
    #: ran untabled.  Resuming restores it so already-generated answers
    #: are served, not re-derived; a resuming interpreter with
    #: ``tabling=False`` simply ignores it (the snapshot carries no
    #: information the search cannot re-derive).
    table: Optional[tuple] = None
    #: Config keys whose expansion must run *naively* (small-step) on
    #: resume.  A budget that fires inside a table generation would
    #: otherwise livelock under tight resume caps: the big-stepped
    #: expansion restarts from scratch every hop and never banks
    #: frontier progress.  Marking the interrupted config naive restores
    #: the small-step progress guarantee (one budget unit per step) for
    #: exactly the configs that need it; everything else stays tabled.
    naive: frozenset = frozenset()

    @property
    def frontier_size(self) -> int:
        return len(self.frontier)


class Deadline:
    """A cooperative wall-clock deadline.

    Checked by the search loops between configuration expansions (never
    inside an elementary step), so the caller always observes consistent
    pre-step state.  The clock is injectable for deterministic tests;
    it defaults to :func:`time.monotonic`.
    """

    __slots__ = ("limit", "clock", "start")

    def __init__(
        self, limit: float, clock: Optional[Callable[[], float]] = None
    ):
        self.limit = limit
        self.clock = clock if clock is not None else time.monotonic
        self.start = self.clock()

    def check(self) -> None:
        elapsed = self.clock() - self.start
        if elapsed > self.limit:
            raise DeadlineExceeded(elapsed, self.limit)


def _as_deadline(deadline) -> Optional[Deadline]:
    """Accept seconds, a ready-made :class:`Deadline`, or ``None``."""
    if deadline is None:
        return None
    if hasattr(deadline, "check"):
        return deadline
    return Deadline(float(deadline))


class _Budget:
    """A mutable step budget shared by a search and its nested searches.

    With an observer handle *ev* the budget reports each spend (the
    ``spend`` event); the exhausted figure also lands in the raised
    exception.  One ``None`` check keeps the unobserved path cheap.
    """

    __slots__ = ("limit", "used", "ev")

    def __init__(self, limit: int, ev: Optional[_context.Observers] = None):
        self.limit = limit
        self.used = 0
        self.ev = ev

    def spend(self) -> None:
        self.used += 1
        if self.ev is not None:
            self.ev.spend(self.used, self.limit)
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used, self.limit, spent=self.used)


class _CappedBudget:
    """A bounded attempt's private budget, layered over the shared one.

    Every spend charges the *parent* first (the global budget is a hard
    ceiling shared with nested searches, as before) and then the private
    cap; exceeding the cap raises :class:`AttemptBudgetExceeded`, which
    the isolation runner converts into attempt failure (rollback), not
    an abort of the whole search.
    """

    __slots__ = ("parent", "cap", "used")

    def __init__(self, parent, cap: int):
        self.parent = parent
        self.cap = cap
        self.used = 0

    def spend(self) -> None:
        self.parent.spend()
        self.used += 1
        if self.used > self.cap:
            exc = AttemptBudgetExceeded(self.used, self.cap, spent=self.used)
            # Tag the raiser so nested bounded attempts can tell their
            # own cap from an enclosing one (which must keep propagating
            # until it reaches the runner that created it).
            exc.attempt = self
            raise exc


class Interpreter:
    """Breadth-first semi-decision procedure and DFS simulator for full TD.

    Parameters
    ----------
    program:
        The rulebase.
    max_configs:
        Total configuration budget for one query (shared with nested
        isolation searches).  Exceeding it raises
        :class:`SearchBudgetExceeded`.
    sort_concurrent:
        Canonicalize configurations by sorting concurrent branches
        (better memoization; switchable for the ablation benchmark).
    por:
        Enable partial-order reduction (default).  Commuting schedules
        of independent concurrent branches collapse to one
        representative; the reachable (answers, final database) pairs
        are unchanged (see :mod:`repro.core.por` for the argument and
        ``tests/core/test_transitions_diff.py`` for the differential).
        Automatically disabled while a fault injector is attached --
        the injector perturbs *schedules*, so every schedule must be
        enumerated to be perturbable.  ``por=False`` restores the full
        interleaving enumeration (the oracle for the differential).
    faults:
        Optional fault injector: any object with a
        ``perturb(process, database, steps)`` method returning an
        iterator of steps (see :class:`repro.faults.inject.FaultInjector`).
        Consulted once per configuration expansion, including nested
        isolation searches.  An optional truthy ``dormant`` attribute
        signals that no further perturbation can occur, letting the
        search re-enable its failed-state memoization from that point.
        ``None`` (the default) is zero-overhead.
    tabling:
        Enable answer tabling (default; see :mod:`repro.core.tabling`).
        A call in head position -- and every uncapped ``iso`` body --
        executes once per (canonical call or body, database) pair and
        is served from the answer table afterwards: both are entries of
        one table, generated and served by one protocol.  Every answer
        is stored, non-ground ones included, and binds the caller's
        variables with their sharing intact, so the reachable (answers,
        final database) pairs are exactly the naive search's
        (``tests/core/test_tabling.py`` and ``tests/property/`` are the
        differentials).  Same discipline as ``por``: bypassed
        automatically while a fault injector is attached, and
        ``tabling=False`` keeps the naive search as the oracle.
    """

    def __init__(
        self,
        program: Program,
        max_configs: int = 200_000,
        sort_concurrent: bool = True,
        faults=None,
        por: bool = True,
        *,
        store=None,
        tabling: bool = True,
    ):
        self.program = program
        self.max_configs = max_configs
        self.sort_concurrent = sort_concurrent
        self.faults = faults
        self.por = por
        #: Optional storage backend (see :class:`repro.store.Store`),
        #: duck-typed like ``faults``.  Explicit beats the ambient
        #: provider (:func:`repro.store.using_store_provider`); with
        #: neither, searches run over plain in-memory states exactly as
        #: before.
        self.store = store
        self._reducer = (
            PartialOrderReducer(program) if (por and not por_forced_off()) else None
        )
        #: Tabling switch and the answer table, kept across searches
        #: from one initial database (see :meth:`_resolve_state`).  The
        #: table is consulted only while no fault injector is attached
        #: -- same bypass as the reducer.
        self.tabling = tabling
        self._table = AnswerTable() if tabling else None
        self._table_db: Optional[Database] = None

    def _enabled_steps(self, proc, db, budget, ev, deadline, parent):
        """The transition relation this search uses: partial-order
        reduced when enabled and no fault injector is attached, the
        full enumeration otherwise.  ``ev``/``parent`` flow to the
        reducer so ample-set decisions are reported, and to the ``iso``
        runner, whose nested searches hang under *parent*."""
        reducer = self._reducer if self.faults is None else None
        return enabled_steps(
            self.program, proc, db, self._isol_runner(budget, ev, deadline, parent),
            reducer=reducer, ev=ev, parent=parent,
        )

    def _expand(
        self, proc, db, footprint, budget, ev, deadline, node, head=None, live=False
    ):
        """The live steps of one configuration, as both schedulers
        expand it: count the expansion, check the deadline, take the
        steps (served from the answer table when *head*, the
        :func:`_head_call` split of *proc*, is given), let the fault
        injector perturb them, meter them, spend one budget unit per
        step, and prune each step into a dead configuration under the
        goal's update *footprint* (a ``dead-config`` child of *node*).
        A configuration with no step at all has ``failed``.  Lazy: a
        scheduler pays only for the steps it pulls, and builds the
        successor process itself (:func:`successor`).

        A configuration the schedulers created from a step passed the
        dead check, so it is *live*: its steps re-check only the guards
        they can flip (:func:`dead_step`).  Steps out of any other (a
        root or a resumed one) take the full check."""
        if ev is not None:
            ev.expanded()
        if deadline is not None:
            deadline.check()
        if head is not None:
            steps = self._table_steps(
                head[0], head[1], proc, db, budget, ev, deadline, node
            )
        else:
            steps = self._enabled_steps(proc, db, budget, ev, deadline, node)
        if self.faults is not None:
            steps = self.faults.perturb(proc, db, steps)
        if ev is not None:
            steps = ev.metered(steps)
        insertable, deletable = footprint
        stepped = False
        for step in steps:
            budget.spend()
            stepped = True
            if dead_step(step, proc, insertable, deletable, live):
                if ev is not None:
                    ev.child(step, node, "dead-config", lambda: frontier_blockers(
                        step.residual, step.database, step.subst))
                continue
            yield step
        if ev is not None and not stepped:
            ev.failed(node, lambda: frontier_blockers(proc, db))

    def _make_budget(self, ev: Optional[_context.Observers] = None) -> "_Budget":
        """A fresh step budget (used by the verifier, which drives the
        transition relation directly but reuses the isolation runner)."""
        return _Budget(self.max_configs, ev)

    def _resolve_state(self, db: Optional[Database]):
        """Resolve ``(store, initial db)`` for one top-level search entry
        (see :func:`_resolve_store`).

        A table serves one initial database: an entry that starts from
        another state than the previous entry did starts with an empty
        table, so a long-lived interpreter over a store does not keep
        every state it committed.  An interleaved breadth-first search
        survives the swap: it yields only between expansions, when none
        of its generations is running, and later ones use the new table.
        """
        store, db = _resolve_store(self.store, db)
        if (
            self._table is not None and self._table.keys
            and not _same_state(db, self._table_db)
        ):
            self._table = AnswerTable()
        self._table_db = db
        return store, db

    # -- public API -------------------------------------------------------------

    def solve(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Solution]:
        """Enumerate solutions fairly (BFS).

        *goal* may be a formula or concrete syntax (``"p(X) * q(X)"``).
        Yields each distinct (answer bindings, final database) pair once.
        Terminates iff the reachable configuration space is finite;
        otherwise enumeration is fair and the budget eventually fires.

        With ``db=None`` the initial state comes from the attached
        store (see the class docstring); the search is a read-only
        query on it.

        *deadline* (seconds, or a :class:`Deadline`) arms a cooperative
        stop: when it fires, :class:`DeadlineExceeded` is raised with a
        resumable checkpoint attached, like budget exhaustion.
        """
        _, db = self._resolve_state(db)
        goal = self.program.resolve_goal(as_goal(goal))
        yield from self._bfs_entry(
            "solve", {"goal": str(goal)}, goal, db, ordered_variables(goal),
            want_trace=False, deadline=deadline,
        )

    def succeeds(self, goal: Union[str, Formula], db: Database) -> bool:
        """True iff some execution of *goal* from *db* commits."""
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(self, goal: Union[str, Formula], db: Database) -> Set[Database]:
        """All final states reachable by executing *goal* from *db*."""
        return {sol.database for sol in self.solve(goal, db)}

    def run(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Execution]:
        """Like :meth:`solve` but with execution traces attached."""
        _, db = self._resolve_state(db)
        goal = self.program.resolve_goal(as_goal(goal))
        yield from self._bfs_entry(
            "solve", {"mode": "run", "goal": str(goal)}, goal, db,
            ordered_variables(goal), want_trace=True, deadline=deadline,
        )

    def resume(
        self,
        checkpoint: Checkpoint,
        *,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Union[Solution, Execution]]:
        """Continue an interrupted breadth-first search from *checkpoint*.

        The search resumes with a **fresh budget** of ``max_configs``
        (the tabling papers' restart discipline: each resumption gets a
        full allowance) and never re-yields an answer the interrupted
        search already emitted.  Yields :class:`Execution` when the
        original search wanted traces (``run``), else :class:`Solution`.

        If this resumption is interrupted again, the new exception
        carries a new checkpoint -- resumption composes indefinitely,
        and resuming the checkpoint of a *finished* search yields
        nothing (idempotence).
        """
        if checkpoint.sort_concurrent != self.sort_concurrent:
            raise ValueError(
                "checkpoint was taken with sort_concurrent=%r but this "
                "interpreter uses sort_concurrent=%r; the visited-state "
                "summary is not comparable"
                % (checkpoint.sort_concurrent, self.sort_concurrent)
            )
        if checkpoint.table is not None and self._table is not None:
            # Warm-start from the interrupted search's answers.  A fresh
            # restore per resumption keeps resuming the same checkpoint
            # twice idempotent (the table is never shared between them).
            self._table = AnswerTable.restore(checkpoint.table)
        yield from self._bfs_entry(
            "resume",
            {
                "goal": str(checkpoint.goal),
                "frontier": str(checkpoint.frontier_size),
            },
            checkpoint.goal, None, list(checkpoint.goal_vars),
            want_trace=checkpoint.want_trace, deadline=deadline,
            state=checkpoint,
        )

    def _bfs_entry(
        self, span, span_attrs, goal, db, goal_vars, want_trace, deadline,
        state=None,
    ) -> Iterator[Union[Solution, Execution]]:
        """The breadth-first entry :meth:`solve`, :meth:`run` and
        :meth:`resume` share, called from their first pull.  It captures
        the observers and re-installs them around every pull, so the
        search reports to them however the caller drains it."""
        ev = _context.capture()
        budget = _Budget(self.max_configs, ev)

        def _search():
            with _context.span(ev, span, engine="interpreter", **span_attrs):
                try:
                    for answers, final_db, trace in self._bfs(
                        goal, db, goal_vars, budget, want_trace, ev,
                        _as_deadline(deadline), state,
                    ):
                        if ev is not None:
                            ev.answer()
                        bindings = dict(zip(goal_vars, answers))
                        if want_trace:
                            yield Execution(bindings, final_db, trace)
                        else:
                            yield Solution(bindings, final_db)
                finally:
                    if ev is not None:
                        ev.finished(budget.used, budget.limit, self._table)

        return _context.observed_pulls(ev, _search(), "bfs")

    def simulate(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        seed: Optional[int] = None,
        max_depth: int = 100_000,
        deadline: Union[None, float, Deadline] = None,
    ) -> Optional[Execution]:
        """Find one successful execution by DFS with backtracking.

        With ``seed`` the interleaving choices are shuffled reproducibly;
        without it the scheduler is deterministic (program order, left
        branch first).  Returns ``None`` if the goal has no execution
        within the explored space.  Depth-first stacks are not
        checkpointable, so budget/deadline errors raised here carry
        ``checkpoint=None``.

        When a store is attached, the winning execution is committed to
        it before returning (:meth:`repro.store.Store.commit`): the
        store's state becomes the final database this search built, so
        it advances iff the simulation succeeded.  A store whose state
        moved while the search ran refuses the commit with
        :class:`~repro.store.StoreError`.
        """
        store, db = self._resolve_state(db)
        goal = self.program.resolve_goal(as_goal(goal))
        ev = _context.capture()
        budget = _Budget(self.max_configs, ev)
        rng = random.Random(seed) if seed is not None else None
        goal_vars = ordered_variables(goal)
        with _context.span(ev, "simulate", engine="interpreter", goal=str(goal)), \
                _context.observing(ev, "dfs"):
            try:
                result = self._dfs(
                    goal, db, goal_vars, budget, rng, max_depth, ev,
                    _as_deadline(deadline),
                )
            except (SearchBudgetExceeded, DeadlineExceeded) as exc:
                exc.goal = goal
                raise
            finally:
                if ev is not None:
                    ev.finished(budget.used, budget.limit, self._table)
        if store is not None:
            # A simulate over a store leaves no table behind: a commit
            # replaces the state it served, and dropping it first keeps
            # its states out of the commit's memory.
            self._table_db = None
            if self._table is not None:
                self._table = AnswerTable()
        if result is None:
            return None
        answers, final_db, trace = result
        if store is not None:
            store.commit(db, final_db, trace)
        return Execution(dict(zip(goal_vars, answers)), final_db, trace)

    # -- BFS core ---------------------------------------------------------------

    def _bfs(
        self,
        goal: Formula,
        db: Optional[Database],
        goal_vars: Sequence[Variable],
        budget,
        want_trace: bool,
        ev: Optional[_context.Observers] = None,
        deadline: Optional[Deadline] = None,
        state: Optional[Checkpoint] = None,
    ) -> Iterator[Tuple[Tuple[Term, ...], Database, Tuple[Action, ...]]]:
        footprint = update_footprint(self.program, goal)
        # Answer tabling is bypassed under fault injection, exactly like
        # the reducer: fault plans target individual schedules, so the
        # chaos harness must see the naive expansion (byte-identical
        # reports whatever the table holds).
        table = self._table if self.faults is None else None
        # The frontier is bucketed by canonical key: alongside the FIFO
        # queue of (configuration, key, live) triples (``live``: created
        # from a step, see :meth:`_expand`), ``queued`` holds the keys
        # currently awaiting expansion and ``seen`` the keys already
        # expanded (or emitted).  A successor whose key is already
        # queued is *subsumed* -- a second schedule reached the same
        # canonical configuration before the first copy was expanded --
        # and dropped without occupying a frontier slot, which is what
        # bounds ``search.frontier_peak`` on diamond-shaped interleaving
        # lattices.  ``queued`` is always derived from the frontier
        # itself (never checkpointed), so :meth:`resume` rebuilds it
        # from the pickled configurations instead of trusting a stale
        # pickle of the subsumption set.
        if state is None:
            start = Configuration(goal, db, tuple(goal_vars))
            start_key = self._key(start)
            frontier = deque([(start, start_key, False)])
            seen = set()
            traces: Dict[object, Tuple[Action, ...]] = {start_key: ()}
            emitted = set()
        else:
            frontier = deque((c, self._key(c), False) for c in state.frontier)
            seen = set(state.seen)
            traces = dict(state.traces) if state.traces is not None else {}
            emitted = set(state.emitted)
        naive_keys = set(state.naive) if state is not None else set()
        queued = {key for _, key, _ in frontier}
        # Provenance bookkeeping maps canonical config keys to node ids
        # in the derivation DAG (all None when no recorder is on).
        node_ids: Dict[object, Optional[int]] = {}
        if ev is not None:
            if state is None:
                node_ids[frontier[0][1]] = ev.config(goal)
            else:
                root = ev.config(goal, prefix="(resume) ")
                for c, key, _ in frontier:
                    node_ids[key] = ev.config(c.process, root, "(resumed) ")

        while frontier:
            config, config_key, live = frontier.popleft()
            queued.discard(config_key)
            seen.add(config_key)
            if is_final(config.process):
                result = (config.answers, config.database)
                if result not in emitted:
                    emitted.add(result)
                    if ev is not None:
                        ev.solution(node_ids.get(config_key), config.answers)
                    yield config.answers, config.database, traces.get(config_key, ())
                continue
            parent = node_ids.get(config_key) if ev is not None else None
            head = None
            if table is not None and config_key not in naive_keys:
                head = _head_call(config.process)
            try:
                for step in self._expand(
                    config.process, config.database, footprint, budget, ev,
                    deadline, parent, head, live,
                ):
                    new_proc = successor(step)
                    new_answers = tuple(walk(t, step.subst) for t in config.answers)
                    succ = Configuration(new_proc, step.database, new_answers)
                    key = self._key(succ)
                    if key in queued or key in seen:
                        if ev is not None:
                            ev.subsumed(
                                step, parent, new_proc, node_ids.get(key),
                                "queued" if key in queued else "seen",
                            )
                        continue
                    queued.add(key)
                    if want_trace:
                        traces[key] = traces.get(config_key, ()) + (step.action,)
                    frontier.append((succ, key, True))
                    if ev is not None:
                        node_ids[key] = ev.child(step, parent)
                        ev.frontier(len(frontier))
            except (SearchBudgetExceeded, DeadlineExceeded) as exc:
                # Interrupted mid-expansion: re-queue the current
                # configuration (successors already discovered stay in
                # ``seen``, so re-expanding it on resume is sound) and
                # attach a resumable snapshot.  Every enclosing search
                # layer runs this same handler as the exception
                # propagates, so the outermost (user-goal) checkpoint
                # wins.
                frontier.appendleft((config, config_key, live))
                if head is not None:
                    # The interrupt fired in a big-stepped (tabled)
                    # expansion, or at its deadline check; see
                    # ``Checkpoint.naive``.
                    naive_keys.add(config_key)
                exc.goal = goal
                exc.checkpoint = Checkpoint(
                    goal=goal,
                    goal_vars=tuple(goal_vars),
                    frontier=tuple(c for c, _, _ in frontier),
                    seen=frozenset(seen),
                    emitted=frozenset(emitted),
                    traces=dict(traces) if want_trace else None,
                    want_trace=want_trace,
                    spent=budget.used,
                    sort_concurrent=self.sort_concurrent,
                    table=(
                        self._table.snapshot()
                        if self._table is not None
                        else None
                    ),
                    naive=frozenset(naive_keys),
                )
                if ev is not None:
                    ev.interrupted(
                        node_ids.get(config_key),
                        isinstance(exc, SearchBudgetExceeded),
                    )
                raise

    def _key(self, config: Configuration):
        shape, varseq = _ckey_pair(config.process, self.sort_concurrent)
        answers = config.answers
        if any(isinstance(t, Variable) for t in answers):
            # An unbound answer is keyed by its slot in the process's
            # canonical variable order (or a fresh slot past it), so
            # configurations differing in how answers share variables
            # with each other or with the process stay apart.
            slots = {v: i for i, v in enumerate(varseq)}
            answers = tuple(
                slots.setdefault(t, len(slots)) if isinstance(t, Variable) else t
                for t in answers
            )
        return (shape, config.database, answers)

    # -- answer tabling ----------------------------------------------------------

    def _table_steps(self, atom, rest, proc, db, budget, ev, deadline, parent):
        """Steps for a head-position call, served from the answer table.

        One step per complete execution of the call: the step's database
        is the execution's final state, its substitution the answer
        bindings, its residual the rest of the sequence, and its action
        a ``table`` record carrying the cached trace (replay-valid).
        Sequential composition is a barrier, so big-stepping the head
        call this way is solution-equivalent to the small-step search --
        no external step can interleave with it (the argument in
        :mod:`repro.core.tabling`).  On a miss the generator *streams*:
        answers are served as the nested searches find them, keeping the
        top-level enumeration fair on divergent workloads.
        """
        table = self._table
        canon, _ = canonical_call(atom)
        entry = table.entry(canon, db)
        if entry is None:
            # Key cap reached: this call runs untabled.
            yield from self._enabled_steps(proc, db, budget, ev, deadline, parent)
            return
        residual = seq(*rest) if rest else TRUTH
        hit = entry.complete or entry.active
        if ev is not None:
            ev.table_probe(hit)
        if hit:
            # A hit prunes like frontier subsumption: the whole
            # re-expansion of the call collapses into served answers.
            if ev is not None:
                ev.call_hit(atom, canon, len(entry.answers), entry.complete, parent)
            if entry.active:
                # Consumer of an in-progress generator: serve the
                # current snapshot and flag every stacked generator so
                # none of them completes on this round's information.
                table.note_consumed(entry)
            answers = list(entry.answers.values())
        else:
            answers = self._generate(
                entry,
                lambda: (
                    (rule.head, apply_subst(rule.body, theta),
                     tuple(walk(a, theta) for a in canon.args))
                    for rule, theta in self.program.match_rules(canon)
                ),
                db, budget, ev.call(atom, parent) if ev is not None else None,
                deadline,
            )
        for values, final_db, trace in answers:
            yield Step(
                Action("table", atom=atom, subtrace=trace),
                _bind(atom.args, values),
                residual,
                final_db,
            )

    def _generate(self, entry, alternatives, db, budget, ev, deadline):
        """Generator for one table entry: serve the answers it already
        holds, then run each ``(head, body, answer terms)`` alternative
        that ``alternatives()`` yields (a call's matching rules, or an
        ``iso`` body alone with no head) under a nested breadth-first
        search, yielding each answer *new to the entry* as it is found,
        and loop until the global answer stamp stabilizes
        (consumer/generator suspension: a nested occurrence of an
        in-progress key consumed a snapshot, so its round must re-run
        once anything grew).  The entry completes only if its final
        round depended on no in-progress entry but itself.  *ev* is the
        nested handle of the ``call`` or ``iso`` node that started it.
        """
        table = self._table
        # Active from the first served answer on: the DFS scheduler may
        # pause this generator anywhere, and an ``iso`` of this body met
        # meanwhile must run untabled, not generate this entry twice.
        entry.active = True
        table.generating.append(entry)
        try:
            yield from list(entry.answers.values())
            while True:
                before = table.stamp
                entry.round_deps = set()
                for head, body, answer_terms in alternatives():
                    token = None
                    if ev is not None and head is not None:
                        token = ev.rule(head, head.pred)
                    try:
                        for values, final_db, trace in self._bfs(
                            body, db, answer_terms, budget, True, ev, deadline
                        ):
                            added = entry.add(values, final_db, trace)
                            if added is not None:
                                table.stamp += 1
                                yield added
                    finally:
                        if token is not None:
                            ev.leave(token)
                deps = entry.round_deps - {id(entry)}
                if not entry.round_deps:
                    # The round consumed nothing in flight: it saw only
                    # complete information, so re-running cannot grow it.
                    entry.complete = True
                    return
                if table.stamp == before:
                    # Global fixpoint given the current snapshots.  If
                    # the only in-flight dependency was this entry
                    # itself, that *is* completion; otherwise leave the
                    # entry warm for the enclosing generator's next
                    # round.
                    entry.complete = not deps
                    return
        finally:
            entry.active = False
            # By identity, not by position: a depth-first step may pause
            # an ``iso`` generator, so generators need not end in LIFO
            # order.
            table.generating.remove(entry)

    # -- DFS core ---------------------------------------------------------------

    def _dfs(
        self,
        goal: Formula,
        db: Database,
        goal_vars: Sequence[Variable],
        budget,
        rng: Optional[random.Random],
        max_depth: int,
        ev: Optional[_context.Observers] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[tuple]:
        footprint = update_footprint(self.program, goal)
        # The failed-state memo maps a database to the canonical keys of
        # the processes that failed from it.  A frame's key is computed
        # only when the frame fails or a successor lands on a database
        # with failures, so a run that never backtracks computes none.
        failed: Dict[Database, Set[object]] = {}
        # The memo is keyed on (process, database) alone, which is
        # sound only when enabledness depends on nothing else.
        # A fault injector is *tick*-dependent -- the same configuration
        # can fail now and succeed after a fault window expires -- so
        # the memo starts disabled under faults, and is re-enabled the
        # moment the injector goes dormant (every window expired, no
        # exhaustion pending): from then on the search is exactly
        # fault-free, and entries recorded after that point stay sound.
        use_memo = self.faults is None
        limit_hits = 0  # depth-truncation events (blocks unsound fail-memo)
        trace: List[Action] = []
        faults = self.faults

        def expand(proc: Formula, state: Database, pnode=None, live=True):
            """Successor (step, successor process) pairs of one expansion
            (:meth:`_expand`), ordered so that children whose frontier
            is immediately enabled come before blocked ones (see
            :func:`frontier_blocked`).  No head call is served from the
            answer table: DFS keeps traces exactly as the scheduler
            commits them (the paper's workflow examples pin them).

            Lazy: ready steps are yielded as they are discovered and
            blocked ones deferred to the end, so a step the DFS never
            backtracks into is never paid for.  This matters for
            ``iso``: the nested search yields one step per isolated
            execution, and eager materialization here would force it to
            enumerate its *entire* execution space even when the first
            one commits the goal.  (Seeded runs still materialize -- a
            shuffle needs the full list -- but build a step's successor
            process, and its action and updated state, only once the DFS
            takes it.)
            """
            ready = []
            deferred = []
            for step in self._expand(
                proc, state, footprint, budget, ev, deadline, pnode, live=live
            ):
                # A finished branch (``local`` true) is never blocked,
                # and asking would build an update's successor state.
                if not is_final(step.local) and frontier_blocked(
                    step.local, step.database, step.subst
                ):
                    deferred.append(step)
                elif rng is None:
                    yield step, successor(step)
                else:
                    ready.append(step)
            if rng is not None:
                rng.shuffle(ready)
                rng.shuffle(deferred)
            for step in ready + deferred:
                yield step, successor(step)

        # Each frame: [process, database, canonical key (None until
        # needed), step iterator, answers, hits_before, prov node,
        # stepped].  The explicit stack avoids Python recursion limits
        # on long workflow executions.
        root = ev.config(goal) if ev is not None else None
        stack: List[list] = [
            [
                goal, db, None, expand(goal, db, root, live=False),
                tuple(goal_vars), 0, root, False,
            ]
        ]
        if ev is not None:
            ev.depth(len(stack))

        while stack:
            if not use_memo and getattr(faults, "dormant", False):
                use_memo = True
            frame = stack[-1]
            _, _, _, steps, answers, hits_before, fnode, _ = frame
            advanced = False
            for step, new_proc in steps:
                new_answers = tuple(walk(t, step.subst) for t in answers)
                trace.append(step.action)
                child = None
                if ev is not None:
                    child = ev.child(step, fnode)
                    frame[7] = True
                if is_final(new_proc):
                    if ev is not None:
                        ev.solution(child, new_answers)
                    return new_answers, step.database, tuple(trace)
                if len(stack) >= max_depth:
                    limit_hits += 1
                    trace.pop()
                    if ev is not None:
                        ev.mark(child, "depth-limit")
                    continue
                bucket = failed.get(step.database) if use_memo and failed else None
                new_key = (
                    canonical_key(new_proc, self.sort_concurrent) if bucket else None
                )
                if bucket and new_key in bucket:
                    trace.pop()
                    if ev is not None:
                        ev.mark(child, "frontier-subsumed", {"where": "failed-memo"})
                    continue
                stack.append(
                    [
                        new_proc,
                        step.database,
                        new_key,
                        expand(new_proc, step.database, child),
                        new_answers,
                        limit_hits,
                        child,
                        False,
                    ]
                )
                if ev is not None:
                    ev.depth(len(stack))
                advanced = True
                break
            if not advanced:
                # Frame exhausted: memoize as failed only if no descendant
                # was truncated by the depth limit (soundness of the memo).
                if use_memo and limit_hits == hits_before:
                    proc, state, key = frame[:3]
                    if key is None:
                        key = canonical_key(proc, self.sort_concurrent)
                    failed.setdefault(state, set()).add(key)
                if ev is not None and frame[7]:
                    ev.mark(fnode, "backtracked")
                stack.pop()
                if trace:
                    trace.pop()
        return None

    # -- isolation ----------------------------------------------------------------

    def _isol_runner(
        self,
        budget,
        ev: Optional[_context.Observers] = None,
        deadline: Optional[Deadline] = None,
        parent: Optional[int] = None,
    ):
        """The ``iso`` executor for one expansion; *parent* is the node of
        the configuration being expanded, which a nested search's ``iso``
        node hangs under."""

        def run_isolated(body: Formula, db: Database, cap: Optional[int] = None):
            # Complete iso executions are a pure function of (canonical
            # body, database) -- isolation admits no external
            # interleaving -- so an uncapped body is a table entry,
            # generated like a call whose only rule body is the body
            # itself (capped attempts are budget-dependent and bypass
            # the table; so does everything under fault injection).
            shape, varseq = _ckey_pair(body, self.sort_concurrent)
            table = self._table if self.faults is None else None
            entry = None
            if table is not None and cap is None:
                entry = table.entry(shape, db)
            if entry is not None:
                if ev is not None:
                    ev.table_probe(entry.complete)
                if entry.complete:
                    if ev is not None:
                        ev.iso_hit(body, len(entry.answers))
                    for values, final_db, trace in list(entry.answers.values()):
                        yield _bind(varseq, values), final_db, trace
                    return
                if entry.active:
                    # Met again while its generator is live.  Depth-first
                    # ``expand`` is lazy, so that generator may be an
                    # earlier step paused after its first answers, not an
                    # enclosing search: its snapshot can be incomplete,
                    # and no round re-runs for this consumer.  Run
                    # untabled instead.
                    entry = None
            sub_budget = budget if cap is None else _CappedBudget(budget, cap)
            sub = ev.isolated(body, parent) if ev is not None else None
            if entry is None:
                gen = self._bfs(body, db, varseq, sub_budget, True, sub, deadline)
            else:
                gen = self._generate(
                    entry, lambda: ((None, body, varseq),), db, sub_budget,
                    sub, deadline,
                )
            if ev is not None:
                # Production time lands under an "iso" phase frame,
                # popped while the outer search consumes the step (see
                # meter_phase), so a suspended sub-search never bleeds
                # over its consumer's attribution.
                gen = ev.iso_phase(gen)
            try:
                with ev.iso(body) if ev is not None else nullcontext():
                    for values, final_db, trace in gen:
                        yield _bind(varseq, values), final_db, trace
            except AttemptBudgetExceeded as exc:
                # A bounded attempt (iso[k]) ran out of its private cap:
                # by rollback-on-failure this is ordinary *failure* of
                # the isolated step, not an abort -- the attempt yields
                # no execution and leaves no trace.  An enclosing
                # attempt's cap keeps propagating to its own runner.
                if getattr(exc, "attempt", None) is not sub_budget:
                    raise
                if ev is not None:
                    ev.attempt_exhausted()

        return run_isolated


def _resolve_store(store, db):
    """The ``(store, initial db)`` resolution every engine entry point
    shares: explicit ``store=`` beats the ambient provider, and
    ``db=None`` pulls the store's current state (the durable-workflow
    spelling ``engine.solve(goal)``)."""
    store = store if store is not None else _ambient_store(db)
    if db is None:
        if store is None:
            raise ValueError(
                "no initial database: pass db= or attach a store "
                "(store=, or repro.store.using_store_provider)"
            )
        db = store.database()
    return store, db


def _same_state(db: Database, prev: Optional[Database]) -> bool:
    """Whether *db* is the state *prev*, the test by which a table serves
    one initial database: identity first, then the states' cached
    hashes, so a full comparison runs only when the hashes agree."""
    return db is prev or (hash(db) == hash(prev) and db == prev)


def _ambient_store(db):
    """Consult the ambient store provider, if the store package is even
    loaded.  Resolved through ``sys.modules`` so the core never imports
    the store package (same one-way dependency discipline as faults):
    a provider can only exist once ``repro.store.context`` has been
    imported, so a missing module means no provider."""
    import sys

    ctx = sys.modules.get("repro.store.context")
    if ctx is None:
        return None
    return ctx.provide_store(db)


def _bind(args, values) -> Substitution:
    """The caller's bindings for one answer: *args* are the caller's
    terms (a call's arguments, or an ``iso`` body's variables) and
    *values* the answer's, position by position.

    Bound answer positions bind the caller's variables; an unbound
    position leaves the caller's variable free, with sharing between
    positions preserved (the first caller variable to meet an answer
    variable stands in for it).
    """
    fresh: Dict[Variable, Term] = {}
    theta: Dict[Variable, Term] = {}
    for arg, value in zip(args, values):
        if not isinstance(arg, Variable) or arg in theta:
            continue
        if isinstance(value, Variable):
            # A repeated caller variable meets its own stand-in:
            # binding it to itself would make ``walk`` loop.
            first = fresh.setdefault(value, arg)
            if first != arg:
                theta[arg] = first
            continue
        theta[arg] = value
    return theta


def _head_call(proc: Formula) -> Optional[Tuple[Atom, Tuple[Formula, ...]]]:
    """The tabled redex of a process, if it has one: a derived-predicate
    call in *head position* -- the whole process is ``p(t)`` or
    ``p(t) * rest``.  Returns ``(call atom, rest parts)`` or ``None``.
    Calls inside a concurrent composition are never tabled: sequential
    composition is the barrier that makes big-stepping the head sound.
    """
    if isinstance(proc, Call):
        return proc.atom, ()
    if isinstance(proc, Seq):
        first = proc.parts[0]
        if isinstance(first, Call):
            return first.atom, proc.parts[1:]
    return None
