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
:meth:`Interpreter.simulate` *commits* the winning execution's trace to
it under savepoint-mapped isolation -- top-level savepoint around the
run, a nested savepoint per ``iso`` subtrace.  The search itself never
writes to the store (states stay immutable in-memory values), so the
default ``store=None`` path is byte-identical to before the protocol
existed.  See docs/STORAGE.md.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
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

from ..obs import hotspots as _hot
from ..obs.context import Instrumentation, NOOP, active
from ..obs.provenance import active_recorder, config_digest
from .database import Database
from .errors import AttemptBudgetExceeded, DeadlineExceeded, SearchBudgetExceeded
from .formulas import TRUTH, Call, Formula, Seq, apply_subst, ordered_variables, seq
from .parser import as_goal
from .por import PartialOrderReducer, por_forced_off
from .program import Program
from .tabling import AnswerTable, canonical_call, tabling_forced_off
from .terms import Atom, Term, Variable
from .transitions import (
    Action,
    Configuration,
    Step,
    _ckey_pair,
    canonical_key,
    dead_config,
    enabled_steps,
    frontier_blocked,
    is_final,
    update_footprint,
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
    """A complete successful execution: solution plus the action trace.

    ``action_times`` (set only by instrumented :meth:`Interpreter.
    simulate` runs) gives one ``time.perf_counter()`` stamp per trace
    action -- the moment the scheduler committed to it -- so consumers
    like the workflow scheduler can reconstruct exact per-task spans.
    ``None`` on uninstrumented runs and on BFS executions.
    """

    bindings: Substitution
    database: Database
    trace: Tuple[Action, ...]
    action_times: Optional[Tuple[float, ...]] = None

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

    When instrumentation is active the budget reports each spend as the
    ``search.steps`` counter and, on exhaustion, records the final
    figure in both the raised exception and the ``budget.spent`` gauge.
    The extra work is guarded by a single ``None`` check so the
    uninstrumented path stays two instructions.
    """

    __slots__ = ("limit", "used", "obs")

    def __init__(self, limit: int, obs: Optional[Instrumentation] = None):
        self.limit = limit
        self.used = 0
        self.obs = obs if (obs is not None and obs.enabled) else None

    def spend(self) -> None:
        self.used += 1
        obs = self.obs
        if obs is not None:
            obs.metrics.inc("search.steps")
        if self.used > self.limit:
            if obs is not None:
                obs.metrics.inc("budget.exceeded")
                obs.metrics.gauge_max("budget.spent", self.used)
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
        A call in head position -- and every ``iso`` sub-search --
        executes once per (canonical call, database) pair and is served
        from the answer table afterwards; the reachable (answers, final
        database) pairs are unchanged (``tests/core/test_tabling.py``
        is the differential).  Same discipline as ``por``: bypassed
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
        provenance=None,
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
        #: Optional :class:`repro.obs.provenance.ProvenanceRecorder`.
        #: ``None`` (the default) also consults the ambient recorder at
        #: each entry point (see :func:`repro.obs.provenance.recording`);
        #: with neither attached the hot loops pay one ``is None`` check.
        self.provenance = provenance
        self._reducer = (
            PartialOrderReducer(program) if (por and not por_forced_off()) else None
        )
        #: Effective tabling switch and the per-interpreter answer table
        #: (persistent across searches, like the sequential engine's).
        #: The table is consulted only while no fault injector is
        #: attached -- same bypass as the reducer.
        self.tabling = tabling and not tabling_forced_off()
        self._table = AnswerTable() if self.tabling else None

    def _prov(self):
        """The recorder for this search: explicit beats ambient."""
        return self.provenance if self.provenance is not None else active_recorder()

    def _enabled_steps(
        self, proc, db, isol_runner, obs: Instrumentation, prov=None, parent=None
    ):
        """The transition relation this search uses: partial-order
        reduced when enabled and no fault injector is attached, the
        full enumeration otherwise.  ``prov``/``parent`` flow to the
        reducer so ample-set decisions land in the derivation record."""
        reducer = self._reducer if self.faults is None else None
        enabled = obs.enabled
        return enabled_steps(
            self.program,
            proc,
            db,
            isol_runner,
            reducer=reducer,
            metrics=obs.metrics if enabled else None,
            tracer=obs.tracer if enabled else None,
            prov=prov,
            prov_parent=parent,
        )

    def _make_budget(self, obs: Optional[Instrumentation] = None) -> "_Budget":
        """A fresh step budget (used by the verifier, which drives the
        transition relation directly but reuses the isolation runner)."""
        return _Budget(self.max_configs, obs)

    def _resolve_state(self, db: Optional[Database]):
        """Resolve ``(store, initial db)`` for one search entry (see
        :func:`_resolve_store`)."""
        return _resolve_store(self.store, db)

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
        obs = active()
        budget = _Budget(self.max_configs, obs)
        goal_vars = ordered_variables(goal)
        attr = _hot.active_attributor()

        def _search():
            with obs.span("solve", engine="interpreter", goal=str(goal)):
                try:
                    for answers, final_db, _ in self._bfs(
                        goal,
                        db,
                        goal_vars,
                        budget,
                        want_trace=False,
                        obs=obs,
                        deadline=_as_deadline(deadline),
                        prov=self._prov(),
                        attr=attr,
                    ):
                        yield Solution(dict(zip(goal_vars, answers)), final_db)
                finally:
                    _note_budget(obs, budget)
                    self._note_table(obs)

        yield from _hot.meter_engine(attr, _search(), "bfs")

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
        obs = active()
        budget = _Budget(self.max_configs, obs)
        goal_vars = ordered_variables(goal)
        attr = _hot.active_attributor()

        def _search():
            with obs.span(
                "solve", engine="interpreter", mode="run", goal=str(goal)
            ):
                try:
                    for answers, final_db, trace in self._bfs(
                        goal,
                        db,
                        goal_vars,
                        budget,
                        want_trace=True,
                        obs=obs,
                        deadline=_as_deadline(deadline),
                        prov=self._prov(),
                        attr=attr,
                    ):
                        yield Execution(
                            dict(zip(goal_vars, answers)), final_db, trace
                        )
                finally:
                    _note_budget(obs, budget)
                    self._note_table(obs)

        yield from _hot.meter_engine(attr, _search(), "bfs")

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
        obs = active()
        budget = _Budget(self.max_configs, obs)
        goal_vars = list(checkpoint.goal_vars)
        attr = _hot.active_attributor()
        if checkpoint.table is not None and self._table is not None:
            # Warm-start from the interrupted search's answers.  A fresh
            # restore per resumption keeps resuming the same checkpoint
            # twice idempotent (the table is never shared between them).
            self._table = AnswerTable.restore(checkpoint.table)

        def _search():
            with obs.span(
                "resume",
                engine="interpreter",
                goal=str(checkpoint.goal),
                frontier=str(checkpoint.frontier_size),
            ):
                try:
                    for answers, final_db, trace in self._bfs(
                        checkpoint.goal,
                        None,
                        goal_vars,
                        budget,
                        want_trace=checkpoint.want_trace,
                        obs=obs,
                        deadline=_as_deadline(deadline),
                        state=checkpoint,
                        prov=self._prov(),
                        attr=attr,
                    ):
                        bindings = dict(zip(goal_vars, answers))
                        if checkpoint.want_trace:
                            yield Execution(bindings, final_db, trace)
                        else:
                            yield Solution(bindings, final_db)
                finally:
                    _note_budget(obs, budget)
                    self._note_table(obs)

        yield from _hot.meter_engine(attr, _search(), "bfs")

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

        When a store is attached, the winning execution's trace is
        committed to it before returning -- inserts and deletes
        replayed in commit order, each ``iso`` subtrace inside a nested
        savepoint under one top-level savepoint -- so the store's
        durable state advances iff the simulation succeeded.
        """
        store, db = self._resolve_state(db)
        goal = self.program.resolve_goal(as_goal(goal))
        obs = active()
        budget = _Budget(self.max_configs, obs)
        rng = random.Random(seed) if seed is not None else None
        goal_vars = ordered_variables(goal)
        attr = _hot.active_attributor()
        with obs.span("simulate", engine="interpreter", goal=str(goal)), \
                _hot.engine_frame(attr, "dfs"):
            try:
                result = self._dfs(
                    goal,
                    db,
                    goal_vars,
                    budget,
                    rng,
                    max_depth,
                    obs=obs,
                    deadline=_as_deadline(deadline),
                    prov=self._prov(),
                    attr=attr,
                )
            except (SearchBudgetExceeded, DeadlineExceeded) as exc:
                exc.goal = goal
                raise
            finally:
                _note_budget(obs, budget)
                self._note_table(obs)
        if result is None:
            return None
        answers, final_db, trace, times = result
        if store is not None:
            _commit_execution(store, trace)
        return Execution(dict(zip(goal_vars, answers)), final_db, trace, times)

    # -- BFS core ---------------------------------------------------------------

    def _bfs(
        self,
        goal: Formula,
        db: Optional[Database],
        goal_vars: Sequence[Variable],
        budget,
        want_trace: bool,
        obs: Instrumentation = NOOP,
        deadline: Optional[Deadline] = None,
        state: Optional[Checkpoint] = None,
        prov=None,
        attr=None,
        count_solutions: bool = True,
    ) -> Iterator[Tuple[Tuple[Term, ...], Database, Tuple[Action, ...]]]:
        insertable, deletable = update_footprint(self.program, goal)
        # Answer tabling is bypassed under fault injection, exactly like
        # the reducer: fault plans target individual schedules, so the
        # chaos harness must see the naive expansion (byte-identical
        # reports whatever the table holds).
        table = self._table if self.faults is None else None
        # The frontier is bucketed by canonical key: alongside the FIFO
        # queue of (configuration, key) pairs, ``queued`` holds the keys
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
            frontier = deque([(start, start_key)])
            seen = set()
            traces: Dict[object, Tuple[Action, ...]] = {start_key: ()}
            emitted = set()
        else:
            frontier = deque((c, self._key(c)) for c in state.frontier)
            seen = set(state.seen)
            traces = dict(state.traces) if state.traces is not None else {}
            emitted = set(state.emitted)
        naive_keys = set(state.naive) if state is not None else set()
        queued = {key for _, key in frontier}
        enabled = obs.enabled
        faults = self.faults
        # Provenance bookkeeping maps canonical config keys to node ids
        # in the derivation DAG; ``prov`` is None on uninstrumented runs
        # (and for the inner searches of ``iso``), so every touch below
        # is guarded by a single ``prov is not None`` check.
        node_ids: Dict[object, Optional[int]] = {}
        if prov is not None:
            if state is None:
                root = prov.record("config", str(goal), disposition="root")
                node_ids[frontier[0][1]] = root
            else:
                root = prov.record(
                    "config", "(resume) " + str(goal), disposition="root"
                )
                for c, key in frontier:
                    node_ids[key] = prov.record(
                        "config", "(resumed) " + str(c.process), parent=root
                    )

        while frontier:
            config, config_key = frontier.popleft()
            queued.discard(config_key)
            seen.add(config_key)
            if is_final(config.process):
                result = (config.answers, config.database)
                if result not in emitted:
                    emitted.add(result)
                    if enabled and count_solutions:
                        obs.metrics.inc("search.solutions")
                    if prov is not None:
                        prov.mark(
                            node_ids.get(config_key),
                            "solution",
                            witness={
                                "answers": [str(a) for a in config.answers]
                            },
                        )
                    yield config.answers, config.database, traces.get(config_key, ())
                continue
            if enabled:
                obs.metrics.inc("search.configs_expanded")
            parent = node_ids.get(config_key) if prov is not None else None
            stepped = False
            head = None
            try:
                if deadline is not None:
                    deadline.check()
                if table is not None and config_key not in naive_keys:
                    head = _head_call(config.process)
                if head is not None:
                    steps = self._table_steps(
                        head[0],
                        head[1],
                        config.process,
                        config.database,
                        budget,
                        obs,
                        deadline,
                        attr,
                        prov,
                        parent,
                    )
                else:
                    steps = self._enabled_steps(
                        config.process,
                        config.database,
                        self._isol_runner(budget, obs, deadline, attr),
                        obs,
                        prov,
                        parent,
                    )
                if faults is not None:
                    steps = faults.perturb(config.process, config.database, steps)
                if attr is not None:
                    steps = attr.meter_steps(steps)
                for step in steps:
                    budget.spend()
                    stepped = True
                    if dead_config(
                        step.residual, step.database, insertable, deletable, step.subst
                    ):
                        if prov is not None:
                            prov.record_step(step, parent, "dead-config")
                        continue
                    new_proc = apply_subst(step.residual, step.subst)
                    new_answers = tuple(walk(t, step.subst) for t in config.answers)
                    succ = Configuration(new_proc, step.database, new_answers)
                    key = self._key(succ)
                    if key in queued:
                        if enabled:
                            obs.metrics.inc("frontier.subsumed")
                            obs.tracer.event(
                                "frontier.subsumed",
                                config=str(new_proc),
                                by="queued",
                            )
                        if prov is not None:
                            prov.record_step(
                                step,
                                parent,
                                "frontier-subsumed",
                                witness={
                                    "subsumed_by": node_ids.get(key),
                                    "where": "queued",
                                    "config": config_digest(
                                        new_proc, step.database
                                    ),
                                },
                            )
                        continue
                    if key in seen:
                        if prov is not None:
                            prov.record_step(
                                step,
                                parent,
                                "frontier-subsumed",
                                witness={
                                    "subsumed_by": node_ids.get(key),
                                    "where": "seen",
                                    "config": config_digest(
                                        new_proc, step.database
                                    ),
                                },
                            )
                        continue
                    queued.add(key)
                    if prov is not None:
                        node_ids[key] = prov.record_step(step, parent)
                    if want_trace:
                        traces[key] = traces.get(config_key, ()) + (step.action,)
                    frontier.append((succ, key))
                    if enabled:
                        obs.metrics.gauge_max("search.frontier_peak", len(frontier))
                if prov is not None and not stepped:
                    prov.mark(node_ids.get(config_key), "failed-unify")
            except (SearchBudgetExceeded, DeadlineExceeded) as exc:
                # Interrupted mid-expansion: re-queue the current
                # configuration (successors already discovered stay in
                # ``seen``, so re-expanding it on resume is sound) and
                # attach a resumable snapshot.  Every enclosing search
                # layer runs this same handler as the exception
                # propagates, so the outermost (user-goal) checkpoint
                # wins.
                frontier.appendleft((config, config_key))
                if head is not None:
                    # The interrupt fired inside a big-stepped (tabled)
                    # expansion; see ``Checkpoint.naive``.
                    naive_keys.add(config_key)
                exc.goal = goal
                exc.checkpoint = Checkpoint(
                    goal=goal,
                    goal_vars=tuple(goal_vars),
                    frontier=tuple(c for c, _ in frontier),
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
                if enabled:
                    obs.metrics.inc("search.checkpoints")
                if prov is not None:
                    prov.mark(
                        node_ids.get(config_key),
                        "budget-exhausted"
                        if isinstance(exc, SearchBudgetExceeded)
                        else "deadline-exhausted",
                    )
                raise

    def _key(self, config: Configuration):
        return (
            canonical_key(config.process, sort_conc=self.sort_concurrent),
            config.database,
            tuple(
                t if not isinstance(t, Variable) else None for t in config.answers
            ),
        )

    # -- answer tabling ----------------------------------------------------------

    def _table_steps(
        self, atom, rest, proc, db, budget, obs, deadline, attr, prov, parent
    ):
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
        enabled = obs.enabled
        canon, _ = canonical_call(atom)
        entry, delta_cost = table.entry(canon, db)
        if entry is None:
            # Key cap reached: this call runs untabled.
            yield from self._enabled_steps(
                proc,
                db,
                self._isol_runner(budget, obs, deadline, attr),
                obs,
                prov,
                parent,
            )
            return
        residual = seq(*rest) if rest else TRUTH
        hit = entry.complete or entry.active
        if enabled:
            obs.metrics.inc("table.hits" if hit else "table.misses")
            if delta_cost:
                obs.metrics.inc("table.delta_bytes", delta_cost)
            if hit:
                obs.tracer.event(
                    "table.hit", call=str(atom), key=str(canon)
                )
        if hit:
            # A hit prunes like frontier subsumption: the whole
            # re-expansion of the call collapses into served answers.
            if prov is not None:
                prov.record(
                    "table",
                    str(atom),
                    parent=parent,
                    disposition="table-hit",
                    witness={
                        "key": str(canon),
                        "answers": len(entry.order),
                        "complete": entry.complete,
                    },
                )
            if attr is not None:
                attr.charge(
                    "table.hit_credit",
                    max(len(entry.order), 1),
                    predicate=atom.pred,
                )
            if entry.active:
                # Consumer of an in-progress generator: serve the
                # current snapshot and flag every stacked generator so
                # none of them completes on this round's information.
                table.note_consumed(entry)
        for answer in list(entry.order):
            yield self._answer_step(atom, answer, residual)
        if hit:
            return
        for answer in self._generate(
            entry, canon, db, budget, obs, deadline, attr
        ):
            yield self._answer_step(atom, answer, residual)

    def _generate(self, entry, canon, db, budget, obs, deadline, attr):
        """Generator for one table entry: run the matching rule bodies
        under nested breadth-first searches, yielding each answer *new
        to the entry* as it is found, and loop until the global answer
        stamp stabilizes (consumer/generator suspension: a nested
        occurrence of an in-progress key consumed a snapshot, so its
        round must re-run once anything grew).  The entry completes only
        if its final round depended on no in-progress entry but itself.
        """
        table = self._table
        entry.active = True
        table.generating.append(entry)
        try:
            while True:
                before = table.stamp
                entry.round_deps = set()
                for rule, theta in self.program.match_rules(canon):
                    token = (
                        attr.push(
                            rule=_hot.rule_label(rule.head),
                            predicate=canon.pred,
                        )
                        if attr is not None
                        else None
                    )
                    try:
                        body = apply_subst(rule.body, theta)
                        answer_terms = tuple(
                            walk(a, theta) for a in canon.args
                        )
                        for values, final_db, trace in self._bfs(
                            body,
                            db,
                            answer_terms,
                            budget,
                            want_trace=True,
                            obs=obs,
                            deadline=deadline,
                            attr=attr,
                            count_solutions=False,
                        ):
                            added, retired = entry.add(values, final_db, trace)
                            if retired and obs.enabled:
                                obs.metrics.inc("table.subsumed", retired)
                            if added is not None:
                                table.stamp += 1
                                yield added
                    finally:
                        if token is not None:
                            attr.pop(token)
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
            table.generating.pop()

    def _answer_step(self, atom, answer, residual):
        """Turn one cached answer into a transition step for the caller.

        Bound answer positions bind the caller's variables; an unbound
        position leaves the caller's variable free, with sharing between
        positions preserved (the first caller variable to meet an answer
        variable stands in for it).
        """
        values, final_db, trace = answer
        fresh: Dict[Variable, Term] = {}
        theta: Dict[Variable, Term] = {}
        for arg, value in zip(atom.args, values):
            if not isinstance(arg, Variable) or arg in theta:
                continue
            if isinstance(value, Variable):
                if value in fresh:
                    theta[arg] = fresh[value]
                else:
                    fresh[value] = arg
                continue
            theta[arg] = value
        return Step(
            Action("table", atom=atom, subtrace=trace),
            theta,
            residual,
            final_db,
        )

    def _note_table(self, obs: Instrumentation) -> None:
        """Record the table-size gauges after a search (same shape as the
        sequential engine's ``table.keys``/``table.answers``)."""
        table = self._table
        if table is None or not obs.enabled:
            return
        obs.metrics.set_gauge("table.keys", table.keys)
        obs.metrics.set_gauge("table.answers", table.answer_count())
        if table.capped:
            obs.metrics.set_gauge("table.capped", table.capped)

    # -- DFS core ---------------------------------------------------------------

    def _dfs(
        self,
        goal: Formula,
        db: Database,
        goal_vars: Sequence[Variable],
        budget,
        rng: Optional[random.Random],
        max_depth: int,
        obs: Instrumentation = NOOP,
        deadline: Optional[Deadline] = None,
        prov=None,
        attr=None,
    ) -> Optional[tuple]:
        insertable, deletable = update_footprint(self.program, goal)
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
        # DFS keeps traces exactly as the scheduler commits them (the
        # paper's workflow examples pin them), so the answer table is
        # used only where it cannot change a trace: pruning branches
        # whose head call has a *complete and empty* entry, plus the
        # iso-execution memo inside the isolation runner.
        table = self._table if self.faults is None else None
        limit_hits = 0  # depth-truncation events (blocks unsound fail-memo)
        trace: List[Action] = []
        # Wall-clock stamps per committed action, mirrored with ``trace``
        # push-for-push and pop-for-pop; only collected on instrumented
        # runs so the hot loop stays clean.
        times: Optional[List[float]] = [] if obs.enabled else None
        faults = self.faults

        def expand(proc: Formula, state: Database, pnode=None):
            """Successor (step, residual process) pairs, pruned of dead
            configurations and ordered so that children whose frontier is
            immediately enabled come before blocked ones (see
            :func:`frontier_blocked`).

            Lazy: ready steps are yielded as they are discovered and
            blocked ones deferred to the end, so a step the DFS never
            backtracks into is never paid for.  This matters for
            ``iso``: the nested search yields one step per isolated
            execution, and eager materialization here would force it to
            enumerate its *entire* execution space even when the first
            one commits the goal.  (Seeded runs still materialize -- a
            shuffle needs the full list.)
            """
            if table is not None:
                head = _head_call(proc)
                if head is not None:
                    entry = table.peek(canonical_call(head[0])[0], state)
                    if entry is not None and entry.complete and not entry.order:
                        # The head call has a completed, empty answer
                        # table entry: no execution of it exists from
                        # this state, so the branch is dead without
                        # expansion.
                        if obs.enabled:
                            obs.metrics.inc("table.hits")
                        if prov is not None:
                            prov.record(
                                "table",
                                str(head[0]),
                                parent=pnode,
                                disposition="table-hit",
                                witness={"answers": 0, "complete": True},
                            )
                        return
            if obs.enabled:
                obs.metrics.inc("search.configs_expanded")
            if deadline is not None:
                deadline.check()
            steps = self._enabled_steps(
                proc,
                state,
                self._isol_runner(budget, obs, deadline, attr),
                obs,
                prov,
                pnode,
            )
            if faults is not None:
                steps = faults.perturb(proc, state, steps)
            if attr is not None:
                steps = attr.meter_steps(steps)
            # Both checks apply the step's bindings at the leaves; the
            # substituted residual is built only for a step handed out.
            ready = []
            deferred = []
            for step in steps:
                budget.spend()
                theta = step.subst
                if dead_config(
                    step.residual, step.database, insertable, deletable, theta
                ):
                    if prov is not None:
                        prov.record_step(step, pnode, "dead-config")
                    continue
                if frontier_blocked(step.local, step.database, theta):
                    deferred.append(step)
                elif rng is None:
                    yield step, apply_subst(step.residual, theta)
                else:
                    ready.append(step)
            if rng is not None:
                rng.shuffle(ready)
                rng.shuffle(deferred)
            for step in ready + deferred:
                yield step, apply_subst(step.residual, step.subst)

        # Each frame: [process, database, canonical key (None until
        # needed), step iterator, answers, hits_before, prov node,
        # stepped].  The explicit stack avoids Python recursion limits
        # on long workflow executions.
        root = (
            prov.record("config", str(goal), disposition="root")
            if prov is not None
            else None
        )
        stack: List[list] = [
            [goal, db, None, expand(goal, db, root), tuple(goal_vars), 0, root, False]
        ]
        enabled = obs.enabled
        if enabled:
            # The DFS twin of the BFS ``search.frontier_peak`` gauge:
            # deepest point the backtracking stack reaches.
            obs.metrics.gauge_max("search.depth_peak", len(stack))

        while stack:
            if not use_memo and getattr(faults, "dormant", False):
                use_memo = True
            frame = stack[-1]
            _, _, _, steps, answers, hits_before, fnode, _ = frame
            advanced = False
            for step, new_proc in steps:
                new_answers = tuple(walk(t, step.subst) for t in answers)
                trace.append(step.action)
                if times is not None:
                    times.append(time.perf_counter())
                child = None
                if prov is not None:
                    child = prov.record_step(step, fnode)
                    frame[7] = True
                if is_final(new_proc):
                    if prov is not None:
                        prov.mark(
                            child,
                            "solution",
                            witness={"answers": [str(a) for a in new_answers]},
                        )
                    return (
                        new_answers,
                        step.database,
                        tuple(trace),
                        tuple(times) if times is not None else None,
                    )
                if len(stack) >= max_depth:
                    limit_hits += 1
                    trace.pop()
                    if times is not None:
                        times.pop()
                    if prov is not None:
                        prov.mark(child, "depth-limit")
                    continue
                bucket = failed.get(step.database) if use_memo and failed else None
                new_key = (
                    canonical_key(new_proc, self.sort_concurrent) if bucket else None
                )
                if bucket and new_key in bucket:
                    trace.pop()
                    if times is not None:
                        times.pop()
                    if prov is not None:
                        prov.mark(
                            child,
                            "frontier-subsumed",
                            witness={"where": "failed-memo"},
                        )
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
                if enabled:
                    obs.metrics.gauge_max("search.depth_peak", len(stack))
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
                if prov is not None:
                    prov.mark(
                        fnode, "backtracked" if frame[7] else "failed-unify"
                    )
                stack.pop()
                if trace:
                    trace.pop()
                    if times is not None and times:
                        times.pop()
        return None

    # -- isolation ----------------------------------------------------------------

    def _isol_runner(
        self,
        budget,
        obs: Instrumentation = NOOP,
        deadline: Optional[Deadline] = None,
        attr=None,
    ):
        def executions(body: Formula, db: Database, sub_budget):
            body_vars = ordered_variables(body)
            for answers, final_db, trace in self._bfs(
                body,
                db,
                body_vars,
                sub_budget,
                want_trace=True,
                obs=obs,
                deadline=deadline,
                attr=attr,
                count_solutions=False,
            ):
                theta = {
                    v: t
                    for v, t in zip(body_vars, answers)
                    if not isinstance(t, Variable)
                }
                yield theta, final_db, trace

        def attempts(body: Formula, db: Database, sub_budget):
            # Production time of each isolated execution lands under an
            # "iso" phase frame; the frame is popped while the outer
            # search consumes the step (see meter_phase), so a suspended
            # sub-search never bleeds over its consumer's attribution.
            gen = executions(body, db, sub_budget)
            if attr is not None:
                gen = attr.meter_phase(gen, "iso")
            yield from gen

        def run_isolated(body: Formula, db: Database, cap: Optional[int] = None):
            # Complete iso executions are a pure function of (canonical
            # body, database) -- isolation admits no external
            # interleaving -- so uncapped attempts are memoized in the
            # answer table (capped attempts are budget-dependent and
            # bypass it; so does everything under fault injection).
            table = self._table if self.faults is None else None
            entry = varseq = None
            if table is not None and cap is None:
                shape, varseq = _ckey_pair(body, self.sort_concurrent)
                entry, delta_cost = table.iso_entry(shape, db)
                if entry is not None and obs.enabled:
                    obs.metrics.inc(
                        "table.hits" if entry.complete else "table.misses"
                    )
                    if delta_cost:
                        obs.metrics.inc("table.delta_bytes", delta_cost)
                if entry is not None and entry.complete:
                    if obs.enabled:
                        obs.tracer.event("table.hit", iso=str(body))
                    if attr is not None:
                        attr.charge(
                            "table.hit_credit", max(len(entry.order), 1)
                        )
                    for values, final_db, trace in list(entry.order):
                        theta = {
                            v: t
                            for v, t in zip(varseq, values)
                            if not isinstance(t, Variable)
                        }
                        yield theta, final_db, trace
                    return

            def produce(sub_budget):
                gen = attempts(body, db, sub_budget)
                if entry is None or entry.active:
                    # Untabled, or a recursive attempt on a body whose
                    # outer enumeration is already recording.
                    yield from gen
                    return
                entry.active = True
                entry.round_deps = set()
                table.generating.append(entry)
                try:
                    for theta, final_db, trace in gen:
                        entry.add(
                            tuple(theta.get(v, v) for v in varseq),
                            final_db,
                            trace,
                        )
                        yield theta, final_db, trace
                finally:
                    entry.active = False
                    table.generating.remove(entry)
                # Reached only on natural exhaustion (an abandoned or
                # interrupted enumeration is a warm prefix, never
                # complete); sound only if no in-progress call entry
                # fed this enumeration.
                if not (entry.round_deps - {id(entry)}):
                    entry.complete = True

            sub_budget = budget if cap is None else _CappedBudget(budget, cap)
            try:
                if not obs.enabled:
                    yield from produce(sub_budget)
                    return
                obs.enter_iso()
                try:
                    with obs.span("iso-subsearch", body=str(body)):
                        yield from produce(sub_budget)
                finally:
                    obs.exit_iso()
            except AttemptBudgetExceeded as exc:
                # A bounded attempt (iso[k]) ran out of its private cap:
                # by rollback-on-failure this is ordinary *failure* of
                # the isolated step, not an abort -- the attempt yields
                # no execution and leaves no trace.  An enclosing
                # attempt's cap keeps propagating to its own runner.
                if getattr(exc, "attempt", None) is not sub_budget:
                    raise
                if obs.enabled:
                    obs.metrics.inc("iso.attempt_budget_exhausted")
                return

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


def _commit_execution(store, trace) -> None:
    """Commit a successful execution's trace to a store, mapping the
    trace's isolation structure onto savepoints: one top-level
    savepoint for the run, a nested one per ``iso`` subtrace.  On any
    failure the savepoint is rolled back (best-effort on a crashed
    store -- reopening it rolls back for us) and the error propagates,
    so a partial commit is never left visible."""
    sp = store.savepoint()
    try:
        _replay_into(store, trace)
    except BaseException:
        try:
            store.rollback(sp)
        except Exception:
            pass
        raise
    else:
        store.release(sp)


def _replay_into(store, actions) -> None:
    """The store twin of :func:`repro.core.transitions.replay_actions`:
    queries are skipped, updates applied, ``iso`` (and ``table``, whose
    subtrace is the recorded big-step execution) bracketed."""
    for action in actions:
        kind = action.kind
        if kind == "ins":
            store.insert(action.atom)
        elif kind == "del":
            store.delete(action.atom)
        elif kind in ("iso", "table"):
            sp = store.savepoint()
            try:
                _replay_into(store, action.subtrace)
            except BaseException:
                try:
                    store.rollback(sp)
                except Exception:
                    pass
                raise
            else:
                store.release(sp)


def _note_budget(obs: Instrumentation, budget: _Budget) -> None:
    """Record the final budget spend of a finished (or abandoned) search."""
    if obs.enabled:
        obs.metrics.gauge_max("budget.spent", budget.used)
        obs.metrics.set_gauge("budget.limit", budget.limit)


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
