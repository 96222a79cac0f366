"""Engine façade: pick the weakest adequate evaluator for a program.

The paper's complexity map is prescriptive for implementations: the less
expressive the sublanguage, the better the evaluation strategy available.
:func:`select_engine` runs the classifier and routes:

========================  =============================  ==============
sublanguage               engine                         termination
========================  =============================  ==============
query-only TD             tabled sequential evaluator    decision proc.
nonrecursive TD           tabled sequential evaluator;   decision proc.
                          small-step BFS with ``|``
fully bounded TD          small-step exhaustive search   decision proc.
sequential TD             tabled sequential evaluator    decision proc.
full TD                   small-step BFS                 semi-decision
========================  =============================  ==============

Nonrecursive TD has no evaluator of its own: without ``|`` it lies inside
sequential TD, whose tabled worklist stays polynomial in the data when
the call graph is acyclic (docs/SEMANTICS.md section 4); with ``|`` the
configuration space is finite, so the small-step search terminates.  The
classification -- ``Engine.sublanguage``, ``Engine.decidable`` and the
``time.<sublanguage>`` timer -- still reports the paper's map.

:class:`Engine` wraps the result with a uniform API (``succeeds``,
``solve``, ``final_databases``, ``simulate``) so examples, tests and
benchmarks do not care which evaluator runs underneath.  Every
interpreter the façade builds, as the backend or over an analytic one
for ``simulate``/``resume``, gets the ``max_configs`` and ``tabling``
that :func:`select_engine` was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Set, Union

from ..obs.context import Instrumentation, active
from .analysis import Analysis, Sublanguage, analyze
from .database import Database
from .errors import ReproError
from .formulas import Formula
from .interpreter import Checkpoint, Deadline, Execution, Interpreter, Solution
from .parser import as_goal
from .program import Program
from .seqeval import SequentialEngine

__all__ = ["Engine", "select_engine", "solve"]

_Backend = Union[Interpreter, SequentialEngine]


def _annotate(exc: ReproError, goal: Union[str, Formula]) -> ReproError:
    """Stamp the user's goal on an escaping engine error.

    The façade re-raises the *same* exception object, never a rewrap, so
    the structured fields set deeper down (``spent``, ``checkpoint``)
    survive the crossing; only a missing ``goal`` is filled in.
    """
    if getattr(exc, "goal", None) is None:
        exc.goal = goal
    return exc

#: Sublanguages whose ``|``-free programs the tabled sequential evaluator
#: decides.
_TABLED = {Sublanguage.QUERY_ONLY, Sublanguage.NONRECURSIVE, Sublanguage.SEQUENTIAL}

#: Sublanguages for which the selected procedure is guaranteed to halt.
_DECIDABLE = {
    Sublanguage.QUERY_ONLY,
    Sublanguage.NONRECURSIVE,
    Sublanguage.FULLY_BOUNDED,
    Sublanguage.SEQUENTIAL,
}


@dataclass
class Engine:
    """A program bundled with the evaluator chosen for its sublanguage."""

    program: Program
    backend: _Backend
    analysis: Analysis
    sublanguage: Sublanguage
    #: The small-step options :func:`select_engine` was given; every
    #: interpreter built over an analytic backend uses them too.
    max_configs: int = field(default=200_000, init=False)
    tabling: bool = field(default=True, init=False)

    @property
    def decidable(self) -> bool:
        """True when evaluation is guaranteed to terminate."""
        return self.sublanguage in _DECIDABLE

    def _goal(self, goal: Union[str, Formula]) -> Formula:
        return as_goal(goal)

    def _describe(self) -> Instrumentation:
        """Stamp the active instrumentation (if any) with what runs here:
        backend class, sublanguage, decidability.  Returns the bundle so
        callers can hang timers off it."""
        obs = active()
        if obs.enabled:
            obs.metrics.set_info("engine.backend", type(self.backend).__name__)
            obs.metrics.set_info("engine.sublanguage", self.sublanguage.value)
            obs.metrics.set_info("engine.decidable", str(self.decidable).lower())
        return obs

    def _timer_name(self) -> str:
        return "time.%s" % self.sublanguage.name.lower()

    def _interpreter(self) -> Interpreter:
        """The small-step interpreter for traces and checkpoints: the
        backend itself when it is one, else a fresh interpreter over the
        same program and store, with this engine's ``max_configs`` and
        ``tabling``."""
        if isinstance(self.backend, Interpreter):
            return self.backend
        return Interpreter(
            self.program,
            max_configs=self.max_configs,
            store=self.backend.store,
            tabling=self.tabling,
        )

    def succeeds(self, goal: Union[str, Formula], db: Optional[Database] = None) -> bool:
        """Does some execution of *goal* from *db* commit?"""
        try:
            with self._describe().timer(self._timer_name()):
                return self.backend.succeeds(self._goal(goal), db)
        except ReproError as exc:
            raise _annotate(exc, goal)

    def solve(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Solution]:
        """Enumerate (answer bindings, final state) pairs.

        *deadline* arms a cooperative stop on the small-step backend
        (full/bounded TD); the analytic backends are decision procedures
        and ignore it.  With ``db=None`` the initial state comes from
        the backend's attached store (``store=`` on
        :func:`select_engine`, or the ambient provider).

        Like the backends, the façade reports to the instrumentation
        active at the first pull: that is where it stamps the backend
        and accrues the ``time.<sublanguage>`` timer, which covers time
        spent *inside* the backend iterator, not whatever the consumer
        does between answers.  Engine errors escaping the backend cross
        this façade as the same exception object (``spent``/
        ``checkpoint`` intact), with the user's goal stamped on.
        """
        obs = self._describe()
        name = self._timer_name()
        if deadline is not None and isinstance(self.backend, Interpreter):
            inner = self.backend.solve(self._goal(goal), db, deadline=deadline)
        else:
            inner = self.backend.solve(self._goal(goal), db)
        while True:
            try:
                if not obs.enabled:
                    solution = next(inner)
                else:
                    with obs.metrics.timer(name):
                        solution = next(inner)
            except StopIteration:
                return
            except ReproError as exc:
                raise _annotate(exc, goal)
            yield solution

    def resume(self, checkpoint: Checkpoint, **kwargs) -> Iterator[Solution]:
        """Continue an interrupted small-step search (see
        :meth:`Interpreter.resume`); checkpoints only come from the
        small-step backend, so an interpreter always handles this."""
        return self._interpreter().resume(checkpoint, **kwargs)

    def final_databases(
        self, goal: Union[str, Formula], db: Optional[Database] = None
    ) -> Set[Database]:
        """All states the transaction can leave the database in."""
        try:
            with self._describe().timer(self._timer_name()):
                return self.backend.final_databases(self._goal(goal), db)
        except ReproError as exc:
            raise _annotate(exc, goal)

    def simulate(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        seed: Optional[int] = None,
        max_depth: int = 100_000,
        deadline: Union[None, float, Deadline] = None,
    ) -> Optional[Execution]:
        """One successful execution with its full action trace.

        Simulation always uses the small-step scheduler (traces are a
        small-step notion), regardless of the analytic backend.  When a
        store is attached the winning trace is committed to it (see
        :meth:`Interpreter.simulate`).
        """
        interp = self._interpreter()
        try:
            with self._describe().timer(self._timer_name()):
                return interp.simulate(
                    self._goal(goal), db, seed=seed, max_depth=max_depth,
                    deadline=deadline,
                )
        except ReproError as exc:
            raise _annotate(exc, goal)


def select_engine(
    program: Program,
    goal: Union[str, Formula, None] = None,
    *,
    max_configs: int = 200_000,
    store=None,
    tabling: bool = True,
) -> Engine:
    """Classify *program* (and *goal*, if given) and build the matching
    engine.

    Query-only, nonrecursive and sequential programs run on the tabled
    :class:`SequentialEngine` when neither the program nor the goal uses
    ``|``; everything else runs on the small-step :class:`Interpreter`
    (see the table in this module's docstring).  An engine chosen
    without a goal rejects a later ``|`` goal it cannot evaluate with
    :class:`UnsupportedProgramError`; pass the goal to route on it.

    ``max_configs`` bounds every small-step search the engine makes:
    the backend's, and those ``simulate``/``resume`` build over an
    analytic backend.  ``tabling=False`` disables answer tabling in the
    same interpreters (docs/PERFORMANCE.md); the sequential evaluator
    tables by construction and ignores both.  ``store`` attaches a
    storage backend (see :class:`repro.store.Store` and
    docs/STORAGE.md) to whichever backend is selected.  Observers are
    not options: every search the engine runs reports to the metrics,
    derivation recorder and cost attributor active at its first pull
    (:func:`repro.obs.instrumented`, :func:`repro.obs.recording`,
    :func:`repro.obs.attributing`).
    """
    if goal is not None:
        goal = as_goal(goal)
    analysis = analyze(program, goal)
    sub = analysis.classify()
    backend: _Backend
    if sub in _TABLED and not analysis.uses_conc:
        backend = SequentialEngine(program, store=store)
    else:
        backend = Interpreter(
            program, max_configs=max_configs, store=store, tabling=tabling
        )
    engine = Engine(program=program, backend=backend, analysis=analysis, sublanguage=sub)
    engine.max_configs = max_configs
    engine.tabling = tabling
    return engine


def solve(
    program: Program,
    goal: Union[str, Formula],
    db: Optional[Database] = None,
    *,
    max_configs: int = 200_000,
    store=None,
    tabling: bool = True,
) -> Iterator[Solution]:
    """The blessed one-call entry point: classify, pick an engine, solve.

    Equivalent to ``select_engine(program, goal).solve(goal, db)`` --
    *goal* may be a formula or concrete syntax.  Use :func:`select_engine`
    directly when reusing one engine across many goals or databases.
    ``store=`` attaches a storage backend (docs/STORAGE.md); with
    ``db=None`` the store supplies the initial state.
    """
    engine = select_engine(
        program, goal, max_configs=max_configs, store=store, tabling=tabling
    )
    return engine.solve(goal, db)
