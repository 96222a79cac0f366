"""Engine façade: pick the weakest adequate evaluator for each goal.

The paper's complexity map is prescriptive for implementations: the less
expressive the sublanguage, the better the evaluation strategy available.
:func:`select_engine` runs the classifier, and the :class:`Engine` it
returns routes each goal:

=============================  =============================  ==============
goal                           engine                         termination
=============================  =============================  ==============
one tuple test, or one call    Datalog reader: magic sets     decision proc.
whose rules translate to       or seminaive
Datalog (a read)
sequential or nonrecursive     tabled interpreter             decision proc.
TD that updates
nonrecursive or fully          small-step BFS, tabled         decision proc.
bounded TD with ``|``
full TD                        small-step BFS, tabled         semi-decision
=============================  =============================  ==============

A read is classical Datalog over one state, which the reader
(:class:`repro.datalog.reader.DatalogReader`) decides whenever
:func:`repro.datalog.from_td` accepts every rule the goal reaches.
Every other goal runs on the one interpreter the engine owns: on
``|``-free sequential TD its generator/consumer tables close every
recursion (docs/SEMANTICS.md section 3), and on an acyclic call graph
they stay polynomial in the data (section 4).  The
classification -- ``Engine.sublanguage``, ``Engine.decidable`` and the
``time.<sublanguage>`` timer -- still reports the paper's map.

:class:`Engine` wraps the result with a uniform API (``succeeds``,
``solve``, ``final_databases``, ``simulate``, ``resume``) so examples,
tests and benchmarks do not care which evaluator runs underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Set, Union

from ..datalog.reader import DatalogReader
from ..obs.context import Instrumentation, active
from .analysis import Analysis, Sublanguage, analyze
from .database import Database
from .errors import ReproError
from .formulas import Formula
from .interpreter import Checkpoint, Deadline, Execution, Interpreter, Solution
from .parser import as_goal
from .program import Program

__all__ = ["Engine", "select_engine", "solve"]

_Backend = Union[Interpreter, DatalogReader]


def _annotate(exc: ReproError, goal: Union[str, Formula]) -> ReproError:
    """Stamp the user's goal on an escaping engine error.

    The façade re-raises the *same* exception object, never a rewrap, so
    the structured fields set deeper down (``spent``, ``checkpoint``)
    survive the crossing; only a missing ``goal`` is filled in.
    """
    if getattr(exc, "goal", None) is None:
        exc.goal = goal
    return exc

#: Sublanguages for which the selected procedure is guaranteed to halt.
_DECIDABLE = {
    Sublanguage.QUERY_ONLY,
    Sublanguage.NONRECURSIVE,
    Sublanguage.FULLY_BOUNDED,
    Sublanguage.SEQUENTIAL,
}


@dataclass
class Engine:
    """A program bundled with its evaluators: the interpreter, and the
    Datalog reader for the reads."""

    program: Program
    #: The evaluator of the goal :func:`select_engine` was given; without
    #: one, of the program's goals (the reader when no rule updates).
    backend: _Backend
    analysis: Analysis
    sublanguage: Sublanguage
    #: Runs every goal the reader does not serve, and every
    #: ``simulate`` and ``resume``.
    interpreter: Interpreter
    #: Runs the reads (:meth:`DatalogReader.serves`).
    reader: DatalogReader

    @property
    def decidable(self) -> bool:
        """True when evaluation is guaranteed to terminate."""
        return self.sublanguage in _DECIDABLE

    def route(self, goal: Formula) -> _Backend:
        """The evaluator for *goal*: the reader when it serves the goal
        (one test, or one call whose rules translate to Datalog), else
        the interpreter."""
        return self.reader if self.reader.serves(goal) else self.interpreter

    def _describe(self, backend: _Backend) -> Instrumentation:
        """Stamp the active instrumentation (if any) with what runs here:
        backend class, sublanguage, decidability.  Returns the bundle so
        callers can hang timers off it."""
        obs = active()
        if obs.enabled:
            obs.metrics.set_info("engine.backend", type(backend).__name__)
            obs.metrics.set_info("engine.sublanguage", self.sublanguage.value)
            obs.metrics.set_info("engine.decidable", str(self.decidable).lower())
        return obs

    def _timer_name(self) -> str:
        return "time.%s" % self.sublanguage.name.lower()

    def succeeds(self, goal: Union[str, Formula], db: Optional[Database] = None) -> bool:
        """Does some execution of *goal* from *db* commit?"""
        try:
            formula = as_goal(goal)
            backend = self.route(formula)
            with self._describe(backend).timer(self._timer_name()):
                return backend.succeeds(formula, db)
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

        *deadline* arms a cooperative stop on the interpreter; the
        reader is a decision procedure over reads and ignores it.  With
        ``db=None`` the initial state comes from the attached store
        (``store=`` on :func:`select_engine`, or the ambient provider).

        Like the backends, the façade reports to the instrumentation
        active at the first pull: that is where it stamps the backend
        and accrues the ``time.<sublanguage>`` timer, which covers time
        spent *inside* the backend iterator, not whatever the consumer
        does between answers.  Engine errors escaping the backend cross
        this façade as the same exception object (``spent``/
        ``checkpoint`` intact), with the user's goal stamped on.
        """
        formula = as_goal(goal)
        backend = self.route(formula)
        obs = self._describe(backend)
        name = self._timer_name()
        if backend is self.interpreter:
            inner = backend.solve(formula, db, deadline=deadline)
        else:
            inner = backend.solve(formula, db)
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
        """Continue an interrupted search (see :meth:`Interpreter.resume`);
        checkpoints only come from the interpreter."""
        return self.interpreter.resume(checkpoint, **kwargs)

    def final_databases(
        self, goal: Union[str, Formula], db: Optional[Database] = None
    ) -> Set[Database]:
        """All states the transaction can leave the database in."""
        try:
            formula = as_goal(goal)
            backend = self.route(formula)
            with self._describe(backend).timer(self._timer_name()):
                return backend.final_databases(formula, db)
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

        Simulation always runs on the interpreter (traces are a
        small-step notion).  When a store is attached the winning
        execution is committed to it (see :meth:`Interpreter.simulate`).
        """
        try:
            with self._describe(self.interpreter).timer(self._timer_name()):
                return self.interpreter.simulate(
                    as_goal(goal), db, seed=seed, max_depth=max_depth,
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
    """Classify *program* (and *goal*, if given) and build its engine.

    The engine routes each goal it is asked (see the table in this
    module's docstring): a read -- one tuple test, or one call whose
    reachable rules :func:`repro.datalog.from_td` translates -- runs on
    the :class:`~repro.datalog.reader.DatalogReader`; every other goal,
    and every ``simulate`` and ``resume``, runs on the engine's one
    tabled :class:`Interpreter`.  *goal* only sets ``Engine.backend``
    and the reported class.

    ``max_configs`` bounds every interpreter search and ``tabling=False``
    disables its answer tables (docs/PERFORMANCE.md); the reader
    evaluates bottom-up and ignores both.  ``store``
    attaches a storage backend (see :class:`repro.store.Store` and
    docs/STORAGE.md) to both evaluators.  Observers are not options:
    every search the engine runs reports to the metrics, derivation
    recorder and cost attributor active at its first pull
    (:func:`repro.obs.instrumented`, :func:`repro.obs.recording`,
    :func:`repro.obs.attributing`).
    """
    if goal is not None:
        goal = as_goal(goal)
    analysis = analyze(program, goal)
    interpreter = Interpreter(
        program, max_configs=max_configs, store=store, tabling=tabling
    )
    reader = DatalogReader(program, store=store)
    # Without a goal, a program none of whose rules updates is all reads.
    reads = analysis.query_only if goal is None else reader.serves(goal)
    return Engine(
        program=program,
        backend=reader if reads else interpreter,
        analysis=analysis,
        sublanguage=analysis.classify(),
        interpreter=interpreter,
        reader=reader,
    )


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
