"""Exception hierarchy for the Transaction Datalog engines.

Every engine error derives from :class:`ReproError`, which carries three
structured fields so callers (the CLI, the chaos harness, monitoring)
can react programmatically instead of parsing messages:

``goal``
    The goal whose evaluation raised, when known (a formula or its
    rendered string).  Attached at the outermost search layer, so nested
    isolation sub-searches report the *user's* goal, not the sub-body.
``spent``
    How much of a budget was consumed before the error, when the error
    is budget-shaped (``None`` otherwise).
``checkpoint``
    A resumable :class:`~repro.core.interpreter.Checkpoint` of the
    interrupted search, when one could be captured (breadth-first
    searches; ``None`` for depth-first simulation and the analytic
    engines).  ``Interpreter.resume(checkpoint)`` continues the search.

``TDError`` is kept as an alias of :class:`ReproError` for existing
``except TDError`` sites.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ReproError",
    "TDError",
    "SafetyError",
    "SearchBudgetExceeded",
    "AttemptBudgetExceeded",
    "DeadlineExceeded",
    "UnsupportedProgramError",
]


class ReproError(Exception):
    """Base class for engine errors, with structured context fields.

    ``goal``, ``spent`` and ``checkpoint`` default to ``None`` and are
    filled in by whichever layer knows them (see module docstring); the
    fields survive re-raising because layers annotate the *same*
    exception object as it propagates.
    """

    def __init__(
        self,
        *args: object,
        goal: Optional[object] = None,
        spent: Optional[int] = None,
        checkpoint: Optional[Any] = None,
    ):
        super().__init__(*args)
        self.goal = goal
        self.spent = spent
        self.checkpoint = checkpoint


#: Backwards-compatible alias (the pre-robustness base class name).
TDError = ReproError


class SafetyError(ReproError):
    """An elementary update or builtin was executed with unbound variables.

    TD is a safe language; engines surface violations loudly instead of
    guessing bindings.
    """


class SearchBudgetExceeded(ReproError):
    """The search exhausted its configuration budget without an answer.

    Full TD is RE-complete, so the interpreter is a *semi*-decision
    procedure: when the budget runs out the query's status is unknown,
    which is reported as this exception rather than as failure.

    ``spent`` is how much of the budget was actually consumed when the
    search gave up (equal to ``explored`` unless the raiser counts
    something coarser, e.g. the state-space explorer counting interned
    states while nested isolation searches spend the same budget).

    When the interrupted search was breadth-first, ``checkpoint`` holds
    a resumable :class:`~repro.core.interpreter.Checkpoint` (frontier
    plus visited summary); ``Interpreter.resume`` continues exactly
    where the budget fired.
    """

    def __init__(
        self,
        explored: int,
        budget: int,
        spent: Optional[int] = None,
        *,
        goal: Optional[object] = None,
        checkpoint: Optional[Any] = None,
    ):
        self.explored = explored
        self.budget = budget
        super().__init__(
            "search explored %d configurations (budget %d, spent %d) "
            "without resolving the goal"
            % (explored, budget, explored if spent is None else spent),
            goal=goal,
            spent=explored if spent is None else spent,
            checkpoint=checkpoint,
        )


class AttemptBudgetExceeded(SearchBudgetExceeded):
    """A *bounded attempt* (``with_budget`` / ``iso`` with a budget cap)
    exhausted its private budget.

    Unlike its parent this is not an abort: the isolation runner catches
    it and treats the attempt as *failed*, which rolls the sub-execution
    back (the paper's rollback-on-failure) and lets recovery combinators
    such as ``fallback`` take over.  It only escapes to user code when a
    bounded attempt is run directly.
    """


class DeadlineExceeded(ReproError):
    """A cooperative deadline fired mid-search.

    The interpreter checks the deadline between configuration
    expansions (never inside an elementary step), so the database seen
    by the caller is always a consistent pre-step state.  Like
    :class:`SearchBudgetExceeded`, breadth-first searches attach a
    resumable ``checkpoint``.
    """

    def __init__(
        self,
        elapsed: float,
        deadline: float,
        *,
        goal: Optional[object] = None,
        spent: Optional[int] = None,
        checkpoint: Optional[Any] = None,
    ):
        self.elapsed = elapsed
        self.deadline = deadline
        super().__init__(
            "search deadline of %.3fs exceeded after %.3fs (cooperative stop)"
            % (deadline, elapsed),
            goal=goal,
            spent=spent,
            checkpoint=checkpoint,
        )


class UnsupportedProgramError(ReproError):
    """A program uses features outside the selected engine's sublanguage
    (e.g. an update fed to the Datalog reader)."""
