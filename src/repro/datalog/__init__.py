"""Classical Datalog substrate.

TD is "Datalog plus process modeling": its query-only fragment *is*
classical Datalog, and the paper repeatedly appeals to Datalog technology
(least fixpoints, tabling, magic sets) when discussing the tame
sublanguages.  This subpackage provides a standalone bottom-up Datalog
engine -- naive and seminaive evaluation with stratified negation -- used

* on its own, for monitoring queries over workflow histories;
* as the engine's reader (:mod:`repro.datalog.reader`): a read of
  query-only TD -- one test, or one call whose rules :func:`from_td`
  translates -- runs here, goal-directed by magic sets when the call
  binds an argument (experiment C5).
"""

from .ast import DatalogProgram, DatalogRule, Literal, StratificationError
from .engine import evaluate, evaluate_naive, from_td, query
from .magic import magic_query, magic_transform

__all__ = [
    "DatalogProgram",
    "DatalogRule",
    "Literal",
    "StratificationError",
    "evaluate",
    "evaluate_naive",
    "from_td",
    "magic_query",
    "magic_transform",
    "query",
]
