"""Core Transaction Datalog: syntax, semantics, engines, analysis.

This subpackage is the paper's primary contribution.  The layering:

``terms`` / ``unify`` / ``database``
    first-order machinery and immutable database states;
``formulas`` / ``program`` / ``parser`` / ``pretty``
    the language -- AST, rulebases, concrete syntax;
``transitions`` / ``interpreter`` / ``tabling``
    the procedural interpretation (small-step semantics) and the full-TD
    engine (BFS semi-decision procedure + DFS simulation scheduler),
    whose answer tables decide the ``|``-free goals that update;
``analysis`` / ``engine``
    the sublanguage classifier and the engine façade that routes each
    goal to the weakest adequate evaluator: a read of query-only TD to
    the Datalog reader (:mod:`repro.datalog.reader`), every other goal
    to the interpreter.
"""

from .analysis import Analysis, Sublanguage, analyze, classify
from .database import Database, Schema, SchemaError
from .engine import Engine, select_engine, solve
from .errors import (
    AttemptBudgetExceeded,
    DeadlineExceeded,
    ReproError,
    SafetyError,
    SearchBudgetExceeded,
    TDError,
    UnsupportedProgramError,
)
from .formulas import (
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
    conc,
    iso,
    seq,
)
from .interpreter import Checkpoint, Deadline, Execution, Interpreter, Solution
from .parser import (
    ParseError,
    as_goal,
    parse_atom,
    parse_database,
    parse_goal,
    parse_program,
    parse_rules,
)
from .pretty import (
    format_database,
    format_goal,
    format_program,
    format_rule,
    format_trace,
)
from .program import Program, ProgramError, Rule
from .terms import Atom, Constant, Variable, atom, const, var
from .transitions import Action

__all__ = [
    "Action",
    "Analysis",
    "Atom",
    "AttemptBudgetExceeded",
    "Builtin",
    "Call",
    "Checkpoint",
    "Conc",
    "Constant",
    "Database",
    "Deadline",
    "DeadlineExceeded",
    "Del",
    "Engine",
    "Execution",
    "Formula",
    "Ins",
    "Interpreter",
    "Isol",
    "Neg",
    "ParseError",
    "Program",
    "ProgramError",
    "ReproError",
    "Rule",
    "SafetyError",
    "Schema",
    "SchemaError",
    "SearchBudgetExceeded",
    "Seq",
    "Solution",
    "Sublanguage",
    "TDError",
    "TRUTH",
    "Test",
    "Truth",
    "UnsupportedProgramError",
    "Variable",
    "analyze",
    "as_goal",
    "atom",
    "classify",
    "conc",
    "const",
    "format_database",
    "format_goal",
    "format_program",
    "format_rule",
    "format_trace",
    "iso",
    "parse_atom",
    "parse_database",
    "parse_goal",
    "parse_program",
    "parse_rules",
    "select_engine",
    "seq",
    "solve",
    "var",
]
