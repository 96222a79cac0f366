"""repro -- Transaction Datalog: Workflow, Transactions, and Datalog.

A production-quality reproduction of Anthony J. Bonner's PODS 1999 paper
*Workflow, Transactions, and Datalog*.  The package provides:

* :mod:`repro.core` -- the Transaction Datalog language: parser,
  databases, the procedural (small-step) semantics, a full-TD engine
  (semi-decision procedure + workflow simulator), decision procedures for
  the sequential / nonrecursive / fully bounded sublanguages, and the
  sublanguage classifier behind the paper's complexity map;
* :mod:`repro.datalog` -- a classical Datalog substrate (naive and
  seminaive bottom-up evaluation, stratified negation);
* :mod:`repro.machines` -- Turing machines, two-stack machines, counter
  machines, safe Petri nets, AND/OR graphs, and their encodings into TD
  (the constructions behind the paper's complexity theorems);
* :mod:`repro.workflow` -- a workflow modeling layer (tasks, agents,
  combinators) that compiles to TD and simulates the paper's genome-lab
  examples;
* :mod:`repro.lims` -- a synthetic genome-laboratory workload generator
  in the mold of the LabFlow-1 benchmark;
* :mod:`repro.complexity` -- the program families and drivers behind the
  benchmark suite.

Quickstart -- :func:`repro.solve` is the blessed entry point (goals may
be given as strings or formulas); use :func:`repro.select_engine` when
reusing one engine across many goals::

    from repro import parse_program, parse_database, solve

    program = parse_program('''
        transfer(From, To, Amt) <-
            iso(withdraw(From, Amt) * deposit(To, Amt)).
        withdraw(Acct, Amt) <-
            balance(Acct, Bal) * Bal >= Amt *
            del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
        deposit(Acct, Amt) <-
            balance(Acct, Bal) *
            del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
    ''')
    db = parse_database("balance(a, 100). balance(b, 10).")
    for solution in solve(program, "transfer(a, b, 30)", db):
        print(solution.database)
"""

from .core import (
    Action,
    Analysis,
    Atom,
    AttemptBudgetExceeded,
    Checkpoint,
    Constant,
    Database,
    Deadline,
    DeadlineExceeded,
    Engine,
    Execution,
    Formula,
    Interpreter,
    ParseError,
    Program,
    ProgramError,
    ReproError,
    Rule,
    SafetyError,
    Schema,
    SearchBudgetExceeded,
    SequentialEngine,
    Solution,
    Sublanguage,
    TDError,
    UnsupportedProgramError,
    Variable,
    analyze,
    as_goal,
    atom,
    classify,
    conc,
    const,
    format_database,
    format_program,
    format_trace,
    iso,
    parse_atom,
    parse_database,
    parse_goal,
    parse_program,
    parse_rules,
    select_engine,
    seq,
    solve,
    var,
)
from .store import (
    MemoryStore,
    SqliteStore,
    Store,
    StoreBusy,
    StoreCorrupt,
    StoreCrashed,
    StoreError,
    fsck,
    open_store,
    using_store_provider,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "Analysis",
    "Atom",
    "AttemptBudgetExceeded",
    "Checkpoint",
    "Constant",
    "Database",
    "Deadline",
    "DeadlineExceeded",
    "Engine",
    "Execution",
    "Formula",
    "Interpreter",
    "MemoryStore",
    "ParseError",
    "Program",
    "ProgramError",
    "ReproError",
    "Rule",
    "SafetyError",
    "Schema",
    "SearchBudgetExceeded",
    "SequentialEngine",
    "Solution",
    "SqliteStore",
    "Store",
    "StoreBusy",
    "StoreCorrupt",
    "StoreCrashed",
    "StoreError",
    "Sublanguage",
    "TDError",
    "UnsupportedProgramError",
    "Variable",
    "__version__",
    "analyze",
    "as_goal",
    "atom",
    "classify",
    "conc",
    "const",
    "format_database",
    "format_program",
    "format_trace",
    "fsck",
    "iso",
    "open_store",
    "parse_atom",
    "parse_database",
    "parse_goal",
    "parse_program",
    "parse_rules",
    "select_engine",
    "seq",
    "solve",
    "using_store_provider",
    "var",
]
