"""Linear tabling for definite logic programs.

A single-execution-tree tabled resolution engine with iterative fixpoint
re-evaluation, a two-level trie table space, a small Prolog-subset reader,
and a benchmark harness for transitive-closure graph families.  The three
re-evaluation optimizations (DRE, DRA, DRS) combine freely.
"""

from .engine import (
    ALL_CONFIGS,
    DEFAULT_STEP_BUDGET,
    Engine,
    EvalStats,
    StepBudgetExceeded,
    StrategyConfig,
    solve,
)
from .reader import Clause, ParseError, Program, parse_program, parse_query, program_to_text
from .tablespace import TablingInvariantError
from .terms import Struct, Var, functor, term_to_str, unify

__all__ = [
    "ALL_CONFIGS",
    "DEFAULT_STEP_BUDGET",
    "Clause",
    "Engine",
    "EvalStats",
    "ParseError",
    "Program",
    "StepBudgetExceeded",
    "StrategyConfig",
    "Struct",
    "TablingInvariantError",
    "Var",
    "functor",
    "parse_program",
    "parse_query",
    "program_to_text",
    "solve",
    "term_to_str",
    "unify",
]
