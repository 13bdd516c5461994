"""A centralized Datalog evaluator: the annotation oracle.

The paper expresses its views in Datalog (and SQL-99 recursion) and builds on
classical recursive query processing.  This package evaluates such programs
in one process, independent of the distributed engine, so tests can
recompute a view's annotations from scratch and compare them with what the
engine maintained incrementally:

* :mod:`repro.datalog.ast` — terms, atoms, rules, comparison conditions;
* :mod:`repro.datalog.parser` — a parser for the paper's Datalog syntax;
* :mod:`repro.datalog.program` — programs, EDB/IDB classification;
* :mod:`repro.datalog.stratify` — dependency graph and stratification;
* :mod:`repro.datalog.seminaive` — naive and semi-naive evaluation, optionally
  under a provenance semiring (PosBool gives absorption provenance).
"""

from repro.datalog.ast import Atom, Condition, Constant, Rule, Term, Variable
from repro.datalog.parser import DatalogSyntaxError, parse_program, parse_rule
from repro.datalog.program import Program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.stratify import StratificationError, stratify

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Condition",
    "Rule",
    "Program",
    "parse_rule",
    "parse_program",
    "DatalogSyntaxError",
    "stratify",
    "StratificationError",
    "SemiNaiveEvaluator",
]
