"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

This package is the substrate for *absorption provenance* (Section 4 of the
paper): every view tuple is annotated with a Boolean expression over base-tuple
variables, and the expression is stored canonically as a BDD so that Boolean
absorption (``a AND (a OR b) == a``) happens automatically through hash-consing.

The public surface mirrors what the paper uses from JavaBDD:

* :class:`~repro.bdd.manager.BDDManager` — creates variables and combines
  functions with AND / OR / NOT / ITE / restrict.
* :class:`~repro.bdd.manager.BDD` — an immutable handle to a Boolean function.
* :mod:`repro.bdd.expr` — a symbolic sum-of-products representation used as a
  comparison point (ablation) and for human-readable provenance dumps.
* :mod:`repro.bdd.serialize` — a compact manager-independent encoding used by
  checkpoints and by the process backend's cross-worker messages.
"""

from repro.bdd.manager import BDD, BDDManager
from repro.bdd.expr import BoolExpr, Conjunction, Disjunction, Literal, FALSE_EXPR, TRUE_EXPR
from repro.bdd.serialize import SerializedBDD, deserialize_bdd, serialize_bdd

__all__ = [
    "BDD",
    "BDDManager",
    "BoolExpr",
    "Conjunction",
    "Disjunction",
    "Literal",
    "TRUE_EXPR",
    "FALSE_EXPR",
    "SerializedBDD",
    "serialize_bdd",
    "deserialize_bdd",
]
