"""Declarative description of a distributed, linearly recursive view.

All three use cases of Section 2 share one recursion shape — a linear
recursive rule joining an *edge* relation against the recursive view itself:

* ``reachable(x, y) :- link(x, y).``
  ``reachable(x, y) :- link(x, z), reachable(z, y).``
* ``path(x, y, p, c, l) :- link(x, y, c), ...``
  ``path(x, y, p, c, l) :- link(x, z, c0), path(z, y, p1, c1, l1), ...``
* ``activeRegion(r, x) :- seed(r, x).``
  ``activeRegion(r, y) :- proximity(x, y), activeRegion(r, x).``

:class:`RecursiveViewPlan` captures the shape once so the runtime (Figure 4's
operator wiring) and the executor are query-agnostic: the query modules in
:mod:`repro.queries` only provide schemas, the base-case transform, the
recursive combiner and any aggregate selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple as PyTuple

from repro.data.tuples import Schema, Tuple
from repro.operators.aggsel import AggregateSpec

#: Builds the base-case view tuple from an edge tuple (None to skip; for the
#: region query the base case comes from seeds instead).
BaseCase = Callable[[Tuple], Optional[Tuple]]
#: Builds the recursive-step view tuple from (edge tuple, view tuple); None to
#: reject the pairing (cycle guards, hop bounds, distance predicates).
RecursiveStep = Callable[[Tuple, Tuple], Optional[Tuple]]


class PlanError(Exception):
    """Raised when a plan description is inconsistent."""


@dataclass(frozen=True)
class RecursiveViewPlan:
    """A linearly recursive distributed view definition."""

    name: str
    edge_schema: Schema
    result_schema: Schema
    #: Attribute of the edge relation equated with the view's join attribute
    #: in the recursive rule (``link.dst`` for reachability).
    edge_join_attribute: str
    #: Attribute of the view relation used in the recursive join
    #: (``reachable.src``); must equal the view's partition attribute so the
    #: join is co-located with the view partition, as in Figure 4.
    result_join_attribute: str
    #: Base case: edge tuple -> view tuple (or None when seeds provide the base case).
    make_base: Optional[BaseCase]
    #: Recursive step: (edge tuple, view tuple) -> new view tuple or None.
    combine: RecursiveStep
    #: Aggregate selections to push into Fixpoint / MinShip (Section 6).
    aggregate_specs: PyTuple[AggregateSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.edge_join_attribute not in self.edge_schema.attributes:
            raise PlanError(
                f"edge join attribute {self.edge_join_attribute!r} not in "
                f"{self.edge_schema.relation!r}"
            )
        if self.result_join_attribute not in self.result_schema.attributes:
            raise PlanError(
                f"result join attribute {self.result_join_attribute!r} not in "
                f"{self.result_schema.relation!r}"
            )
        if self.result_join_attribute != self.result_schema.partition_attribute:
            raise PlanError(
                "the recursive join must be co-located with the view partition: "
                f"result_join_attribute={self.result_join_attribute!r} but the view is "
                f"partitioned on {self.result_schema.partition_attribute!r}"
            )

    # -- convenience ------------------------------------------------------------
    @property
    def has_aggregate_selection(self) -> bool:
        """True when the plan prunes tuples with aggregate selections."""
        return bool(self.aggregate_specs)

    def edge_join_value(self, edge: Tuple) -> object:
        """Join-key value of an edge tuple."""
        return edge[self.edge_join_attribute]

    def result_partition_value(self, result: Tuple) -> object:
        """Partition-key value of a view tuple (where it must be stored)."""
        return result[self.result_schema.partition_attribute]

    def base_tuple_for(self, edge: Tuple) -> Optional[Tuple]:
        """Base-case view tuple derived from an edge tuple, if any."""
        if self.make_base is None:
            return None
        return self.make_base(edge)
