"""Provenance-aware streaming operators (Sections 4-6 of the paper).

* :class:`~repro.operators.fixpoint.FixpointOperator` — Algorithm 1: pipelined
  semi-naive recursion with absorption-provenance bookkeeping;
* :class:`~repro.operators.join.PipelinedHashJoin` — Algorithm 2: symmetric
  hash join over update streams with per-tuple provenance;
* :class:`~repro.operators.ship.MinShipOperator` / ``ShipOperator`` —
  Algorithm 3: provenance-buffering ship operator with eager and lazy modes;
* :class:`~repro.operators.aggsel.AggregateSelection` — Algorithm 4: aggregate
  selection over update streams (MIN/MAX/COUNT/SUM), multi-aggregate capable.

Figure 4's table scan is inlined in
:meth:`repro.engine.runtime.ProcessorNode._handle_base_batch`.
"""

from repro.operators.aggsel import AggregateSelection, AggregateSpec
from repro.operators.base import Operator, OperatorStats
from repro.operators.fixpoint import FixpointOperator
from repro.operators.join import PipelinedHashJoin
from repro.operators.ship import MinShipOperator, ShipMode, ShipOperator

__all__ = [
    "Operator",
    "OperatorStats",
    "FixpointOperator",
    "PipelinedHashJoin",
    "MinShipOperator",
    "ShipOperator",
    "ShipMode",
    "AggregateSelection",
    "AggregateSpec",
]
