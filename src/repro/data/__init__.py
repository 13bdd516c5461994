"""Data model: tuples, updates, batches and relations.

The execution model of the paper (Section 3.1) is a distributed, continuous
computation over horizontally partitioned *set* relations updated by streams
of insertions and deletions.  This package provides:

* :class:`~repro.data.tuples.Schema` and :class:`~repro.data.tuples.Tuple` —
  named, immutable tuples with byte-size accounting;
* :class:`~repro.data.update.Update` — INS/DEL operations carrying optional
  provenance annotations;
* :class:`~repro.data.relation.Relation` and
  :class:`~repro.data.relation.PartitionedRelation` — set-semantics relations,
  optionally horizontally partitioned by a key attribute;
* :class:`~repro.data.batch.UpdateBatch` and
  :class:`~repro.data.batch.BatchPolicy` — batches of updates as the
  pipeline's first-class delta unit, plus the batching knobs.
"""

from repro.data.batch import BatchPolicy, UpdateBatch, group_by_tuple, split_runs
from repro.data.tuples import Schema, Tuple
from repro.data.update import Update, UpdateType
from repro.data.relation import PartitionedRelation, Relation

__all__ = [
    "BatchPolicy",
    "UpdateBatch",
    "group_by_tuple",
    "split_runs",
    "Schema",
    "Tuple",
    "Update",
    "UpdateType",
    "Relation",
    "PartitionedRelation",
]
