"""The columnar, batch-first routing layer.

Routing — deciding which node owns each update and grouping a delta by
destination — used to be the engine's per-update hot path: every port handler
walked its batch calling ``partitioner.node_for`` once per update and pushing
into a fresh ``defaultdict`` per routed batch.  After the BDD kernel rework
that pure-Python walk, not provenance maintenance, dominated phase wall time.

This module makes routing a first-class batch operation:

* **columnar keys and owners** — a routed batch is decomposed into parallel
  lists: one routing-key column (built with the port's precomputed key
  extractor) and one owner column, resolved by a *single*
  ``partitioner.nodes_for_many(keys)`` call instead of one scalar lookup per
  update.  Elastic placements answer from an epoch-invalidated key→owner
  cache (:class:`repro.placement.map.PlacementMap`), static ones from the
  modulo partitioner's memo;
* **destination grouping without defaultdict churn** — :func:`group_updates`
  zips the update and owner columns once, with a fast path for the
  overwhelmingly common single-destination batch (no per-update dictionary
  operations at all);
* **fused admission** — the processor node runs tombstone restriction,
  ownership verification and bounce grouping as *one* walk over the delivered
  batch (see :meth:`repro.engine.runtime.ProcessorNode._admit_batch`) instead
  of re-walking it once per concern.

:class:`RoutingStats` carries the engine-layer telemetry (admission passes,
bounce passes, bounced batch/update counts); the partitioners themselves
count bulk lookups and cache hits.  :meth:`RoutingStats.snapshot` merges both
into the flat counter dictionary the executor diffs per phase into
:class:`~repro.engine.metrics.KernelPhaseStats`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.data.update import Update

#: Port names used between nodes (historically defined in
#: :mod:`repro.engine.runtime`, which re-exports them).
PORT_BASE = "base"
PORT_SEED = "seed"
PORT_EDGE = "edge"
PORT_VIEW = "view"
PORT_PURGE = "purge"


class RoutingStats:
    """Engine-layer routing counters, shared by every node of one cluster.

    Monotonic, like the BDD manager's counters: the executor snapshots them
    at phase start and reports per-phase deltas.
    """

    __slots__ = (
        "admission_passes",
        "bounce_passes",
        "bounced_batches",
        "bounced_updates",
        "seconds",
    )

    def __init__(self) -> None:
        #: Fused admission walks performed over delivered batches.
        self.admission_passes = 0
        #: Admission walks that verified ownership (elastic placements only).
        self.bounce_passes = 0
        #: Misrouted destination groups bounced to their current owner.
        self.bounced_batches = 0
        #: Updates carried by those bounced groups.
        self.bounced_updates = 0
        #: Wall seconds spent inside the routing layer proper — key-column
        #: extraction, bulk owner lookups and destination grouping.  This is
        #: what the executor reports as ``routing_time_s``; before the layer
        #: existed, "routing time" was a proxy (all non-kernel handler time)
        #: that lumped operator work in with routing.
        self.seconds = 0.0

    def record_bounce(self, update_count: int) -> None:
        """Record one bounced destination group carrying ``update_count`` updates."""
        self.bounced_batches += 1
        self.bounced_updates += update_count

    def snapshot(self, partitioner: Any = None) -> Dict[str, int]:
        """Flat counter dictionary, merged with the partitioner's lookup stats.

        The bulk-lookup and cache-hit counters live on the partitioner (it is
        the single shared routing authority of a cluster); this merges them
        with the engine-layer counters so callers diff one dictionary.
        """
        counters = {
            "admission_passes": self.admission_passes,
            "bounce_passes": self.bounce_passes,
            "bounced_batches": self.bounced_batches,
            "bounced_updates": self.bounced_updates,
            "seconds": self.seconds,
            "bulk_lookups": 0,
            "keys_routed": 0,
            "lookup_cache_hits": 0,
        }
        lookup_stats = getattr(partitioner, "routing_stats", None)
        if lookup_stats is not None:
            counters.update(lookup_stats())
        return counters


def group_updates(
    updates: Sequence[Update], owners: Sequence[int]
) -> Dict[int, List[Update]]:
    """Group a batch by its (positionally parallel) owner column.

    Destinations keep first-occurrence order, matching the historical
    ``defaultdict`` walk exactly — batched emission stays deterministic.  The
    single-destination case (most batches: a purge release aimed at one
    owner, a bounce of one group, a small delta) returns without any
    per-update dictionary work.
    """
    if not owners:
        return {}
    first = owners[0]
    for owner in owners:
        if owner != first:
            break
    else:
        return {first: updates if isinstance(updates, list) else list(updates)}
    groups: Dict[int, List[Update]] = {}
    get = groups.get
    for update, owner in zip(updates, owners):
        bucket = get(owner)
        if bucket is None:
            groups[owner] = [update]
        else:
            bucket.append(update)
    return groups


class BatchRouter:
    """Columnar owner resolution for one processor node.

    One router per node, all sharing the cluster's partitioner (and therefore
    its owner cache and lookup counters) plus one :class:`RoutingStats`.  The
    per-port routing-key extractors are precomputed at construction — the
    batch walk does one bound-function call per update instead of re-deciding
    the port's key attribute every time.
    """

    __slots__ = ("node_id", "partitioner", "stats", "key_function", "_bulk_lookup", "tracer")

    def __init__(
        self,
        node_id: int,
        plan: Any,
        partitioner: Any,
        stats: Optional[RoutingStats] = None,
        tracer: Any = None,
    ) -> None:
        self.node_id = node_id
        self.partitioner = partitioner
        self.stats = stats if stats is not None else RoutingStats()
        #: ``None`` when tracing is off — public methods pay one pointer
        #: comparison; when on, each batch operation becomes one
        #: ``routing``-category span on the node's pipeline track.
        self.tracer = tracer
        result_key = plan.result_partition_value
        edge_key = plan.edge_join_value
        #: port -> (tuple -> routing key).  Seeds and view updates are both
        #: owned by the view-partition key; base updates by the base tuple's
        #: own partition value.
        self.key_function: Dict[str, Callable[[Any], Any]] = {
            PORT_BASE: _base_partition_value,
            PORT_EDGE: edge_key,
            PORT_SEED: result_key,
            PORT_VIEW: result_key,
        }
        bulk = getattr(partitioner, "nodes_for_many", None)
        if bulk is None:
            # Foreign partitioner (tests, ad-hoc stubs): degrade to a bound
            # scalar loop, still one call per batch from the caller's side.
            scalar = partitioner.node_for

            def bulk(keys: Sequence[Any]) -> List[int]:
                return [scalar(key) for key in keys]

        self._bulk_lookup = bulk

    # -- columnar resolution -------------------------------------------------------
    #
    # Every public entry point times itself into ``stats.seconds`` — the
    # direct measurement behind ``routing_time_s``.  Internal work therefore
    # goes through the untimed ``_bulk_lookup``/``key_function`` pieces, never
    # back through another public method (no double counting).

    def keys_of(self, port: str, updates: Sequence[Update]) -> List[Any]:
        """The routing-key column of a batch (parallel to ``updates``)."""
        t0 = perf_counter()
        key_of = self.key_function[port]
        keys = [key_of(update.tuple) for update in updates]
        self.stats.seconds += perf_counter() - t0
        return keys

    def resolve(self, keys: Sequence[Any]) -> List[int]:
        """Owner column for a key column — one bulk partitioner call."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                self.node_id, "route:resolve", "routing", args={"keys": len(keys)}
            )
        t0 = perf_counter()
        owners = self._bulk_lookup(keys)
        self.stats.seconds += perf_counter() - t0
        if span is not None:
            tracer.end(span)
        return owners

    def owners_of(self, port: str, updates: Sequence[Update]) -> List[int]:
        """Owner column of a batch: key extraction + one bulk lookup."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                self.node_id, f"route:{port}", "routing", args={"updates": len(updates)}
            )
        t0 = perf_counter()
        key_of = self.key_function[port]
        owners = self._bulk_lookup([key_of(update.tuple) for update in updates])
        self.stats.seconds += perf_counter() - t0
        if span is not None:
            tracer.end(span)
        return owners

    def group(self, port: str, updates: Sequence[Update]) -> Dict[int, List[Update]]:
        """Destination grouping of a whole batch (columnar, one bulk lookup)."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                self.node_id, f"route:{port}", "routing", args={"updates": len(updates)}
            )
        t0 = perf_counter()
        key_of = self.key_function[port]
        grouped = group_updates(
            updates, self._bulk_lookup([key_of(update.tuple) for update in updates])
        )
        self.stats.seconds += perf_counter() - t0
        if span is not None:
            tracer.end(span)
        return grouped


def _base_partition_value(tuple_: Any) -> Any:
    return tuple_.partition_value
