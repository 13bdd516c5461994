"""Per-node operator wiring (the query plan of Figure 4, instantiated at every node).

Every processor node hosts:

* a **base scan** (``_handle_base_batch``) routing locally arriving
  base-relation updates (port ``base``) into the plan: the base case goes to
  the Fixpoint of the node owning the new view tuple, and a copy of the edge
  tuple goes to the node owning the join key;
* a **PipelinedHashJoin** between edge tuples shipped to this node
  (port ``edge``) and the view partition this node owns;
* a **MinShip** (or plain Ship, for DRed) buffering the join's output before
  it crosses the network to the owning Fixpoint;
* a **Fixpoint** holding this node's partition of the recursive view
  (port ``view``), feeding changed derivations back into the local join;
* a ``purge`` port receiving broadcast base-tuple deletions under the
  provenance strategies (Section 4's "zero out the variable" step).

The node talks to its peers exclusively through the simulated network, which
performs the byte and latency accounting.

**Fault tolerance.**  A node can be crashed and recovered through the
simulator's ``crash(node, t)`` / ``recover(node, t)`` events (see
:mod:`repro.fault`).  To support that, every node is *snapshottable*:
:meth:`ProcessorNode.snapshot_state` captures the view partition, join state,
(Min)Ship buffers and the base-variable bookkeeping with provenance
annotations flattened into a manager-independent form, and
:meth:`ProcessorNode.restore_state` re-interns them after a restart.  Under
the *checkpoint+replay* recovery policy the restored snapshot is brought
forward by replaying the node's update log; under *provenance-purge* the
node's base tuples are first absorbed cluster-wide as deletions (the paper's
zero-out-the-variable path) and peers then reseed the cold node through
:meth:`ProcessorNode.reseed_base_into` and :meth:`ProcessorNode.reship_sent_to`.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.data.batch import BatchPolicy, UpdateBatch, split_runs
from repro.data.tuples import Tuple
from repro.data.update import Update, UpdateType
from repro.engine.plan import RecursiveViewPlan
from repro.engine.routing import (  # noqa: F401  (PORT_* re-exported for compat)
    PORT_BASE,
    PORT_EDGE,
    PORT_PURGE,
    PORT_SEED,
    PORT_VIEW,
    BatchRouter,
    RoutingStats,
    group_updates,
)
from repro.engine.strategy import ExecutionStrategy
from repro.net.partition import HashPartitioner
from repro.net.transport import Transport
from repro.operators.aggsel import AggregateSelection
from repro.operators.fixpoint import FixpointOperator
from repro.operators.join import PipelinedHashJoin
from repro.operators.ship import MinShipOperator, ShipOperator
from repro.provenance.tracker import ProvenanceStore

#: Per-port batch memo sentinel ("annotation not restricted yet").
_UNFILTERED = object()


@contextmanager
def cyclic_gc_paused():
    """Run the block with CPython's cyclic garbage collector paused.

    The data plane allocates an object per delta but builds no reference
    cycles, so a collection pass inside a phase only costs time: reference
    counting frees everything it could find.  Both backends wrap their unit
    of data-plane work in this, the coordinator's phase and the worker's
    command.  The state found is restored on exit, on an exception too: a
    caller that had disabled the collector keeps it disabled, and nested
    pauses compose.

    Before re-enabling, the block's survivors are promoted to the oldest
    generation by ``gc.freeze(); gc.unfreeze()``: list splices that also
    reset the gen-0 count, so the first pass after the block does not walk
    every container it allocated only to free nothing.  A
    full collection still finds any cycle among them.  It is skipped while
    a caller holds objects frozen, whose freeze the unfreeze would undo.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


class ProcessorNode:
    """One simulated query-processor node executing the distributed plan."""

    def __init__(
        self,
        node_id: int,
        plan: RecursiveViewPlan,
        strategy: ExecutionStrategy,
        store: ProvenanceStore,
        partitioner: HashPartitioner,
        network: Transport,
        batch_policy: Optional[BatchPolicy] = None,
        routing_stats: Optional[RoutingStats] = None,
    ) -> None:
        self.node_id = node_id
        self.plan = plan
        self.strategy = strategy
        self.store = store
        self.partitioner = partitioner
        self.network = network
        self.batch_policy = batch_policy or BatchPolicy()
        #: The active tracer, or ``None`` when tracing is off: ``handle``
        #: pays one pointer comparison per delivered batch and nothing else
        #: (the zero-overhead-off contract of :mod:`repro.obs.trace`).  Read
        #: from the network so every node of a cluster shares one switch;
        #: the executor installs the tracer before building its nodes.
        self._tracer = network.tracer
        #: Columnar owner resolution, shared telemetry across the cluster's
        #: nodes when the executor passes one RoutingStats to all of them.
        self.router = BatchRouter(
            node_id, plan, partitioner, routing_stats, tracer=network.tracer
        )
        self._elastic = bool(getattr(partitioner, "elastic", False))
        self._coalesce_view = self.batch_policy.batches_port(PORT_VIEW)

        self.join = PipelinedHashJoin(
            name=f"join@{node_id}",
            store=store,
            left_key=lambda edge: edge[plan.edge_join_attribute],
            right_key=lambda view: view[plan.result_join_attribute],
            combine=plan.combine,
        )
        fixpoint_aggsel = (
            AggregateSelection(store, plan.aggregate_specs) if plan.has_aggregate_selection else None
        )
        self.fixpoint = FixpointOperator(
            name=f"fixpoint@{node_id}", store=store, aggregate_selection=fixpoint_aggsel
        )
        if strategy.uses_provenance:
            ship_aggsel = (
                AggregateSelection(store, plan.aggregate_specs)
                if plan.has_aggregate_selection
                else None
            )
            self.ship = MinShipOperator(
                name=f"minship@{node_id}",
                store=store,
                mode=strategy.ship_mode,
                batch_size=strategy.ship_batch_size,
                aggregate_selection=ship_aggsel,
            )
        else:
            self.ship = ShipOperator(name=f"ship@{node_id}", store=store)
        #: Base tuples this node has already seen a deletion for.  In-flight
        #: insertions produced before the sender learned about the deletion may
        #: still carry the deleted variables in their provenance; their
        #: annotations are re-restricted on arrival so the purge is idempotent
        #: regardless of message interleaving.
        self._deleted_base_keys: set = set()
        #: The prepared restrictor over ``_deleted_base_keys`` (``None`` until
        #: needed, and again whenever the set changes).
        self._tombstone_restrict = None
        #: Version counter per base tuple (owner side): a tuple re-inserted
        #: after a deletion gets a fresh provenance variable so that old
        #: tombstones cannot suppress the new incarnation.
        self._base_versions: Dict[object, int] = {}
        # Enroll this node's operator state in the annotation kernel's GC
        # root registry.  The provider holds the node weakly so a node
        # rebuilt after a crash (or decommissioned by the elastic subsystem)
        # does not keep its discarded state alive through the registry;
        # returning None after the node dies deregisters the provider at the
        # next collection.
        node_ref = weakref.ref(self)

        def _operator_state_roots():
            node = node_ref()
            return node._annotation_roots() if node is not None else None

        store.register_root_source(_operator_state_roots)

    def _annotation_roots(self) -> Iterator[object]:
        """Every annotation handle held by this node's per-port operator state.

        Consulted by the BDD manager's mark phase (GC root protocol); the
        tables themselves hold live handles, so this is belt-and-braces
        against any holder that slips out of automatic handle tracking.
        """
        yield from self.join._left.provenance.values()
        yield from self.join._right.provenance.values()
        yield from self.fixpoint.provenance.values()
        if self.fixpoint.aggregate_selection is not None:
            yield from self.fixpoint.aggregate_selection.provenance.values()
        if isinstance(self.ship, MinShipOperator):
            yield from self.ship.annotation_roots()

    # -- network entry point -------------------------------------------------------
    def handle(self, port: str, updates: Sequence[Update], now: float) -> None:
        """Dispatch a delivered batch of updates to the appropriate port handler.

        Ports the batch policy enables are handled batch-wise — one fused
        admission pass, grouped operator processing, destination-grouped
        emission, one coalesced purge multicast per deletion batch.  Disabled
        ports fall back to singleton batches, which reproduces
        tuple-at-a-time execution exactly (admission still runs batch-wise —
        both of its concerns are per-update pure, see :meth:`_admit_batch`).

        Under an elastic placement (see :mod:`repro.placement`) admission
        verifies ownership: a batch routed under a superseded placement epoch
        may arrive at the previous owner of its keys, in which case the
        misrouted updates bounce exactly once to the current owner.  Purge
        broadcasts address every node and are never misrouted (nor
        tombstone-restricted — they *carry* the tombstones).
        """
        if not updates:
            return
        tracer = self._tracer
        if tracer is not None:
            self._handle_traced(tracer, port, updates, now)
            return
        handler = self._PORT_HANDLERS.get(port)
        if handler is None:
            raise ValueError(f"unknown port {port!r} on node {self.node_id}")
        if port != PORT_PURGE:
            updates = self._admit_batch(port, updates, now)
            if not updates:
                return
        if self.batch_policy.batches_port(port):
            handler(self, updates, now)
        else:
            for update in updates:
                handler(self, (update,), now)

    def _handle_traced(
        self, tracer, port: str, updates: Sequence[Update], now: float
    ) -> None:
        """The :meth:`handle` body under tracing: identical dispatch, plus an
        ``admit`` span, an ``op:<port>`` operator span and one synthesised
        kernel-lane span covering the delivery's share of the annotation
        kernel's cumulative clock."""
        handler = self._PORT_HANDLERS.get(port)
        if handler is None:
            raise ValueError(f"unknown port {port!r} on node {self.node_id}")
        kernel_clock = self.store.kernel_clock
        kernel_start = kernel_clock()
        node_id = self.node_id
        if port != PORT_PURGE:
            span = tracer.begin(
                node_id, f"admit:{port}", "routing", sim_ts=now,
                args={"updates": len(updates)},
            )
            updates = self._admit_batch(port, updates, now)
            tracer.end(span, args={"admitted": len(updates)})
            if not updates:
                tracer.kernel_slice(node_id, kernel_clock() - kernel_start, sim_ts=now)
                return
        span = tracer.begin(
            node_id, f"op:{port}", "operator", sim_ts=now,
            args={"updates": len(updates)},
        )
        try:
            if self.batch_policy.batches_port(port):
                handler(self, updates, now)
            else:
                for update in updates:
                    handler(self, (update,), now)
        finally:
            tracer.end(span)
            tracer.kernel_slice(node_id, kernel_clock() - kernel_start, sim_ts=now)

    def _admit_batch(
        self, port: str, updates: Sequence[Update], now: float
    ) -> Sequence[Update]:
        """Fused admission: ownership check + tombstone restriction, one walk.

        Historically these were two separate passes over every delivered
        batch (``_redirect_misrouted`` then ``_filter_stale_batch`` inside the
        edge/view handlers).  Both concerns are per-update pure — ownership
        depends only on the routing key, restriction only on the annotation —
        so fusing them into a single walk with a columnar owner column is
        behaviour-preserving.  Misrouted updates bounce to their current
        owner *unrestricted*, exactly as before: the owner restricts them
        against its own tombstone set on arrival.

        Returns the locally owned, tombstone-restricted remainder.  The
        common case — everything owned here, no tombstones — returns the
        delivered batch untouched.
        """
        stats = self.router.stats
        stats.admission_passes += 1
        needs_filter = (
            (port == PORT_EDGE or port == PORT_VIEW)
            and bool(self._deleted_base_keys)
            and self.strategy.uses_provenance
        )
        if not self._elastic:
            if not needs_filter:
                return updates
            return self._filter_stale_batch(updates)
        stats.bounce_passes += 1
        owners = self.router.owners_of(port, updates)
        node_id = self.node_id
        misrouted = False
        for owner in owners:
            if owner != node_id:
                misrouted = True
                break
        if not misrouted:
            if not needs_filter:
                return updates
            return self._filter_stale_batch(updates)
        restrict_update = self._batch_restrictor() if needs_filter else None
        kept: List[Update] = []
        keep = kept.append
        bounced: Dict[int, List[Update]] = {}
        bounced_get = bounced.get
        for update, owner in zip(updates, owners):
            if owner != node_id:
                bucket = bounced_get(owner)
                if bucket is None:
                    bounced[owner] = [update]
                else:
                    bucket.append(update)
                continue
            if restrict_update is not None:
                admitted = restrict_update(update)
                if admitted is None:
                    continue
                keep(admitted)
            else:
                keep(update)
        for owner, batch in bounced.items():
            self._send(owner, port, batch, now)
            self.partitioner.record_misroute(len(batch))
            stats.record_bounce(len(batch))
        return kept

    # -- base-tuple provenance variables -------------------------------------------------
    def _base_variable_key(self, tuple_: Tuple) -> object:
        """The provenance-variable name for the current incarnation of a base tuple."""
        version = self._base_versions.get(tuple_.key, 0)
        return (tuple_.key, version)

    def _retire_base_variable(self, tuple_: Tuple) -> object:
        """Return the variable of the deleted incarnation and bump the version."""
        version = self._base_versions.get(tuple_.key, 0)
        self._base_versions[tuple_.key] = version + 1
        return (tuple_.key, version)

    def _base_annotation_for(self, tuple_: Tuple) -> object:
        """Annotation of the current incarnation of a base tuple owned here.

        A new provenance variable is declared at the network's next variable
        rank, which both backends derive from the serial delivery order.
        """
        if self.strategy.uses_provenance:
            return self.store.base_annotation(
                self._base_variable_key(tuple_), self.network.variable_rank()
            )
        return self.store.one()

    # -- base relation (edge) updates -------------------------------------------------
    def _handle_base_batch(self, updates: Sequence[Update], now: float) -> None:
        """A base edge delta batch arriving at its owner node (Figure 4's table scan).

        Insertion runs are annotated and routed with one message per
        destination port; deletion runs turn into one coalesced purge
        multicast (provenance strategies) or follow the insert routes (DRed
        over-deletion).
        """
        for is_insert, run in split_runs(updates):
            if is_insert:
                annotated = [
                    update.with_provenance(self._base_annotation_for(update.tuple))
                    for update in run
                ]
                self._route_base_batch(annotated, now)
            elif self.strategy.uses_provenance:
                self._broadcast_purge_batch(run, now)
            else:
                # DRed over-deletion: deletions follow the same routes as inserts.
                self._route_base_batch(
                    [update.with_provenance(None) for update in run], now
                )

    def _route_base_batch(self, updates: Sequence[Update], now: float) -> None:
        """Send base-case view tuples and edge join copies, grouped by owner.

        Columnar: the view-route and edge-route routing keys are laid out in
        one combined key column (view keys first, then edge keys) and the
        owner column comes back from a *single* bulk partitioner call for the
        whole batch.  Emission order is unchanged from the historical
        per-update walk: all view batches first, then all edge batches, each
        in first-occurrence destination order.
        """
        plan = self.plan
        base_tuple_for = plan.base_tuple_for
        result_key = plan.result_partition_value
        edge_key = plan.edge_join_value
        view_updates: List[Update] = []
        keys: List[object] = []
        append_key = keys.append
        for update in updates:
            base_tuple = base_tuple_for(update.tuple)
            if base_tuple is not None:
                view_updates.append(
                    Update(
                        update.type, base_tuple, provenance=update.provenance, timestamp=now
                    )
                )
                append_key(result_key(base_tuple))
        view_count = len(view_updates)
        for update in updates:
            append_key(edge_key(update.tuple))
        owners = self.router.resolve(keys)
        stats = self.router.stats
        if view_updates:
            t0 = perf_counter()
            grouped = group_updates(view_updates, owners[:view_count])
            stats.seconds += perf_counter() - t0
            for destination, batch in grouped.items():
                self._send(destination, PORT_VIEW, batch, now)
        t0 = perf_counter()
        grouped = group_updates(updates, owners[view_count:])
        stats.seconds += perf_counter() - t0
        for destination, batch in grouped.items():
            self._send(destination, PORT_EDGE, batch, now)

    # -- seeds (base-case view tuples provided directly, e.g. region seeds) -------------
    def _handle_seed_batch(self, updates: Sequence[Update], now: float) -> None:
        router = self.router
        for is_insert, run in split_runs(updates):
            if is_insert:
                annotated = [
                    update.with_provenance(self._base_annotation_for(update.tuple))
                    for update in run
                ]
                for destination, batch in router.group(PORT_SEED, annotated).items():
                    self._send(destination, PORT_VIEW, batch, now)
            elif self.strategy.uses_provenance:
                self._broadcast_purge_batch(run, now)
            else:
                stripped = [update.with_provenance(None) for update in run]
                for destination, batch in router.group(PORT_SEED, stripped).items():
                    self._send(destination, PORT_VIEW, batch, now)

    # -- join input (edge side) ------------------------------------------------------------
    def _handle_edge_batch(self, updates: Sequence[Update], now: float) -> None:
        # Tombstone restriction already ran in the fused admission pass.
        joined = self.join.process_left_batch(updates)
        self._ship_view_updates(joined, now)

    # -- view / fixpoint input ----------------------------------------------------------------
    def _handle_view_batch(self, updates: Sequence[Update], now: float) -> None:
        # Tombstone restriction already ran in the fused admission pass.
        changed = self.fixpoint.process_batch(updates)
        if not changed:
            return
        joined = self.join.process_right_batch(changed)
        self._ship_view_updates(joined, now)

    def _batch_restrictor(self):
        """A per-batch update restrictor closure (tombstone restriction).

        Distinct updates frequently share the same canonical annotation, so
        the per-batch memo turns repeated restrictions into dictionary hits.
        The memo is keyed by id(annotation), not value: repeated annotations
        within a batch are shared references, identity keys work for
        unhashable annotation types, and — for BDD handles — identity is
        immune to a GC compaction renumbering the ids (and with them the
        value hash) mid-batch.  The delivered batch keeps every keyed
        annotation alive for the closure's lifetime.  The prepared tombstone
        restrictor under the memo is built once per tombstone set, not per
        batch.
        """
        restrict = self._tombstone_restrict
        if restrict is None:
            restrict = self._tombstone_restrict = self.store.base_restrictor(
                self._deleted_base_keys
            )
        is_zero = self.store.is_zero
        equals = self.store.equals
        #: id(annotation) -> surviving annotation (None = dropped entirely).
        memo: Dict[int, object] = {}
        memo_get = memo.get

        def restrict_update(update: Update) -> Optional[Update]:
            if not update.is_insert or update.provenance is None:
                return update
            annotation = update.provenance
            cached = memo_get(id(annotation), _UNFILTERED)
            if cached is _UNFILTERED:
                restricted = restrict(annotation)
                if is_zero(restricted):
                    cached = None
                elif equals(restricted, annotation):
                    cached = annotation
                else:
                    cached = restricted
                memo[id(annotation)] = cached
            if cached is None:
                return None
            if cached is annotation:
                return update
            return update.with_provenance(cached)

        return restrict_update

    def _filter_stale_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Drop deleted base variables from a delivered batch's insertion annotations.

        A message sent before its sender processed a purge can still mention
        deleted base tuples; re-restricting on arrival keeps the maintained
        provenance equivalent to what a fully synchronised system would hold.
        Updates with nothing derivable left in their annotation are dropped.
        """
        if not self._deleted_base_keys or not self.strategy.uses_provenance:
            return list(updates)
        restrict_update = self._batch_restrictor()
        filtered: List[Update] = []
        append = filtered.append
        for update in updates:
            admitted = restrict_update(update)
            if admitted is not None:
                append(admitted)
        return filtered

    # -- broadcast deletions ----------------------------------------------------------------------
    def _broadcast_purge_batch(self, deletions: Sequence[Update], now: float) -> None:
        """Announce a batch of base-tuple deletions to every node in one multicast.

        Each purge update names the provenance *variable* being retired (the
        tuple key plus its incarnation version) in its ``provenance`` field,
        so receivers zero out exactly the deleted incarnations.  The whole
        deletion batch rides one message per peer — N-1 messages per *batch*
        instead of N-1 per tuple — and receivers purge all the retired
        variables in a single restriction pass.
        """
        purges: List[Update] = []
        purge_size = 0
        for update in deletions:
            variable_key = self._retire_base_variable(update.tuple)
            purges.append(
                Update(UpdateType.DEL, update.tuple, provenance=variable_key, timestamp=now)
            )
            # A purge update carries the tuple plus a small variable
            # identifier; it is sized explicitly because its "provenance" is
            # a variable name, not an annotation the store can measure.
            purge_size += update.tuple.size_bytes() + 9
        for destination in self.network.active_nodes():
            if destination == self.node_id:
                continue
            self.network.send(
                self.node_id, destination, PORT_PURGE, purges, purge_size, at_time=now
            )
        self._handle_purge_batch(purges, now)

    def _handle_purge_batch(self, updates: Sequence[Update], now: float) -> None:
        """Zero out all the deleted base variables of a purge batch at once.

        Every operator takes the combined key list, so each stored annotation
        is restricted once per purge *batch* rather than once per deleted
        tuple.
        """
        base_keys: List[object] = []
        for update in updates:
            variable_key = update.provenance
            if variable_key is None:
                variable_key = (update.tuple.key, 0)
            base_keys.append(variable_key)
        self._deleted_base_keys.update(base_keys)
        self._tombstone_restrict = None
        self.join.purge_base(base_keys)
        self.fixpoint.purge_base(base_keys)
        released = self.ship.purge_base(base_keys)
        self._route_view_updates(released, now)

    # -- shipping helpers ------------------------------------------------------------------------------
    def _ship_view_updates(self, updates: Sequence[Update], now: float) -> None:
        """Push join outputs through (Min)Ship and route whatever it releases."""
        if not updates:
            return
        released = self.ship.process_batch(updates)
        self._route_view_updates(released, now)

    def flush_ship(self, now: float) -> int:
        """Flush the ship operator's buffers (periodic timer tick); returns #updates sent."""
        released = self.ship.flush()
        self._route_view_updates(released, now)
        return len(released)

    def _route_view_updates(self, updates: Iterable[Update], now: float) -> None:
        """Group outgoing view updates per destination; one message each.

        Columnar: one bulk owner lookup for the whole delta, destination
        groups built from the owner column.  With batching enabled the
        destination batch is coalesced first: same-tuple updates within a
        type run merge their annotations, so a tuple derived several ways in
        one delta crosses the wire as a single update carrying the
        pre-grouped (disjoined) annotation.
        """
        if not isinstance(updates, (list, tuple)):
            updates = list(updates)
        if not updates:
            return
        store = self.store
        coalesce = self._coalesce_view
        for destination, batch in self.router.group(PORT_VIEW, updates).items():
            if coalesce and len(batch) > 1:
                batch = list(UpdateBatch(batch).coalesced(store))
            self._send(destination, PORT_VIEW, batch, now)

    def _send(self, destination: int, port: str, updates: Sequence[Update], now: float) -> None:
        if not updates:
            return
        size_bytes = self.store.size_bytes
        annotation_total = size = 0
        for update in updates:
            annotation = update.provenance
            annotation_bytes = 0 if annotation is None else size_bytes(annotation)
            annotation_total += annotation_bytes
            size += update.size_bytes(annotation_bytes)
        if destination != self.node_id:
            # One stats call per message, not one per update: record_provenance
            # is a pure accumulator, so totals are identical.
            self.network.stats.record_provenance(annotation_total, len(updates))
        self.network.send(self.node_id, destination, port, updates, size, at_time=now)

    # -- durability (checkpoint / recovery support) ----------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Capture all operator and bookkeeping state, annotations encoded.

        The result contains no handles into shared in-memory structures (BDD
        annotations are flattened through the provenance store's codec), so it
        can be pickled to durable storage and restored after a process loss.
        """
        encode = self.store.encode_annotation
        return {
            "node_id": self.node_id,
            "deleted_base_keys": set(self._deleted_base_keys),
            "base_versions": dict(self._base_versions),
            "join": self.join.export_state(encode),
            "fixpoint": self.fixpoint.export_state(encode),
            "ship": self.ship.export_state(encode),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state["node_id"] != self.node_id:
            raise ValueError(
                f"snapshot of node {state['node_id']} cannot restore node {self.node_id}"
            )
        decode = self.store.decode_annotation
        self._deleted_base_keys = set(state["deleted_base_keys"])
        self._tombstone_restrict = None
        self._base_versions = dict(state["base_versions"])
        self.join.import_state(state["join"], decode)
        self.fixpoint.import_state(state["fixpoint"], decode)
        self.ship.import_state(state["ship"], decode)

    def set_base_versions(self, versions: Dict[object, int]) -> None:
        """Seed the base-tuple incarnation counters (cold restart after a purge).

        A node restarted under the provenance-purge policy must not reuse the
        variable of a purged incarnation — surviving peers hold tombstones for
        it — so the recovery manager installs the next free version numbers
        before the node's base data is re-injected.
        """
        self._base_versions = dict(versions)

    def add_deletion_tombstones(self, variable_keys: Iterable[object]) -> None:
        """Merge known-deleted base variables (recovery: tombstone resync)."""
        self._deleted_base_keys.update(variable_keys)
        self._tombstone_restrict = None

    def deletion_tombstones(self) -> frozenset:
        """The base variables this node knows to be deleted (recovery: resync source)."""
        return frozenset(self._deleted_base_keys)

    # -- elasticity (live partition migration support) ---------------------------------
    def base_version_items(self) -> List:
        """The base-tuple incarnation counters as ``(tuple-key, version)`` pairs."""
        return list(self._base_versions.items())

    def pop_base_versions(self, keys: Iterable[object]) -> Dict[object, int]:
        """Remove and return the incarnation counters for ``keys`` (migration out)."""
        extracted: Dict[object, int] = {}
        for key in keys:
            if key in self._base_versions:
                extracted[key] = self._base_versions.pop(key)
        return extracted

    def merge_base_versions(self, versions: Dict[object, int]) -> None:
        """Merge migrated incarnation counters (the higher version wins)."""
        for key, version in versions.items():
            existing = self._base_versions.get(key)
            if existing is None or version > existing:
                self._base_versions[key] = version

    def absorb_migrated_state(self, state: Dict[str, object], now: float) -> None:
        """Install a migrated state slice (annotations already decoded).

        Incoming insert-side annotations are first restricted against this
        node's deletion tombstones: a purge broadcast multicast while the
        slice's previous owner had not yet received it can never reach a node
        that joined afterwards, so the catch-up restriction here mirrors
        exactly what delivering that purge would have done — including
        releasing buffered MinShip alternates whose shipped provenance was
        invalidated (the consumer must not lose the tuple).
        """
        restrict = (
            self.store.base_restrictor(self._deleted_base_keys)
            if self.strategy.uses_provenance and self._deleted_base_keys
            else None
        )
        self.fixpoint.absorb_partition(self._restricted_entries(state["fixpoint"], restrict))
        self.join.absorb_side(
            self.join.LEFT, self._restricted_entries(state["join_left"], restrict)
        )
        self.join.absorb_side(
            self.join.RIGHT, self._restricted_entries(state["join_right"], restrict)
        )
        self.merge_base_versions(state["base_versions"])
        if isinstance(self.ship, MinShipOperator):
            self._absorb_ship_tables(
                state["ship_sent"], state["ship_pins"], state["ship_pdel"], restrict, now
            )

    def _restricted_entries(self, entries: Dict[Tuple, object], restrict) -> Dict[Tuple, object]:
        """Tombstone-restrict a migrated table, dropping entries that zero out."""
        if restrict is None:
            return entries
        surviving: Dict[Tuple, object] = {}
        for tuple_, annotation in entries.items():
            restricted = restrict(annotation)
            if not self.store.is_zero(restricted):
                surviving[tuple_] = restricted
        return surviving

    def _absorb_ship_tables(
        self,
        sent: Dict[Tuple, object],
        pins: Dict[Tuple, object],
        pdel: Dict[Tuple, object],
        restrict,
        now: float,
    ) -> None:
        """Merge migrated MinShip tables, replaying missed purges (Algorithm 3 semantics)."""
        if restrict is None:
            self.ship.absorb_tables(sent, pins, pdel)
            return
        restricted_pins = self._restricted_entries(pins, restrict)
        restricted_sent: Dict[Tuple, object] = {}
        releases: List[Update] = []
        for tuple_, annotation in sent.items():
            restricted = restrict(annotation)
            if not self.store.equals(restricted, annotation):
                # The already-shipped provenance was hit by a purge the old
                # owner never saw: release the surviving buffered alternates,
                # exactly as MinShip.purge_base would have.
                buffered = restricted_pins.pop(tuple_, None)
                if buffered is not None:
                    releases.append(
                        Update(UpdateType.INS, tuple_, provenance=buffered, timestamp=now)
                    )
                    restricted = self.store.disjoin(restricted, buffered)
            if not self.store.is_zero(restricted):
                restricted_sent[tuple_] = restricted
        self.ship.absorb_tables(restricted_sent, restricted_pins, pdel)
        self._route_view_updates(releases, now)

    def reseed_base_into(
        self,
        destination: int,
        edges: Iterable[Tuple],
        seeds: Iterable[Tuple],
        now: float,
    ) -> int:
        """Re-ship this node's live base data along the routes leading to ``destination``.

        Used when ``destination`` restarts empty: the edge copies and base-case
        view tuples it owned are recomputed from this node's live base
        relation and re-sent with their *current* incarnation variables.
        Routes to other nodes are skipped — their state already absorbed these
        derivations.  Returns the number of updates re-shipped.
        """
        view_batch: List[Update] = []
        edge_batch: List[Update] = []
        for edge in edges:
            annotation = self._base_annotation_for(edge)
            base_tuple = self.plan.base_tuple_for(edge)
            if base_tuple is not None:
                owner = self.partitioner.node_for(self.plan.result_partition_value(base_tuple))
                if owner == destination:
                    view_batch.append(
                        Update(UpdateType.INS, base_tuple, provenance=annotation, timestamp=now)
                    )
            join_owner = self.partitioner.node_for(self.plan.edge_join_value(edge))
            if join_owner == destination:
                edge_batch.append(
                    Update(UpdateType.INS, edge, provenance=annotation, timestamp=now)
                )
        for seed in seeds:
            owner = self.partitioner.node_for(self.plan.result_partition_value(seed))
            if owner != destination:
                continue
            view_batch.append(
                Update(
                    UpdateType.INS,
                    seed,
                    provenance=self._base_annotation_for(seed),
                    timestamp=now,
                )
            )
        self._send(destination, PORT_VIEW, view_batch, now)
        self._send(destination, PORT_EDGE, edge_batch, now)
        return len(view_batch) + len(edge_batch)

    def reship_sent_to(self, destination: int, now: float) -> int:
        """Re-ship every derivation this node's MinShip already sent to ``destination``.

        ``Bsent`` records exactly what the consumer learned from us; after the
        consumer lost its state, replaying it (post-purge, so the annotations
        are already restricted to live base tuples) rebuilds the consumer's
        partition without recomputing the joins.  Returns #updates re-shipped.
        """
        if not isinstance(self.ship, MinShipOperator):
            return 0
        batch: List[Update] = []
        for tuple_, annotation in self.ship.sent.items():
            if self.store.is_zero(annotation):
                continue
            owner = self.partitioner.node_for(self.plan.result_partition_value(tuple_))
            if owner == destination:
                batch.append(
                    Update(UpdateType.INS, tuple_, provenance=annotation, timestamp=now)
                )
        self._send(destination, PORT_VIEW, batch, now)
        return len(batch)

    # -- introspection ---------------------------------------------------------------------------------------
    def view_tuples(self) -> List[Tuple]:
        """This node's partition of the recursive view."""
        return self.fixpoint.view_tuples()

    def view_annotation(self, tuple_: Tuple):
        """The stored annotation of one view tuple, or ``None`` if not held here.

        The provenance-native half of the explain engine
        (:mod:`repro.obs.explain`): the raw annotation is canonicalised by the
        caller, never shipped as a manager-bound handle.
        """
        return self.fixpoint.provenance.get(tuple_)

    def state_bytes(self) -> int:
        """State held by all operators on this node (Section 7 metric)."""
        return self.join.state_bytes() + self.fixpoint.state_bytes() + self.ship.state_bytes()

    def operator_stats(self) -> Dict[str, object]:
        """Per-operator counters (diagnostics)."""
        return {
            "join": self.join.stats,
            "fixpoint": self.fixpoint.stats,
            "ship": self.ship.stats,
        }

    #: Per-port dispatch table; ``handle`` resolves the handler with one
    #: dictionary probe per delivered batch.  Plain functions, called with the
    #: node: bound methods stored on the instance would make every node a
    #: reference cycle, which a node discarded by a crash leaves to CPython's
    #: cyclic collector.
    _PORT_HANDLERS = {
        PORT_BASE: _handle_base_batch,
        PORT_SEED: _handle_seed_batch,
        PORT_EDGE: _handle_edge_batch,
        PORT_VIEW: _handle_view_batch,
        PORT_PURGE: _handle_purge_batch,
    }
