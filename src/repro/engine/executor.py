"""The experiment driver: runs a distributed recursive view over the simulated cluster.

:class:`DistributedViewExecutor` owns the simulated network, the processor
nodes, and the provenance store for one experiment run.  Workloads are applied
in *phases* (for example "insert 75 % of the links", then "delete 20 % of
them"); each phase runs to distributed quiescence and yields one
:class:`~repro.engine.metrics.PhaseMetrics` with the paper's four evaluation
metrics.  The executor also exposes the materialised view contents so tests
can compare against ground truth.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

import time

from repro.data.batch import BatchPolicy, UpdateBatch
from repro.data.tuples import Tuple
from repro.data.update import Update, UpdateType
from repro.engine.dred import DRedCoordinator
from repro.engine.metrics import ExperimentMetrics, KernelPhaseStats, PhaseMetrics
from repro.engine.plan import RecursiveViewPlan
from repro.engine.routing import RoutingStats
from repro.engine.runtime import (
    PORT_BASE,
    PORT_SEED,
    ProcessorNode,
)
from repro.engine.strategy import ExecutionStrategy
from repro.net.latency import LatencyModel
from repro.net.partition import HashPartitioner
from repro.net.simulator import SimulatedNetwork
from repro.obs.metrics import Histogram, MetricsRegistry, current_metrics_log
from repro.obs.trace import HARNESS_PID, current_tracer
from repro.operators.ship import MinShipOperator, ShipMode


class DistributedViewExecutor:
    """Executes one :class:`RecursiveViewPlan` under one :class:`ExecutionStrategy`."""

    def __init__(
        self,
        plan: RecursiveViewPlan,
        strategy: ExecutionStrategy,
        node_count: int = 12,
        latency_model: Optional[LatencyModel] = None,
        partitioner: Optional[HashPartitioner] = None,
        processing_cost: float = 0.00002,
        max_events: int = 5_000_000,
        max_wall_seconds: Optional[float] = None,
        experiment: str = "experiment",
        batch_policy: Optional[BatchPolicy] = None,
    ) -> None:
        self.plan = plan
        self.strategy = strategy
        self.batch_policy = batch_policy or BatchPolicy()
        # The partitioner is the single source of truth for cluster size: when
        # one is supplied, ``node_count`` is derived from it instead of being a
        # redundant second argument that could contradict it.
        self.partitioner = partitioner or HashPartitioner(node_count)
        node_count = self.partitioner.node_count
        # Backend hooks: the process backend (repro.parallel.backend) swaps
        # the store for a cluster facade, the network for the cross-process
        # coordinator, and the nodes for thin per-node proxies.
        self.store = self._create_store()
        self.network = self._create_network(
            latency_model, processing_cost, max_events, max_wall_seconds
        )
        #: The span tracer for this run: the process-wide active tracer
        #: (installed by ``--trace``), resolved once at construction.  The
        #: network stores ``None`` when tracing is off, and the nodes read
        #: that — install the tracer *before* building an executor.
        self.tracer = current_tracer()
        self.network.set_tracer(self.tracer)
        #: One routing-telemetry accumulator shared by every node's router,
        #: so per-phase deltas describe the whole cluster.
        self.routing_stats = self._create_routing_stats()
        self.nodes = self._create_nodes()
        self._dred = DRedCoordinator(
            self.network, self.nodes, self.partitioner, batch_policy=self.batch_policy
        )
        #: Live base state, needed by DRed re-derivation and by ground-truth checks.
        self.live_edges: Set[Tuple] = set()
        self.live_seeds: Set[Tuple] = set()
        self.metrics = ExperimentMetrics(experiment=experiment, scheme=strategy.label)
        #: Unified registry over the run's live stat objects (lazy probes:
        #: nothing is read until a snapshot is taken).
        self.metrics_registry = self._build_metrics_registry()

    # -- backend hooks ---------------------------------------------------------------
    def _create_store(self):
        """The provenance store every node of this executor shares."""
        return self.strategy.create_store()

    def _create_network(
        self,
        latency_model: Optional[LatencyModel],
        processing_cost: float,
        max_events: int,
        max_wall_seconds: Optional[float],
    ) -> SimulatedNetwork:
        """The virtual-time substrate handlers run over."""
        return SimulatedNetwork(
            node_count=self.partitioner.node_count,
            latency_model=latency_model,
            processing_cost=processing_cost,
            max_events=max_events,
            max_wall_seconds=max_wall_seconds,
            batch_policy=self.batch_policy,
        )

    def _create_routing_stats(self) -> RoutingStats:
        return RoutingStats()

    def _create_nodes(self) -> List[ProcessorNode]:
        """Build the cluster's nodes and wire their handlers into the network."""
        nodes = [self._make_node(node_id) for node_id in range(self.partitioner.node_count)]
        for node in nodes:
            self.network.register(node.node_id, node.handle)
        return nodes

    def close(self) -> None:
        """Release backend resources (worker pools); no-op for the in-process backend."""

    def _build_metrics_registry(self) -> MetricsRegistry:
        """Register every subsystem's stat object into one metrics registry.

        Probes close over ``self`` (not over the stat objects) because several
        of them are replaced wholesale during a run — ``reset_stats`` swaps
        the network accumulator at each phase boundary.
        """
        registry = MetricsRegistry()
        network = self.network

        def net_probe():
            stats = network.stats
            return {
                "messages": stats.total_messages,
                "updates_shipped": stats.total_updates_shipped,
                "communication_mb": stats.communication_mb,
                "stale_epoch_messages": stats.stale_epoch_messages,
                "dropped_messages": network.dropped_messages,
                "convergence_time_s": stats.convergence_time,
                "handler_seconds": network.handler_seconds,
                "pending_events": network.pending_events(),
            }

        registry.register_probe("net", net_probe)

        def queue_probe():
            depths = network.queue_depths()
            flat = {f"node{node}": depth for node, depth in sorted(depths.items())}
            flat["total"] = sum(depths.values())
            return flat

        registry.register_probe("queue_depth", queue_probe)
        registry.register_probe(
            "routing", lambda: self.routing_stats.snapshot(self.partitioner)
        )

        def kernel_probe():
            stats = self.store.kernel_stats()
            return stats if stats is not None else {}

        registry.register_probe("kernel", kernel_probe)
        self._register_engine_probes(registry)
        return registry

    def _register_engine_probes(self, registry: MetricsRegistry) -> None:
        """Probes that read node internals directly (backend-specific).

        The in-process backend reads its nodes' fixpoint histograms; the
        process backend replaces this with the snapshot-then-merge path over
        its workers' materialized registries.
        """

        def fixpoint_probe():
            rollup = None
            for node in self.nodes:
                histogram = node.fixpoint.delta_histogram
                if rollup is None:
                    rollup = Histogram(histogram.name)
                rollup.merge(histogram)
            return rollup.as_flat() if rollup is not None else {}

        registry.register_probe("fixpoint", fixpoint_probe)

    def _make_node(self, node_id: int) -> ProcessorNode:
        """Build one processor node (also used to rebuild a node after a crash)."""
        return ProcessorNode(
            node_id,
            self.plan,
            self.strategy,
            self.store,
            self.partitioner,
            self.network,
            batch_policy=self.batch_policy,
            routing_stats=self.routing_stats,
        )

    # -- workload API -----------------------------------------------------------------
    def insert_edges(self, edges: Iterable[Tuple], label: str = "insert") -> PhaseMetrics:
        """Insert edge (base-relation) tuples and run to the distributed fixpoint."""
        edges = list(edges)
        return self._run_phase(label, edge_inserts=edges)

    def delete_edges(self, edges: Iterable[Tuple], label: str = "delete") -> PhaseMetrics:
        """Delete edge tuples and run maintenance to quiescence."""
        edges = list(edges)
        return self._run_phase(label, edge_deletes=edges)

    def insert_seeds(self, seeds: Iterable[Tuple], label: str = "seed") -> PhaseMetrics:
        """Insert seed view tuples (for example region seeds) directly into the view."""
        seeds = list(seeds)
        return self._run_phase(label, seed_inserts=seeds)

    def delete_seeds(self, seeds: Iterable[Tuple], label: str = "unseed") -> PhaseMetrics:
        """Delete seed view tuples."""
        seeds = list(seeds)
        return self._run_phase(label, seed_deletes=seeds)

    def apply_mixed(
        self,
        edge_inserts: Sequence[Tuple] = (),
        edge_deletes: Sequence[Tuple] = (),
        seed_inserts: Sequence[Tuple] = (),
        seed_deletes: Sequence[Tuple] = (),
        label: str = "mixed",
    ) -> PhaseMetrics:
        """Apply a mixed batch of base-data changes as one phase."""
        return self._run_phase(
            label,
            edge_inserts=list(edge_inserts),
            edge_deletes=list(edge_deletes),
            seed_inserts=list(seed_inserts),
            seed_deletes=list(seed_deletes),
        )

    # -- phase machinery -------------------------------------------------------------------
    def _run_phase(
        self,
        label: str,
        edge_inserts: Sequence[Tuple] = (),
        edge_deletes: Sequence[Tuple] = (),
        seed_inserts: Sequence[Tuple] = (),
        seed_deletes: Sequence[Tuple] = (),
    ) -> PhaseMetrics:
        try:
            return self._run_phase_body(
                label, edge_inserts, edge_deletes, seed_inserts, seed_deletes
            )
        except Exception as exc:
            # Post-mortem hook: budget overruns, worker deaths and handler
            # crashes all surface here.  When the always-on flight recorder is
            # installed, its rings (plus every live worker's, on the process
            # backend) become a loadable trace before the exception continues.
            self._on_phase_failure(label, exc)
            raise

    def _on_phase_failure(self, label: str, exc: Exception) -> None:
        """Dump the flight recorder on a failed phase (best-effort, never raises)."""
        from repro.obs.flight import maybe_dump_flight

        try:
            self._collect_flight_rings()
        except Exception:
            pass
        try:
            maybe_dump_flight(f"phase:{label} failed: {type(exc).__name__}: {exc}")
        except Exception:
            pass

    def _collect_flight_rings(self) -> None:
        """Fold remote recorder rings in before a dump (no-op in-process)."""

    def _run_phase_body(
        self,
        label: str,
        edge_inserts: Sequence[Tuple] = (),
        edge_deletes: Sequence[Tuple] = (),
        seed_inserts: Sequence[Tuple] = (),
        seed_deletes: Sequence[Tuple] = (),
    ) -> PhaseMetrics:
        self.network.reset_stats()
        self.network.arm_wall_budget()
        phase_start = self.network.now
        tracer = self.tracer
        traced = tracer.enabled
        phase_span = None
        if traced:
            phase_span = tracer.begin(
                HARNESS_PID,
                f"phase:{label}",
                "phase",
                sim_ts=phase_start,
                args={
                    "experiment": self.metrics.experiment,
                    "scheme": self.metrics.scheme,
                },
            )
        wall_start = time.perf_counter()
        handler_start = self.network.handler_seconds
        kernel_start = self.store.kernel_stats()
        routing_start = self.routing_stats.snapshot(self.partitioner)

        self._inject_insertions(edge_inserts, seed_inserts, phase_start)
        if self.strategy.uses_dred and (edge_deletes or seed_deletes):
            self._run_dred_deletions(
                edge_deletes,
                seed_deletes,
                phase_start,
                phase_edge_inserts=edge_inserts,
                phase_seed_inserts=seed_inserts,
            )
        else:
            self._inject_deletions(edge_deletes, seed_deletes, phase_start)
            self._run_to_quiescence()

        self._update_live_base(edge_inserts, edge_deletes, seed_inserts, seed_deletes)
        if traced:
            # One boundary collection pass (mark-only unless the dead fraction
            # warrants compacting) so every traced run carries GC spans even
            # when no automatic collection fired mid-phase.  Phases are
            # quiescent here, which is exactly when a pass is safe.
            self.store.collect(force=False)
        phase = self._collect_phase(
            label,
            phase_start,
            wall_seconds=time.perf_counter() - wall_start,
            handler_seconds=self.network.handler_seconds - handler_start,
            kernel_start=kernel_start,
            routing_start=routing_start,
        )
        self.metrics.add_phase(phase)
        if traced:
            tracer.end(phase_span, sim_ts=self.network.now)
        log = current_metrics_log()
        if log is not None:
            log.record(
                {
                    "experiment": self.metrics.experiment,
                    "scheme": self.metrics.scheme,
                    "phase": label,
                },
                self.metrics_registry.snapshot(),
            )
        return phase

    def _inject_batches(
        self,
        update_type: UpdateType,
        edges: Sequence[Tuple],
        seeds: Sequence[Tuple],
        at_time: float,
    ) -> None:
        """Inject workload tuples grouped by owner node in policy-sized batches.

        Grouping is what makes the delta pipeline batch-first end to end: the
        owner's ``base`` handler receives the whole chunk, annotates and
        routes it with one message per destination, and (for deletions under
        a provenance strategy) issues one coalesced purge multicast per chunk
        instead of one per tuple.
        """
        # Owners for the whole workload resolve in one bulk partitioner call
        # per column (the executor-side twin of the nodes' BatchRouter).
        bulk = getattr(self.partitioner, "nodes_for_many", None)
        if bulk is None:
            scalar = self.partitioner.node_for
            bulk = lambda keys: [scalar(key) for key in keys]  # noqa: E731
        edges_by_owner: Dict[int, List[Update]] = defaultdict(list)
        edge_owners = bulk([edge.partition_value for edge in edges])
        for edge, owner in zip(edges, edge_owners):
            edges_by_owner[owner].append(Update(update_type, edge, timestamp=at_time))
        seed_key = self.plan.result_partition_value
        seeds_by_owner: Dict[int, List[Update]] = defaultdict(list)
        seed_owners = bulk([seed_key(seed) for seed in seeds])
        for seed, owner in zip(seeds, seed_owners):
            seeds_by_owner[owner].append(Update(update_type, seed, timestamp=at_time))
        for port, by_owner in ((PORT_BASE, edges_by_owner), (PORT_SEED, seeds_by_owner)):
            for owner, updates in by_owner.items():
                batch = UpdateBatch(updates)
                for chunk in batch.chunks(self.batch_policy.injection_chunk(port)):
                    self.network.inject(owner, port, chunk, at_time)

    def _inject_insertions(
        self, edge_inserts: Sequence[Tuple], seed_inserts: Sequence[Tuple], at_time: float
    ) -> None:
        self._inject_batches(UpdateType.INS, edge_inserts, seed_inserts, at_time)
        if edge_inserts or seed_inserts:
            self._run_to_quiescence()

    def _inject_deletions(
        self, edge_deletes: Sequence[Tuple], seed_deletes: Sequence[Tuple], at_time: float
    ) -> None:
        self._inject_batches(
            UpdateType.DEL, edge_deletes, seed_deletes, self.network.now
        )

    def _run_dred_deletions(
        self,
        edge_deletes: Sequence[Tuple],
        seed_deletes: Sequence[Tuple],
        at_time: float,
        phase_edge_inserts: Sequence[Tuple] = (),
        phase_seed_inserts: Sequence[Tuple] = (),
    ) -> None:
        # Phase 1: over-delete to quiescence (requires a global barrier).
        self._dred.inject_deletions(
            edge_deletes,
            seed_deletes,
            edge_partition_attribute=self.plan.edge_schema.partition_attribute,
            result_partition_attribute=self.plan.result_schema.partition_attribute,
            at_time=self.network.now,
        )
        self._run_to_quiescence()
        # Phase 2: re-derive from the live base data.  A mixed phase's own
        # insertions are already applied but not yet folded into
        # ``live_edges``/``live_seeds`` (that happens at phase end), so they
        # must count as live here or re-derivation misses them.
        remaining_edges = (self.live_edges | set(phase_edge_inserts)) - set(edge_deletes)
        remaining_seeds = (self.live_seeds | set(phase_seed_inserts)) - set(seed_deletes)
        self._dred.rederive(
            remaining_edges,
            remaining_seeds,
            edge_partition_attribute=self.plan.edge_schema.partition_attribute,
            result_partition_attribute=self.plan.result_schema.partition_attribute,
            at_time=self.network.now,
        )
        self._run_to_quiescence()

    def _run_to_quiescence(self) -> None:
        """Drain the network, flushing eager ship buffers at each quiescent point.

        The flush loop emulates MinShip's periodic (timer-driven) batch
        shipping: whenever the network goes idle, every eager MinShip gets a
        timer tick; if any of them released buffered derivations, the network
        runs again until nothing is left anywhere.
        """
        while True:
            self.network.run()
            released = 0
            for node in self.nodes:
                if self.network.is_down(node.node_id):
                    continue  # a crashed node gets no timer ticks
                if isinstance(node.ship, MinShipOperator) and node.ship.mode is ShipMode.EAGER:
                    released += node.flush_ship(self.network.now)
            if released == 0:
                break

    def _update_live_base(
        self,
        edge_inserts: Sequence[Tuple],
        edge_deletes: Sequence[Tuple],
        seed_inserts: Sequence[Tuple],
        seed_deletes: Sequence[Tuple],
    ) -> None:
        self.live_edges.update(edge_inserts)
        self.live_edges.difference_update(edge_deletes)
        self.live_seeds.update(seed_inserts)
        self.live_seeds.difference_update(seed_deletes)

    def _collect_phase(
        self,
        label: str,
        phase_start: float,
        wall_seconds: float = 0.0,
        handler_seconds: float = 0.0,
        kernel_start: Optional[Dict[str, object]] = None,
        routing_start: Optional[Dict[str, int]] = None,
    ) -> PhaseMetrics:
        stats = self.network.stats
        elapsed = max(stats.convergence_time - phase_start, 0.0)
        return PhaseMetrics(
            label=label,
            per_tuple_provenance_bytes=stats.per_tuple_provenance_bytes,
            communication_mb=stats.communication_mb,
            state_mb=self.state_bytes() / 1_000_000.0,
            convergence_time_s=elapsed,
            messages=stats.total_messages,
            updates_shipped=stats.total_updates_shipped,
            view_size=self.view_size(),
            wall_seconds=wall_seconds,
            kernel=self._kernel_phase_stats(
                kernel_start, wall_seconds, handler_seconds, routing_start
            ),
        )

    def _kernel_phase_stats(
        self,
        kernel_start: Optional[Dict[str, object]],
        wall_seconds: float,
        handler_seconds: float,
        routing_start: Optional[Dict[str, int]] = None,
    ) -> Optional[KernelPhaseStats]:
        """Per-phase annotation-kernel telemetry (None for kernel-less stores).

        Monotonic counters are reported as deltas against the phase-start
        snapshot.  ``routing_time_s`` is the routing layer's own timer
        (:attr:`~repro.engine.routing.RoutingStats.seconds`), directly
        measured; ``operator_time_s`` is the handler wall time left after
        subtracting the kernel's, GC's and routing layer's shares;
        ``net_time_s`` the rest of the phase wall.  The routing sub-counters
        (bulk lookups, cache hits, bounce passes) are deltas of the shared
        :class:`~repro.engine.routing.RoutingStats`.
        """
        current = self.store.kernel_stats()
        if current is None:
            return None
        start = kernel_start or {}
        kernel_delta = current["kernel_time_s"] - start.get("kernel_time_s", 0.0)
        gc_delta = current["gc_pause_s"] - start.get("gc_pause_s", 0.0)
        routing_now = self.routing_stats.snapshot(self.partitioner)
        routing_was = routing_start or {}
        routing_delta = routing_now["seconds"] - routing_was.get("seconds", 0.0)
        return KernelPhaseStats(
            table_size=current["table_size"],
            peak_table_size=current["peak_table_size"],
            nodes_reclaimed=current["nodes_reclaimed"] - start.get("nodes_reclaimed", 0),
            gc_passes=current["gc_passes"] - start.get("gc_passes", 0),
            gc_compactions=current["gc_compactions"] - start.get("gc_compactions", 0),
            gc_pause_s=gc_delta,
            kernel_time_s=kernel_delta,
            routing_time_s=routing_delta,
            operator_time_s=max(
                handler_seconds - kernel_delta - gc_delta - routing_delta, 0.0
            ),
            net_time_s=max(wall_seconds - handler_seconds, 0.0),
            routing_bulk_lookups=routing_now["bulk_lookups"]
            - routing_was.get("bulk_lookups", 0),
            routing_cache_hits=routing_now["lookup_cache_hits"]
            - routing_was.get("lookup_cache_hits", 0),
            routing_bounce_passes=routing_now["bounce_passes"]
            - routing_was.get("bounce_passes", 0),
        )

    # -- results --------------------------------------------------------------------------------
    def view(self) -> Set[Tuple]:
        """The materialised recursive view (union of all node partitions)."""
        result: Set[Tuple] = set()
        for node in self.nodes:
            result.update(node.view_tuples())
        return result

    def view_size(self) -> int:
        """Number of tuples in the materialised view."""
        return len(self.view())

    def view_values(self) -> Set[PyTuple[object, ...]]:
        """The view as raw value tuples (for comparisons with ground truth)."""
        return {tuple_.values for tuple_ in self.view()}

    def view_at(self, node_id: int) -> Set[Tuple]:
        """One node's partition of the view."""
        return set(self.nodes[node_id].view_tuples())

    def view_annotations(self) -> Dict[Tuple, object]:
        """Canonical provenance annotation per view tuple, cluster-wide.

        Canonical means backend-independent (see
        :func:`repro.provenance.tracker.canonical_annotation`): BDD
        annotations become their minimal product sets, so an in-process run
        and a process-pool run — whose workers each own a private manager —
        compare equal exactly when the provenance is semantically identical.
        """
        from repro.provenance.tracker import canonical_annotation

        result: Dict[Tuple, object] = {}
        for node in self.nodes:
            for tuple_, annotation in node.fixpoint.provenance.items():
                result[tuple_] = canonical_annotation(self.store, annotation)
        return result

    def explain(self, target, trace_events=None):
        """Explain why ``target`` is (or is not) in the view, from its provenance.

        ``target`` is a result-schema :class:`Tuple` or its textual form
        (``"reachable(a, b)"``).  The answer decodes the tuple's stored
        annotation into its minimal derivation products (canonical, so
        identical across the sim and process backends), resolves every base
        variable to its origin tuple and owning node, and — when this run is
        traced — reconstructs the cross-node message path from the tracer's
        flow events.  Returns an :class:`~repro.obs.explain.Explanation`.

        Call at a quiescent point (between phases), like every other read.
        """
        from repro.obs.explain import ExplainEngine, parse_view_tuple

        target = parse_view_tuple(self.plan, target)
        engine = ExplainEngine(self.plan, self.partitioner, scheme=self.strategy.label)
        canonical = self._explain_products(target)
        if trace_events is None and self.tracer.enabled:
            trace_events = getattr(self.tracer, "events", None)
            if trace_events is None:
                snapshot = getattr(self.tracer, "snapshot_events", None)
                trace_events = snapshot() if snapshot is not None else None
        return engine.build(target, canonical, trace_events=trace_events)

    def _explain_products(self, target: Tuple):
        """Canonical annotation of one view tuple, or ``None`` when absent.

        Backend hook: the process backend answers by broadcasting an
        ``explain`` RPC so only one tuple's annotation crosses the process
        boundary (already canonicalised), instead of the whole view's.
        """
        from repro.provenance.tracker import canonical_annotation

        for node in self.nodes:
            annotation = node.view_annotation(target)
            if annotation is not None:
                return canonical_annotation(self.store, annotation)
        return None

    def state_bytes(self) -> int:
        """Total operator state across the cluster."""
        return sum(node.state_bytes() for node in self.nodes)

    def per_node_state_bytes(self) -> Dict[int, int]:
        """Operator state per node (diagnostics / load balance)."""
        return {node.node_id: node.state_bytes() for node in self.nodes}

    def __repr__(self) -> str:
        return (
            f"DistributedViewExecutor(plan={self.plan.name!r}, scheme={self.strategy.label!r}, "
            f"nodes={self.network.node_count})"
        )
