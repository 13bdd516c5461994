"""The elastic executor: runtime scale-out/scale-in of a live cluster.

:class:`ElasticExecutor` extends the plain
:class:`~repro.engine.executor.DistributedViewExecutor` with the placement
subsystem: routing goes through an epoch-versioned
:class:`~repro.placement.map.PlacementMap` over a consistent-hash ring, and
the cluster can be mutated *while a workload is running*:

* :meth:`add_node` admits a fresh processor, seeds it with the cluster's
  deletion tombstones, and migrates the ≈ ``1/(N+1)`` of the key space the
  ring hands it;
* :meth:`remove_node` drains a processor — its partitions, incarnation
  counters and MinShip tables re-home on the survivors — and decommissions
  it (the node stays registered so in-flight messages still get delivered
  and bounced to the current owners);
* :meth:`rebalance` measures per-node load (delivered updates plus operator
  state) and, when skew exceeds the rebalancer's threshold, installs new ring
  weights and migrates the difference.

Each mutation has a ``schedule_*`` twin that fires as a control event at a
virtual time, so a scale-out genuinely interleaves with message deliveries:
batches routed under the superseded epoch bounce exactly once to the current
owner, counted in :meth:`placement_stats` and reported by the harness's
``elastic`` experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.engine.executor import DistributedViewExecutor
from repro.engine.plan import RecursiveViewPlan
from repro.engine.strategy import ExecutionStrategy
from repro.net.latency import ClusterLatencyModel, LatencyModel
from repro.placement.balancer import LoadAwareRebalancer
from repro.placement.map import PlacementError, PlacementMap
from repro.obs.trace import CONTROL_PID
from repro.placement.migration import MigrationReport, migrate_cluster_state
from repro.placement.ring import ConsistentHashRing


class ElasticExecutor(DistributedViewExecutor):
    """A distributed executor whose cluster can grow, shrink and rebalance mid-run."""

    def __init__(
        self,
        plan: RecursiveViewPlan,
        strategy: ExecutionStrategy,
        node_count: int = 12,
        virtual_nodes: int = 64,
        rebalancer: Optional[LoadAwareRebalancer] = None,
        placement: Optional[PlacementMap] = None,
        **kwargs: object,
    ) -> None:
        if plan.has_aggregate_selection:
            raise PlacementError(
                "elastic migration does not support aggregate selections yet "
                "(their operator state is not key-sliceable)"
            )
        if placement is None:
            placement = PlacementMap(
                ConsistentHashRing(range(node_count), virtual_nodes=virtual_nodes)
            )
        self.ring = placement.partitioner  # the mutable partitioner underneath
        super().__init__(plan, strategy, partitioner=placement, **kwargs)
        self.placement: PlacementMap = placement
        self.rebalancer = rebalancer or LoadAwareRebalancer()
        #: One report per placement change, in the order they were applied.
        self.migrations: List[MigrationReport] = []
        self.network.set_epoch_provider(lambda: self.placement.epoch)

    # -- membership mutations -------------------------------------------------------
    def add_node(self, weight: Optional[int] = None, now: Optional[float] = None) -> int:
        """Admit one fresh processor node and migrate its key range to it.

        Returns the new node's id.  Safe mid-run: messages already in flight
        towards the previous owners arrive with a stale epoch and bounce.
        """
        at_time = self.network.now if now is None else now
        node_id = self.network.add_node()
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(CONTROL_PID, f"add-node:{node_id}", "control", sim_ts=at_time)
        node = self._make_node(node_id)
        # A late joiner missed every purge broadcast so far; the union of the
        # cluster's tombstones is exactly what it must know about before any
        # migrated or in-flight annotation reaches it.
        tombstones: set = set()
        for peer in self.nodes:
            tombstones.update(peer.deletion_tombstones())
        node.add_deletion_tombstones(tombstones)
        self.nodes.append(node)
        self._register_node(node_id, node)
        self.placement.add_node(node_id, weight)
        self._migrate(at_time)
        return node_id

    def _register_node(self, node_id: int, node) -> None:
        """Wire a freshly admitted node's handler into the network.

        Subclass hook: the fault-tolerant chaos composition overrides this to
        front the new node with a durability shim (WAL + checkpoints), so a
        node admitted mid-run is just as killable as the founding members.
        """
        self.network.register(node_id, node.handle)

    def remove_node(self, node_id: int, now: Optional[float] = None) -> None:
        """Drain ``node_id``'s state onto the survivors and decommission it."""
        at_time = self.network.now if now is None else now
        if not self.network.is_active(node_id):
            raise PlacementError(f"node {node_id} is not an active cluster member")
        if node_id not in self.placement.nodes:
            raise PlacementError(f"node {node_id} is not in the placement map")
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                CONTROL_PID, f"remove-node:{node_id}", "control", sim_ts=at_time
            )
        self.placement.remove_node(node_id)
        self._migrate(at_time)
        self.network.deactivate(node_id)

    def rebalance(self, now: Optional[float] = None) -> Optional[MigrationReport]:
        """Shift ring weight away from hot nodes; ``None`` when already balanced."""
        at_time = self.network.now if now is None else now
        if not hasattr(self.ring, "weights"):
            raise PlacementError(
                f"the placement's partitioner ({type(self.ring).__name__}) has no "
                "weights; wrap a ConsistentHashRing to rebalance"
            )
        proposal = self.rebalancer.plan_weights(
            self.ring.weights(), self.ring.virtual_nodes, self.node_loads()
        )
        if proposal is None:
            return None
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(CONTROL_PID, "rebalance", "control", sim_ts=at_time)
        self.placement.set_weights(proposal)
        return self._migrate(at_time)

    # -- scheduled (mid-run) variants ---------------------------------------------------
    def schedule_add_node(self, at_time: float, weight: Optional[int] = None) -> None:
        """Scale out at virtual time ``at_time``, while the workload is running."""
        self.network.schedule_control(
            lambda now: self.add_node(weight=weight, now=now), at_time
        )

    def schedule_remove_node(self, node_id: int, at_time: float) -> None:
        """Scale in at virtual time ``at_time``, while the workload is running."""
        self.network.schedule_control(
            lambda now: self.remove_node(node_id, now=now), at_time
        )

    def schedule_rebalance(self, at_time: float) -> None:
        """Run a load-aware rebalance at virtual time ``at_time``."""
        self.network.schedule_control(lambda now: self.rebalance(now=now), at_time)

    # -- load + diagnostics ---------------------------------------------------------------
    def node_loads(self) -> Dict[int, float]:
        """Scalar load per active node: delivered updates + a state-size term."""
        delivered = self.network.stats.updates_delivered_by_node
        loads: Dict[int, float] = {}
        for node in self.nodes:
            if not self.network.is_active(node.node_id):
                continue
            loads[node.node_id] = (
                float(delivered.get(node.node_id, 0)) + node.state_bytes() / 1000.0
            )
        return loads

    def moved_state_bytes(self) -> int:
        """Serialized size of all state moved by placement changes so far."""
        return sum(report.moved_state_bytes for report in self.migrations)

    def placement_stats(self) -> Dict[str, object]:
        """Churn / migration / misrouting counters for the elastic experiment."""
        stats: Dict[str, object] = dict(self.placement.stats())
        stats.update(
            {
                "active_nodes": len(self.network.active_nodes()),
                "migrations": len(self.migrations),
                "moved_state_bytes": self.moved_state_bytes(),
                "moved_entries": sum(r.moved_entries for r in self.migrations),
            }
        )
        return stats

    def _migrate(self, now: float) -> MigrationReport:
        report = migrate_cluster_state(self, now)
        self.migrations.append(report)
        return report


def elastic_executor(
    plan: RecursiveViewPlan,
    strategy: Union[str, ExecutionStrategy],
    node_count: int = 12,
    virtual_nodes: int = 64,
    latency_model: Optional[LatencyModel] = None,
    rebalancer: Optional[LoadAwareRebalancer] = None,
    processing_cost: float = 0.00002,
    max_events: int = 5_000_000,
    max_wall_seconds: Optional[float] = None,
    experiment: str = "experiment",
    batch_policy=None,
) -> ElasticExecutor:
    """Convenience constructor mirroring :func:`repro.queries.builder.build_executor`."""
    if isinstance(strategy, str):
        strategy = ExecutionStrategy.by_name(strategy)
    if latency_model is None:
        latency_model = ClusterLatencyModel(primary_cluster_size=min(node_count, 16))
    return ElasticExecutor(
        plan=plan,
        strategy=strategy,
        node_count=node_count,
        virtual_nodes=virtual_nodes,
        rebalancer=rebalancer,
        latency_model=latency_model,
        processing_cost=processing_cost,
        max_events=max_events,
        max_wall_seconds=max_wall_seconds,
        experiment=experiment,
        batch_policy=batch_policy,
    )
