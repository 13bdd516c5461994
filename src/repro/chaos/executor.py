"""The chaos composition: durable, killable nodes that also migrate.

:class:`ChaosExecutor` is the ROADMAP's *elastic × fault-tolerant
composition*: it multiply-inherits :class:`FaultTolerantExecutor` (WAL,
checkpoints, crash/recover) and :class:`ElasticExecutor` (consistent-hash
placement, live migration) over the cooperative ``__init__`` chain, and makes
the two subsystems share one write-ahead log safely:

* every node — founding member or admitted mid-run — is fronted by a
  :class:`~repro.fault.executor.DurableNodeRuntime` (the
  :meth:`_register_node` hook);
* every migration ends with a **barrier checkpoint**: migrated state moves
  via the checkpoint codec, *not* through the logged delivery path, so
  without the barrier a crash after a migration would replay a WAL suffix
  against pre-migration placement and lose the moved slices;
* placement changes are **deferred** (bounded) while any node is down:
  migration extracts from nodes' in-memory state, which a crashed node does
  not have.

Recovery is supervised: :class:`SupervisedRecoveryManager` retries a failing
recovery with exponential backoff (consumed as virtual time on the node)
under a bounded budget, and on exhaustion the node is **degraded** instead of
the run crashing — the executor serves its last converged view snapshot
tagged with explicit :class:`StalenessInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Union

from repro.chaos.interposer import ChaosInterposer
from repro.chaos.plan import ChaosPlan
from repro.chaos.supervisor import (
    ChaosInjectedFailure,
    RetryPolicy,
    SupervisionExhausted,
    Supervisor,
)
from repro.data.batch import BatchPolicy
from repro.data.tuples import Tuple
from repro.engine.plan import RecursiveViewPlan
from repro.engine.strategy import ExecutionStrategy
from repro.fault.executor import (
    DurableNodeRuntime,
    FaultToleranceError,
    FaultTolerantExecutor,
)
from repro.fault.recovery import RecoveryManager, RecoveryPolicy
from repro.net.latency import ClusterLatencyModel, LatencyModel
from repro.placement.balancer import LoadAwareRebalancer
from repro.placement.elastic import ElasticExecutor
from repro.placement.map import PlacementError

#: How often a placement change may be re-deferred because nodes are down
#: before the executor gives up.  Bounded on purpose: a degraded node never
#: comes back, and an unbounded deferral loop would spin forever.
MAX_PLACEMENT_DEFERRALS = 25

#: Base virtual-time delay between deferral retries (grows linearly).
DEFERRAL_DELAY = 0.05


@dataclass(frozen=True)
class StalenessInfo:
    """Why (and since when) a node's view partition is served stale."""

    node: int
    since: float  # virtual time the node was degraded
    phase: str  # last phase whose converged snapshot backs the stale view
    reason: str


class SupervisedRecoveryManager(RecoveryManager):
    """A :class:`RecoveryManager` whose recoveries run under a supervisor.

    The chaos plan may doom a node's first N recovery attempts; each doomed
    attempt performs a *partial* restore+replay (the node dying mid-replay)
    before failing, and the retry is safe because recovery always begins with
    ``rebuild_node`` — the partial state is discarded wholesale.  Backoff
    between attempts is consumed as virtual time on the recovering node.  An
    exhausted budget degrades the node instead of raising into the run loop.
    """

    def __init__(
        self,
        executor: "ChaosExecutor",
        policy: RecoveryPolicy,
        supervisor: Supervisor,
        chaos_plan: Optional[ChaosPlan] = None,
    ) -> None:
        super().__init__(executor, policy)
        self.supervisor = supervisor
        self.chaos_plan = chaos_plan

    def on_recover(self, node_id: int, now: float) -> None:
        executor = self.executor
        network = executor.network
        forced = (
            self.chaos_plan.forced_recovery_failures(node_id)
            if self.chaos_plan is not None
            else 0
        )

        def attempt(attempt_no: int) -> None:
            if attempt_no <= forced:
                if self.policy is RecoveryPolicy.CHECKPOINT_REPLAY:
                    # The node dies again mid-replay: restore the checkpoint,
                    # replay a truncated suffix, abandon the rest.
                    self._restore_and_replay(node_id, now, replay_limit=attempt_no)
                    self.recovery_log[-1]["aborted_mid_replay"] = True
                raise ChaosInjectedFailure(
                    f"injected recovery failure for node {node_id} "
                    f"(attempt {attempt_no} of {forced} doomed)"
                )
            RecoveryManager.on_recover(self, node_id, now)

        def consume_backoff(attempt_no: int, delay: float) -> None:
            network.postpone_node(node_id, delay)

        try:
            self.supervisor.run(f"recover:{node_id}", attempt, on_backoff=consume_backoff)
        except SupervisionExhausted:
            network.abandon_recovery(node_id)
            executor.mark_degraded(node_id, now)


class ChaosExecutor(FaultTolerantExecutor, ElasticExecutor):
    """Durable + killable + elastic, under one seeded chaos plan."""

    def __init__(
        self,
        plan: RecursiveViewPlan,
        strategy: ExecutionStrategy,
        chaos_plan: Optional[ChaosPlan] = None,
        supervisor_policy: Optional[RetryPolicy] = None,
        **kwargs: object,
    ) -> None:
        self.chaos_plan = chaos_plan if chaos_plan is not None else ChaosPlan(name="none")
        super().__init__(plan, strategy, **kwargs)
        self.supervisor = Supervisor(
            policy=supervisor_policy or RetryPolicy(), seed=self.chaos_plan.seed
        )
        # Swap the plain recovery manager (installed by the fault-tolerant
        # __init__) for the supervised one.
        self.recovery = SupervisedRecoveryManager(
            self, self.recovery_policy, self.supervisor, self.chaos_plan
        )
        self.network.set_fault_listener(self.recovery)
        self.interposer: Optional[ChaosInterposer] = None
        if self.chaos_plan.link is not None and self.chaos_plan.link.active:
            self.interposer = ChaosInterposer(self.chaos_plan).attach(self.network)
        #: Nodes degraded to stale-view service, with why/since metadata.
        self._degraded: Dict[int, StalenessInfo] = {}
        #: Per-node view snapshot from the last phase that converged while
        #: the node was live — what a degraded node serves.
        self._converged_views: Dict[int, frozenset] = {}
        self._last_phase_label = "init"
        self._deferrals: Dict[str, int] = {}

    # -- durable membership ---------------------------------------------------------
    def _register_node(self, node_id: int, node) -> None:
        """A node admitted mid-run gets the same durability shim as founders."""
        if node_id != len(self.runtimes):
            raise FaultToleranceError(
                f"runtime list out of step: node {node_id} vs {len(self.runtimes)} runtimes"
            )
        runtime = DurableNodeRuntime(
            node, self.wal, self.checkpoints, self.checkpoint_interval
        )
        self.runtimes.append(runtime)
        self.network.register(node_id, runtime.handle)

    def _migrate(self, now: float):
        report = super()._migrate(now)
        # Migration barrier checkpoint: migrated slices travel over the
        # checkpoint codec, not the WAL-logged delivery path.  Checkpointing
        # every live node here pins the post-migration state durably, so a
        # later crash replays a WAL suffix that is consistent with the new
        # placement instead of resurrecting pre-migration ownership.
        self.checkpoint_all()
        return report

    # -- placement changes deferred while nodes are down ----------------------------
    def _defer_while_down(self, label: str, retry, now: Optional[float]) -> bool:
        """Defer a placement change while any node is down; bounded.

        Migration extracts slices from nodes' in-memory state; a crashed node
        has none to give.  The change is re-scheduled as a control event with
        a linearly growing delay, up to :data:`MAX_PLACEMENT_DEFERRALS` tries
        (a degraded node never recovers, so unbounded waiting would hang).
        """
        down = self.network.down_nodes()
        if not down:
            self._deferrals.pop(label, None)
            return False
        count = self._deferrals.get(label, 0) + 1
        if count > MAX_PLACEMENT_DEFERRALS:
            raise PlacementError(
                f"placement change {label!r} deferred {count - 1} times while "
                f"nodes {list(down)} stayed down; giving up"
            )
        self._deferrals[label] = count
        at_time = (self.network.now if now is None else now) + DEFERRAL_DELAY * count
        self.network.schedule_control(retry, at_time)
        return True

    def add_node(self, weight: Optional[int] = None, now: Optional[float] = None) -> int:
        if self._defer_while_down(
            "add-node", lambda t: self.add_node(weight=weight, now=t), now
        ):
            return -1
        return super().add_node(weight=weight, now=now)

    def remove_node(self, node_id: int, now: Optional[float] = None) -> None:
        if self._defer_while_down(
            f"remove-node:{node_id}", lambda t: self.remove_node(node_id, now=t), now
        ):
            return
        super().remove_node(node_id, now=now)

    def rebalance(self, now: Optional[float] = None):
        if self._defer_while_down("rebalance", lambda t: self.rebalance(now=t), now):
            return None
        return super().rebalance(now=now)

    # -- graceful degradation ---------------------------------------------------------
    def mark_degraded(self, node_id: int, now: float) -> None:
        """Demote ``node_id`` to stale-view service (called on supervision
        exhaustion).  The run keeps going; reads of the node's partition come
        from its last converged snapshot, tagged with staleness metadata."""
        info = StalenessInfo(
            node=node_id,
            since=now,
            phase=self._last_phase_label,
            reason="recovery retry budget exhausted",
        )
        self._degraded[node_id] = info
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                node_id,
                "degraded",
                "chaos",
                sim_ts=now,
                args={"stale_as_of_phase": info.phase, "reason": info.reason},
            )
        from repro.obs.trace import maybe_dump_flight

        maybe_dump_flight(f"node {node_id} degraded: {info.reason}")

    @property
    def degraded_nodes(self) -> Dict[int, StalenessInfo]:
        """Degraded nodes and their staleness metadata (empty when healthy)."""
        return dict(self._degraded)

    def _run_phase(self, label, *args, **kwargs):
        phase = super()._run_phase(label, *args, **kwargs)
        self._snapshot_converged(label)
        return phase

    def _snapshot_converged(self, label: str) -> None:
        """Record every live node's converged partition (degraded fallback)."""
        for node in self.nodes:
            node_id = node.node_id
            if self.network.is_down(node_id) or node_id in self._degraded:
                continue
            self._converged_views[node_id] = frozenset(node.view_tuples())
        self._last_phase_label = label

    def view(self) -> Set[Tuple]:
        """The materialised view; degraded partitions come from their last
        converged snapshot instead of the (lost) in-memory node state."""
        if not self._degraded:
            return super().view()
        result: Set[Tuple] = set()
        for node in self.nodes:
            if node.node_id in self._degraded:
                result.update(self._converged_views.get(node.node_id, frozenset()))
            else:
                result.update(node.view_tuples())
        return result

    def view_with_staleness(self):
        """``(view, staleness)``: the served view plus per-node
        :class:`StalenessInfo` for every partition answered stale."""
        return self.view(), dict(self._degraded)

    # -- diagnostics ------------------------------------------------------------------
    def chaos_stats(self) -> Dict[str, object]:
        """Everything the chaos plane did to this run, flattened for rows."""
        stats: Dict[str, object] = {
            "chaos_profile": self.chaos_plan.name,
            "chaos_seed": self.chaos_plan.seed,
            "degraded_nodes": len(self._degraded),
        }
        if self.interposer is not None:
            stats.update(self.interposer.stats.as_dict())
        stats.update(self.supervisor.stats())
        return stats


def chaos_executor(
    plan: RecursiveViewPlan,
    strategy: Union[str, ExecutionStrategy],
    chaos_plan: Optional[ChaosPlan] = None,
    supervisor_policy: Optional[RetryPolicy] = None,
    recovery_policy: Union[str, RecoveryPolicy] = RecoveryPolicy.CHECKPOINT_REPLAY,
    checkpoint_interval: int = 25,
    node_count: int = 12,
    virtual_nodes: int = 64,
    rebalancer: Optional[LoadAwareRebalancer] = None,
    latency_model: Optional[LatencyModel] = None,
    processing_cost: float = 0.00002,
    max_events: int = 5_000_000,
    max_wall_seconds: Optional[float] = None,
    experiment: str = "chaos",
    batch_policy: Optional[BatchPolicy] = None,
) -> ChaosExecutor:
    """Convenience constructor mirroring the fault/elastic builders."""
    if isinstance(strategy, str):
        strategy = ExecutionStrategy.by_name(strategy)
    if latency_model is None:
        latency_model = ClusterLatencyModel(primary_cluster_size=min(node_count, 16))
    return ChaosExecutor(
        plan=plan,
        strategy=strategy,
        chaos_plan=chaos_plan,
        supervisor_policy=supervisor_policy,
        recovery_policy=recovery_policy,
        checkpoint_interval=checkpoint_interval,
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
