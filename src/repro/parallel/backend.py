"""``ProcessExecutor`` — the multi-core drop-in for ``DistributedViewExecutor``.

Same constructor surface, same workload API, same metrics; the difference is
*where handlers run*.  The simulated nodes are sharded across real OS worker
processes (``workers`` of them), each owning a private ``BDDManager``,
operators, tracer, metrics registry and optional command WAL, while the
coordinator keeps the virtual clock and the deterministic ``(time, seq)``
total order (see :mod:`repro.parallel.scheduler` for the bit-identity
argument).  ``build_executor(..., backend="process", workers=N)`` is the
front door.

Constraints of this backend (all raise immediately, never desynchronize):

* the plan/strategy/partitioner must pickle (lambda-captured plan variants
  like ``shortest_path_plan`` do not — the in-process backend still runs
  them);
* static hash placement only (no elastic re-partitioning, simulated node
  faults or control events mid-run — the fault surface of this backend is
  *real*: scheduled worker SIGKILLs with WAL-replay respawn, see
  ``ProcessCoordinator.schedule_worker_kill``);
* runs go to quiescence (``run(until=...)`` is a coordinator-only notion).
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Optional, Set

from repro.data.batch import BatchPolicy
from repro.data.tuples import Tuple
from repro.engine.executor import DistributedViewExecutor
from repro.engine.plan import RecursiveViewPlan
from repro.engine.strategy import ExecutionStrategy
from repro.net.latency import LatencyModel
from repro.net.partition import HashPartitioner
from repro.net.simulator import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_tracer
from repro.operators.ship import ShipMode
from repro.parallel.envelope import WorkerInit
from repro.parallel.scheduler import ProcessCoordinator

#: Kernel-stat keys that take the max when merging workers; everything else
#: numeric sums (table sizes and counters add across disjoint managers).
_KERNEL_MAX_KEYS = frozenset({"gc_max_pause_s"})
_KERNEL_FIRST_KEYS = frozenset({"gc_threshold"})


class _ClusterStore:
    """The executor-facing provenance-store facade of the process backend.

    Nodes never touch this — each worker's nodes use that worker's real
    store.  The executor only needs the kernel-telemetry surface, answered by
    RPC-gathering every worker's manager at quiescent points (which is the
    only time the executor reads it).
    """

    def __init__(self, executor: "ProcessExecutor") -> None:
        self._executor = executor

    def release(self) -> None:
        """Nothing to free: the annotation storage lives, and dies, in the workers."""

    #: The executor's phase machinery treats a ``None`` kernel_stats() as
    #: "kernel-less strategy"; workers answer authoritatively.
    def kernel_stats(self) -> Optional[Dict[str, object]]:
        replies = [
            reply
            for reply in self._executor._coordinator.broadcast("kernel_stats")
            if reply is not None
        ]
        if not replies:
            return None
        merged: Dict[str, object] = {}
        for reply in replies:
            for key, value in reply.items():
                if key in _KERNEL_FIRST_KEYS:
                    merged.setdefault(key, value)
                elif key in _KERNEL_MAX_KEYS:
                    merged[key] = max(merged.get(key, value), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def census(self) -> None:
        """A cluster-wide GC census (each worker counts its own manager)."""
        self._executor._coordinator.broadcast("census")


class _ClusterRoutingStats:
    """Routing telemetry summed across the workers plus the coordinator side."""

    def __init__(self, executor: "ProcessExecutor") -> None:
        self._executor = executor

    def snapshot(self, partitioner) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for reply in self._executor._coordinator.broadcast("routing"):
            for key, value in reply.items():
                merged[key] = merged.get(key, 0) + value
        # The coordinator's own partitioner serves the injection path
        # (owner resolution in ``_inject_batches``); fold its counters in so
        # the totals match what the in-process run attributes to routing.
        for key, value in partitioner.routing_stats().items():
            merged[key] = merged.get(key, 0) + value
        return merged


class _NodeProxy:
    """The thin slice of ``ProcessorNode`` cross-process components touch.

    Only the DRed coordinator reaches into nodes mid-protocol — and only to
    clear join-left state between over-deletion and re-derivation.  Everything
    else (views, state sizes) goes through the executor's batched RPCs.
    """

    class _JoinProxy:
        def __init__(self, executor: "ProcessExecutor", node_id: int) -> None:
            self._executor = executor
            self._node_id = node_id

        def clear_left(self) -> None:
            coordinator = self._executor._coordinator
            coordinator.rpc(
                [coordinator.worker_for(self._node_id)], "clear_join_left", self._node_id
            )

    def __init__(self, executor: "ProcessExecutor", node_id: int) -> None:
        self.node_id = node_id
        self.join = _NodeProxy._JoinProxy(executor, node_id)


class ProcessExecutor(DistributedViewExecutor):
    """Runs the distributed view over a pool of shared-nothing worker processes."""

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
        workers: Optional[int] = None,
        wal_dir=None,
    ) -> None:
        if partitioner is not None and type(partitioner) is not HashPartitioner:
            raise SimulationError(
                "the process backend supports static hash placement only "
                f"(got {type(partitioner).__name__})"
            )
        try:
            pickle.dumps((plan, strategy, batch_policy, partitioner))
        except Exception as exc:
            raise SimulationError(
                f"plan {plan.name!r} cannot cross a process boundary ({exc}); "
                "use the in-process backend for it"
            ) from None
        requested = workers or (os.cpu_count() or 1)
        cluster = partitioner.node_count if partitioner is not None else node_count
        self.workers = max(1, min(requested, cluster))
        self._wal_dir = wal_dir
        self._coordinator: Optional[ProcessCoordinator] = None
        super().__init__(
            plan,
            strategy,
            node_count=node_count,
            latency_model=latency_model,
            partitioner=partitioner,
            processing_cost=processing_cost,
            max_events=max_events,
            max_wall_seconds=max_wall_seconds,
            experiment=experiment,
            batch_policy=batch_policy,
        )

    # -- backend hooks ------------------------------------------------------------
    def _create_store(self):
        return _ClusterStore(self)

    def _create_network(self, latency_model, processing_cost, max_events, max_wall_seconds):
        tracer = current_tracer()
        init = WorkerInit(
            wid=-1,  # per-worker ids are stamped at spawn
            workers=self.workers,
            node_count=self.partitioner.node_count,
            plan=self.plan,
            strategy=self.strategy,
            batch_policy=self.batch_policy,
            partitioner=self.partitioner,
            trace_capacity=0 if tracer is None else tracer.capacity,
        )
        self._coordinator = ProcessCoordinator(
            init,
            wal_dir=self._wal_dir,
            latency_model=latency_model,
            processing_cost=processing_cost,
            max_events=max_events,
            max_wall_seconds=max_wall_seconds,
            batch_policy=self.batch_policy,
        )
        return self._coordinator

    def _create_routing_stats(self):
        return _ClusterRoutingStats(self)

    def _create_nodes(self):
        return [
            _NodeProxy(self, node_id) for node_id in range(self.partitioner.node_count)
        ]

    def _register_engine_probes(self, registry: MetricsRegistry) -> None:
        """The snapshot-then-merge path over the workers' materialized registries.

        Worker probes are process-local callables; each worker evaluates them
        into a picklable frozen registry (``MetricsRegistry.materialize``),
        and the coordinator merges those — per-worker views under ``w<id>.``
        next to the unprefixed cluster aggregate.  The per-phase snapshot in
        ``_run_phase`` triggers this probe, so ``--metrics-json`` carries both.
        """

        def workers_probe():
            merged = MetricsRegistry()
            for wid, materialized in enumerate(self._coordinator.broadcast("metrics")):
                merged.merge(materialized, prefix=f"w{wid}")
                merged.merge(materialized)
            return merged.snapshot()

        registry.register_probe("workers", workers_probe)

    # -- quiescence (flush protocol) -------------------------------------------------
    def _run_to_quiescence(self) -> None:
        eager = self.strategy.uses_provenance and self.strategy.ship_mode is ShipMode.EAGER
        while True:
            self.network.run()
            if not eager:
                break
            if self._coordinator.flush_eager_ships() == 0:
                break

    # -- results (batched per-worker RPCs) ----------------------------------------------
    def _gather_node_map(self, op: str) -> Dict[int, object]:
        result: Dict[int, object] = {}
        for reply in self._coordinator.broadcast(op):
            result.update(reply)
        return result

    def view(self) -> Set[Tuple]:
        result: Set[Tuple] = set()
        for partition in self._gather_node_map("views").values():
            result.update(partition)
        return result

    def view_at(self, node_id: int) -> Set[Tuple]:
        coordinator = self._coordinator
        (reply,) = coordinator.rpc([coordinator.worker_for(node_id)], "views")
        return set(reply[node_id])

    def view_size(self) -> int:
        """One count per worker instead of every view tuple pickled.

        Placement is static, so each view tuple lives on exactly one node and
        the per-worker counts add up to ``len(self.view())``.
        """
        return sum(self._coordinator.broadcast("view_size"))

    def view_annotations(self) -> Dict[Tuple, object]:
        result: Dict[Tuple, object] = {}
        for reply in self._coordinator.broadcast("view_annotations"):
            result.update(reply)
        return result

    def state_bytes(self) -> int:
        return sum(self._gather_node_map("state_bytes").values())

    # -- explain ------------------------------------------------------------------------
    def _explain_products(self, target):
        """Ask every worker for the tuple's canonical products; first hit wins.

        Only the worker hosting the tuple's owner node answers non-``None``,
        and the answer is already manager-independent (the worker runs
        ``canonical_annotation`` against its own store before pickling).
        """
        for reply in self._coordinator.broadcast("explain", target):
            if reply is not None:
                return reply
        return None

    def _collect_flight_rings(self) -> None:
        """Pull the workers' tracer stores into the coordinator's pre-dump."""
        if self.tracer is not None and self._coordinator is not None:
            self._coordinator.collect_flight_rings()

    def per_node_state_bytes(self) -> Dict[int, int]:
        return dict(sorted(self._gather_node_map("state_bytes").items()))

    def worker_fault_stats(self) -> Dict[str, int]:
        """Chaos-plane counters: injected kills, respawns, doomed retries."""
        coordinator = self._coordinator
        return {
            "worker_kills": coordinator.worker_kills,
            "worker_respawns": coordinator.worker_respawns,
            "worker_respawn_retries": coordinator.worker_respawn_retries,
        }

    # -- tracing -----------------------------------------------------------------------
    def _run_phase(self, label: str, **workload):
        phase = super()._run_phase(label, **workload)
        # An unbounded store is drained every phase.  A ring is snapshotted,
        # not drained, so it is read only post-mortem (``_collect_flight_rings``):
        # reading it every phase would absorb the same records again.
        if self.tracer is not None and self.tracer.capacity is None:
            self._coordinator.drain_traces()
        return phase

    # -- lifecycle ----------------------------------------------------------------------
    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ProcessExecutor(plan={self.plan.name!r}, scheme={self.strategy.label!r}, "
            f"nodes={self.network.node_count}, workers={self.workers})"
        )


__all__ = ["ProcessExecutor"]
