"""Containers for the paper's four evaluation metrics (Section 7.1).

* per-tuple provenance overhead (bytes)
* communication overhead (MB)
* state within operators (MB)
* convergence / execution time (seconds)

A :class:`PhaseMetrics` covers one workload phase (insert-only, or a deletion
batch); :class:`ExperimentMetrics` aggregates a whole experiment run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class KernelPhaseStats:
    """Annotation-kernel telemetry for one phase (absorption strategies only).

    Monotonic manager counters are reported as per-phase *deltas* by the
    executor; table sizes are absolute.  The phase wall clock decomposes
    into four buckets: ``kernel_time_s`` is wall time spent inside the BDD
    kernel loops (apply/restrict/support walks over the node table),
    ``routing_time_s`` is the routing layer's own timer (key-column
    extraction, bulk owner lookups, destination grouping — see
    :class:`~repro.engine.routing.RoutingStats`), ``operator_time_s`` is the
    rest of the handler time (joins, fixpoints, MinShip, provenance-table
    scans outside the kernel loops), and ``net_time_s`` is what is left of
    the phase wall — event-loop, latency bookkeeping and metric collection.
    Before the dedicated routing layer existed, ``routing_time_s`` was a
    proxy (all non-kernel handler time) that silently lumped the operator
    bucket in with routing.
    """

    table_size: int = 0
    peak_table_size: int = 0
    nodes_reclaimed: int = 0
    gc_passes: int = 0
    gc_compactions: int = 0
    gc_pause_s: float = 0.0
    kernel_time_s: float = 0.0
    routing_time_s: float = 0.0
    operator_time_s: float = 0.0
    net_time_s: float = 0.0
    #: Routing-layer sub-counters (per-phase deltas): bulk owner lookups the
    #: BatchRouter issued, key->owner cache hits inside those lookups, and
    #: elastic ownership-verification passes over delivered batches.  They
    #: explain *why* ``routing_time_s`` moved — one bulk lookup per batch and
    #: a high cache-hit rate is the columnar fast path working.
    routing_bulk_lookups: int = 0
    routing_cache_hits: int = 0
    routing_bounce_passes: int = 0


@dataclass
class PhaseMetrics:
    """Metrics for one phase of an experiment (e.g. all insertions, or one deletion batch)."""

    label: str
    per_tuple_provenance_bytes: float
    communication_mb: float
    state_mb: float
    convergence_time_s: float
    messages: int = 0
    updates_shipped: int = 0
    view_size: int = 0
    #: Wall-clock seconds the phase took to execute (simulation overhead
    #: included; distinct from the virtual ``convergence_time_s``).
    wall_seconds: float = 0.0
    #: Annotation-kernel telemetry (None for strategies without one).
    kernel: Optional[KernelPhaseStats] = None


@dataclass
class ExperimentMetrics:
    """Metrics for a full experiment: a sequence of phases plus identifying labels."""

    experiment: str
    scheme: str
    phases: List[PhaseMetrics] = field(default_factory=list)

    def add_phase(self, phase: PhaseMetrics) -> None:
        """Append one phase's metrics."""
        self.phases.append(phase)

    def phase(self, label: str) -> Optional[PhaseMetrics]:
        """Find a phase by label (None if missing)."""
        for candidate in self.phases:
            if candidate.label == label:
                return candidate
        return None

    @property
    def total_communication_mb(self) -> float:
        """Total traffic across all phases."""
        return sum(phase.communication_mb for phase in self.phases)

    @property
    def total_convergence_time_s(self) -> float:
        """Total virtual execution time across all phases."""
        return sum(phase.convergence_time_s for phase in self.phases)

    @property
    def final_state_mb(self) -> float:
        """Operator state at the end of the last phase."""
        return self.phases[-1].state_mb if self.phases else 0.0

    @property
    def mean_per_tuple_provenance_bytes(self) -> float:
        """Per-tuple provenance overhead averaged over phases that shipped tuples."""
        relevant = [p for p in self.phases if p.updates_shipped > 0]
        if not relevant:
            return 0.0
        total_bytes = sum(p.per_tuple_provenance_bytes * p.updates_shipped for p in relevant)
        total_updates = sum(p.updates_shipped for p in relevant)
        return total_bytes / total_updates if total_updates else 0.0
