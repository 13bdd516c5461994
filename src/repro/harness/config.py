"""Experiment sizing.

The paper runs on a 100-node GT-ITM topology (≈400 directed links), a
100 m x 100 m sensor grid, and 12-24 physical query processors.  The
reproduction's engine is a pure-Python discrete-event simulation, so the
default benchmark configuration scales the *data* down while keeping every
structural parameter (transit-stub shape, dense/sparse ratio, seed-group
count, processor counts) so the comparative shapes of the figures are
preserved.  ``DEFAULT_CONFIG`` is what the ``benchmarks/`` suite runs;
``PAPER_SCALE_CONFIG`` reproduces the paper's sizes for anyone willing to wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the per-figure experiment drivers."""

    #: Query-processor cluster size (the paper's default is 12).
    node_count: int = 12
    #: Transit-stub shape: nodes per stub (the paper uses 8 -> 100 routers; the
    #: default benchmark scale uses 2 -> 28 routers, see EXPERIMENTS.md).
    nodes_per_stub: int = 2
    #: Stubs per transit router.
    stubs_per_transit: int = 3
    #: Transit routers per transit domain.
    transit_nodes_per_domain: int = 4
    #: Insertion ratios swept by Figures 7 and 9.
    insertion_ratios: Tuple[float, ...] = (0.5, 0.75, 1.0)
    #: Deletion ratios swept by Figures 8 and 10.
    deletion_ratios: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    #: Directed-link budgets swept by Figures 11 and 12 (paper: 100..800).
    #: Each budget snaps to the nearest generatable transit-stub topology;
    #: budgets that snap to the same topology are deduplicated by the driver.
    link_budgets: Tuple[int, ...] = (60, 110)
    #: Processor counts swept by Figure 13 (paper: up to 24).
    processor_counts: Tuple[int, ...] = (4, 8, 12, 16, 24)
    #: Sensor-grid side length in metres (paper: 100 m x 100 m field).
    sensor_field_side: float = 40.0
    sensor_spacing: float = 10.0
    #: Proximity radius k in metres (paper: 20 m over a 100 m field; the
    #: default benchmark grid is smaller, and 15 m keeps each sensor's
    #: neighbourhood (~8 sensors) proportionally comparable).
    sensor_proximity_radius: float = 15.0
    sensor_seed_groups: int = 5
    #: Hop bound used by the shortest-path query when AggSel is disabled.
    path_hop_bound: int = 5
    #: Random seed shared by every generator (reproducibility).
    seed: int = 7
    #: Hard cap on simulated events per run (guards non-terminating schemes).
    max_events: int = 3_000_000
    #: Work budget per phase in MB shipped: a phase that ships more is cut off
    #: and reported as "did not converge", mirroring the paper's ">5 minutes"
    #: data points (figure 7's Relative Eager, whose provenance blows up).
    #: Counted in bytes, not seconds, so on the in-process backend a censored
    #: row reads the same on every host and run.  Converged phases ship under
    #: 7 MB at this scale.
    #: ``None`` leaves censoring to the wall-clock budget.
    max_phase_mb: Optional[float] = 50.0
    #: Wall-clock budget per phase in seconds; a phase that exceeds it is
    #: reported as "did not converge" too.  With a work budget it is only a
    #: guard against a hang, far above any honest phase.
    max_wall_seconds: float = 300.0
    #: Crash/recover cycles injected by the churn experiment.
    churn_cycles: int = 1
    #: Fraction of each churn cycle's slot a crashed node stays down.
    churn_downtime: float = 0.3
    #: Deliveries between periodic checkpoints under checkpoint+replay.
    churn_checkpoint_interval: int = 20
    #: Maximum updates per injected/coalesced message (1 = tuple-at-a-time).
    batch_size: int = 64
    #: Ports handled batch-wise at the nodes; ``None`` batches every port.
    batch_ports: Optional[Tuple[str, ...]] = None
    #: Base-deletion fraction used by the batch-throughput experiment (the
    #: figure-12 topology with a figure-8-style deletion ratio).
    batch_deletion_ratio: float = 0.4
    #: Virtual nodes per processor on the elastic consistent-hash ring.
    virtual_nodes: int = 64
    #: Base-deletion fraction used by the elastic experiment's scale-in phase.
    elastic_deletion_ratio: float = 0.3
    #: Hotspot workload shape for the elastic experiment (hub-and-spoke link
    #: stream with ``hotspot_bias`` of the extra links touching a hub).
    hotspot_spokes: int = 10
    hotspot_hubs: int = 2
    hotspot_bias: float = 0.8
    hotspot_extra_links: int = 20
    #: Append per-node traffic/state rows to experiment reports (skew view).
    per_node: bool = False
    #: Dead-node fraction of the BDD node table that triggers a compacting
    #: garbage collection in the absorption strategies' annotation kernel
    #: (0 disables automatic GC; see ``BDDManager``).
    bdd_gc_threshold: float = 0.25
    #: Execution backend: ``"sim"`` runs every node handler on this
    #: interpreter thread; ``"process"`` shards the nodes across real OS
    #: worker processes with bit-identical results (see ``repro.parallel``).
    backend: str = "sim"
    #: Worker-process count for the process backend (0 = one per CPU core).
    workers: int = 0
    #: Seed for the chaos experiment's fault plan AND its power-law workload.
    chaos_seed: int = 11
    #: Named chaos profile swept by the ``chaos`` experiment's sim parity
    #: rows (``none``, ``link``, ``storm``, ``full``, ``degraded``, ``kill``).
    chaos_profile: str = "full"
    #: Power-law workload size (total directed links) for the chaos runs.
    #: Reachability views grow ~quadratically in the hub-heavy chaos graph,
    #: and every parity row pays for a reference run *plus* a chaos run, so
    #: the default stays modest; ``PAPER_SCALE_CONFIG`` carries the 10-100x
    #: topology-scale sweep.
    chaos_links: int = 48

    def describe(self) -> str:
        """One-line description used in benchmark output headers."""
        batching = (
            f"batch<= {self.batch_size}" if self.batch_size > 1 else "tuple-at-a-time"
        )
        backend = "in-process"
        if self.backend == "process":
            workers = self.workers or "per-core"
            backend = f"process x{workers}"
        return (
            f"{self.node_count} processors, {self.nodes_per_stub} nodes/stub, "
            f"{batching}, {backend}, seed={self.seed}"
        )


#: Default, laptop-friendly configuration used by the pytest benchmarks.
DEFAULT_CONFIG = ExperimentConfig()

#: Very small configuration for smoke tests of the harness itself.
QUICK_CONFIG = ExperimentConfig(
    node_count=6,
    nodes_per_stub=2,
    stubs_per_transit=2,
    insertion_ratios=(0.5, 1.0),
    deletion_ratios=(0.5, 1.0),
    link_budgets=(30, 40),
    processor_counts=(4, 8),
    sensor_field_side=30.0,
    max_events=1_000_000,
    hotspot_spokes=8,
    hotspot_extra_links=12,
    chaos_links=48,
)

#: The paper's own scale (slow in pure Python; provided for completeness).
PAPER_SCALE_CONFIG = ExperimentConfig(
    nodes_per_stub=8,
    link_budgets=(100, 200, 400, 800),
    sensor_field_side=100.0,
    # No work budget measured at this scale: censor on wall time, as the paper
    # did (its five minutes), leaving host-dependent censored rows.
    max_phase_mb=None,
    max_wall_seconds=600.0,
    chaos_links=400,
)
