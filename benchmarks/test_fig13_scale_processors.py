"""Figure 13 — varying the number of query-processor nodes.

DRed vs Absorption Lazy on the reachable workload (insert everything, then
delete 20 %) while the cluster grows from 4 to 24 processors.  Expected shape
(Section 7.3): per-node state shrinks with more processors, convergence time
falls until the 24-node configuration pays the slower inter-cluster link, and
DRed remains costlier than Absorption Lazy throughout.

The process-backend variants measure what the simulator cannot: *real*
multi-core scale-out.  The same deletion-heavy workload runs with the nodes
sharded across OS worker processes; per-worker utilization comes from the
merged metrics registries, and on a multi-core host the 4-worker run must
beat the 1-worker run on wall-clock by a material margin.
"""

import os
import time

import pytest

from benchmarks.conftest import report_figure, run_once
from repro.harness import run
from repro.queries import build_executor, reachability_plan
from repro.workloads.topology import TransitStubConfig, generate_topology
from repro.workloads.updates import deletion_sample

#: The deletion-heavy scale-out workload: dense topology, delete 60% of the
#: base — deletions are where absorption's BDD kernel does real CPU work.
_SCALEOUT_NODES = 8
_SCALEOUT_DELETION_RATIO = 0.6


def test_figure13_scaling_processors(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure13", experiment_config)
    report_figure(rows, title="Figure 13: varying the number of physical query processing nodes")
    assert rows
    lazy = [r for r in rows if r["scheme"] == "Absorption Lazy" and r["converged"]]
    dred = [r for r in rows if r["scheme"] == "DRed" and r["converged"]]
    assert lazy and dred
    # More processors -> less state per node.
    assert lazy[-1]["per_node_state_MB"] <= lazy[0]["per_node_state_MB"]
    # DRed takes longer to converge than Absorption Lazy at every cluster size
    # (its deletion handling re-derives the surviving view).  At the reduced
    # benchmark scale the *byte* totals can favour DRed because the
    # insertion phase (where provenance is pure overhead) dominates; the
    # paper-scale byte gap is discussed in EXPERIMENTS.md.
    for dred_row, lazy_row in zip(dred, lazy):
        assert dred_row["convergence_time_s"] >= lazy_row["convergence_time_s"]


def _scaleout_workload(nodes_per_stub=2):
    topology = generate_topology(
        TransitStubConfig(nodes_per_stub=nodes_per_stub, dense=True, seed=7)
    )
    links = topology.link_tuples()
    return links, deletion_sample(links, _SCALEOUT_DELETION_RATIO, seed=7)


def _run_process_backend(links, deletions, workers):
    """One insert-all-delete-heavy cycle on the process backend; returns a row."""
    executor = build_executor(
        reachability_plan(),
        "Absorption Eager",
        node_count=_SCALEOUT_NODES,
        backend="process",
        workers=workers,
    )
    try:
        wall_start = time.perf_counter()
        executor.insert_edges(links)
        executor.delete_edges(deletions)
        wall_seconds = time.perf_counter() - wall_start
        snapshot = executor.metrics_registry.snapshot()
        view_size = len(executor.view())
    finally:
        executor.close()
    row = {
        "figure": "13",
        "scheme": "Absorption Eager",
        "workers": workers,
        "wall_clock_s": round(wall_seconds, 4),
        "view_size": view_size,
    }
    for wid in range(workers):
        busy = snapshot[f"workers.w{wid}.work.busy_seconds"]
        elapsed = snapshot[f"workers.w{wid}.elapsed_s"]
        row[f"w{wid}_utilization"] = round(busy / elapsed, 4) if elapsed else 0.0
    return row, snapshot


def test_figure13_process_backend_utilization():
    """Per-worker utilization is observable through the merged metrics."""
    links, deletions = _scaleout_workload()
    row, snapshot = _run_process_backend(links, deletions, workers=2)
    report_figure([row], title="Figure 13 (process backend): per-worker utilization")
    # Both workers did real handler work, and the unprefixed aggregate is the
    # sum of the per-worker views.
    per_worker = [snapshot[f"workers.w{wid}.work.busy_seconds"] for wid in range(2)]
    assert all(busy > 0 for busy in per_worker)
    assert abs(sum(per_worker) - snapshot["workers.work.busy_seconds"]) < 1e-6
    assert row["w0_utilization"] > 0 and row["w1_utilization"] > 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock scale-out needs at least 4 physical cores",
)
def test_figure13_process_backend_speedup():
    """4 workers beat 1 worker by > 1.2x wall-clock on the deletion-heavy workload."""
    links, deletions = _scaleout_workload(nodes_per_stub=3)
    single, _ = _run_process_backend(links, deletions, workers=1)
    quad, _ = _run_process_backend(links, deletions, workers=4)
    speedup = single["wall_clock_s"] / quad["wall_clock_s"]
    quad["speedup_vs_1_worker"] = round(speedup, 3)
    report_figure(
        [single, quad], title="Figure 13 (process backend): multi-core scale-out"
    )
    assert quad["view_size"] == single["view_size"]
    assert speedup > 1.2, (
        f"4-worker run must be > 1.2x faster than 1-worker "
        f"({single['wall_clock_s']:.2f}s -> {quad['wall_clock_s']:.2f}s, {speedup:.2f}x)"
    )
