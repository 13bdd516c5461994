"""Ablation — MinShip batching window (Section 5).

Sweeps the eager MinShip batch size ``W`` on the reachable insertion workload.
Smaller windows propagate more alternate derivations (more traffic, fresher
remote provenance); larger windows approach lazy propagation.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_ablation_minship_batch_size(benchmark, experiment_config):
    rows = run_once(benchmark, run, "ablation-minship", experiment_config)
    report_figure(rows, title="Ablation: MinShip batch size (eager propagation)")
    converged = [r for r in rows if r["converged"]]
    assert len(converged) >= 2
    # Larger batches never ship more than the smallest batch size.
    assert converged[-1]["communication_MB"] <= converged[0]["communication_MB"] * 1.05
