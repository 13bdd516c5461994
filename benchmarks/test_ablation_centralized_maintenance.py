"""Ablation — distributed incremental maintenance vs centralized recomputation.

Compares deleting 20 % of the links under the distributed Absorption Lazy
engine against recomputing the view from scratch with the centralized
semi-naive evaluator.  Both must agree on the final view; the comparison shows
what the incremental machinery buys (and costs) relative to the simplest
correct baseline.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_ablation_centralized_maintenance(benchmark, experiment_config):
    rows = run_once(benchmark, run, "ablation-centralized", experiment_config)
    report_figure(rows, title="Ablation: distributed incremental maintenance vs centralized recompute")
    assert len(rows) == 2
    views = {row["view_size"] for row in rows}
    assert len(views) == 1, "both approaches must produce the same view"
