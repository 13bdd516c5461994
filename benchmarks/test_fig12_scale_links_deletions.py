"""Figure 12 — scaling the number of links, deleting 20 % of them.

Same topologies as Figure 11; after inserting every link, 20 % are deleted.
The reported metrics cover the deletion phase.  Expected shape: costs grow
with network size, dense costs more than sparse, lazy propagation stays ahead
of eager propagation.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure12_scaling_links_deletions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure12", experiment_config)
    report_figure(rows, title="Figure 12: increasing the number of links, deletion workload")
    assert rows
    lazy_dense = [
        r for r in rows if r["scheme"] == "Lazy Dense" and r["converged"]
    ]
    assert lazy_dense, "Lazy Dense should converge at every size"
    # Cost grows with the size of the network.
    assert lazy_dense[-1]["communication_MB"] >= lazy_dense[0]["communication_MB"]
