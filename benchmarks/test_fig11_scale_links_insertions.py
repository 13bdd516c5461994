"""Figure 11 — scaling the number of links, insertion workload.

Absorption Eager vs Lazy over dense and sparse transit-stub topologies of
increasing size.  Expected shape (Section 7.3): dense topologies are costlier
than sparse ones (more alternative derivations), and lazy propagation is the
difference between finishing quickly and blowing past the time budget on the
larger dense networks.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure11_scaling_links_insertions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure11", experiment_config)
    report_figure(rows, title="Figure 11: increasing the number of links, insertion workload")
    assert rows

    def series(scheme_suffix, density):
        return [
            r
            for r in rows
            if r["scheme"].endswith(scheme_suffix) and r["density"] == density and r["converged"]
        ]

    lazy_dense = series("Lazy Dense", "dense")
    eager_dense = series("Eager Dense", "dense")
    assert lazy_dense, "Lazy Dense should converge at every size"
    if eager_dense:
        largest_common = min(len(lazy_dense), len(eager_dense)) - 1
        assert (
            lazy_dense[largest_common]["communication_MB"]
            <= eager_dense[largest_common]["communication_MB"]
        )
