"""Figure 9 — sensor-region query as sensors are triggered.

The region query runs over a simulated sensor grid with seed groups; growing
fractions of the sensors are triggered.  The trends mirror Figure 7 at lower
absolute cost (the proximity graph is local, so derivations are shorter).
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure9_region_insertions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure9", experiment_config)
    report_figure(rows, title="Figure 9: region query computation as insertions are performed")
    assert rows

    def final(scheme):
        candidates = [r for r in rows if r["scheme"] == scheme and r["converged"]]
        return candidates[-1] if candidates else None

    dred, lazy = final("DRed"), final("Absorption Lazy")
    assert dred is not None and lazy is not None
    # Insertion-only: set-semantics execution does not pay the provenance overhead.
    assert dred["per_tuple_provenance_B"] <= lazy["per_tuple_provenance_B"]
