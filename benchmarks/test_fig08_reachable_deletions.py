"""Figure 8 — ``reachable`` view maintenance as links are deleted.

After preloading the full topology, growing fractions of the links are
deleted.  Expected shape (Section 7.2): DRed is by far the most expensive in
communication and convergence time (over-delete + re-derive approaches full
recomputation per batch), absorption provenance handles deletions directly,
relative provenance sits in between with larger annotations.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure8_reachable_deletions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure8", experiment_config)
    report_figure(rows, title="Figure 8: reachable query computation as deletions are performed")
    assert rows

    def final(scheme):
        candidates = [r for r in rows if r["scheme"] == scheme and r["converged"]]
        return candidates[-1] if candidates else None

    dred, lazy = final("DRed"), final("Absorption Lazy")
    assert dred is not None and lazy is not None
    # Deletion handling is where absorption provenance pays off.
    assert lazy["communication_MB"] < dred["communication_MB"]
    assert lazy["convergence_time_s"] < dred["convergence_time_s"]
    relative = final("Relative Lazy")
    if relative is not None:
        # Relative provenance ships larger annotations than absorption.
        assert relative["per_tuple_provenance_B"] >= lazy["per_tuple_provenance_B"]
