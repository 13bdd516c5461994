"""Figure 7 — ``reachable`` view computation as links are inserted.

Compares DRed, Relative Eager/Lazy and Absorption Eager/Lazy while inserting
growing fractions of the transit-stub topology's links, reporting the paper's
four metrics per insertion ratio.  Expected shape (Section 7.2): DRed is the
cheapest on an insertion-only workload (provenance is pure overhead there),
Absorption Lazy is the cheapest provenance scheme, Relative Eager blows up.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure7_reachable_insertions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure7", experiment_config)
    report_figure(rows, title="Figure 7: reachable query computation as insertions are performed")
    assert rows, "the experiment produced no rows"
    schemes = {row["scheme"] for row in rows}
    assert "DRed" in schemes and "Absorption Lazy" in schemes

    def final(scheme):
        candidates = [r for r in rows if r["scheme"] == scheme and r["converged"]]
        return candidates[-1] if candidates else None

    dred, lazy, eager = final("DRed"), final("Absorption Lazy"), final("Absorption Eager")
    # Insertion-only workload: provenance costs extra, lazy costs less than eager.
    assert dred is not None and lazy is not None
    assert dred["communication_MB"] <= lazy["communication_MB"]
    if eager is not None:
        assert lazy["communication_MB"] <= eager["communication_MB"]
