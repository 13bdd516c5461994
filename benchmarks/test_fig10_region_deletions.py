"""Figure 10 — sensor-region query as triggered sensors are untriggered.

After triggering every sensor, growing fractions are untriggered (their
proximity edges and seed tuples are deleted).  Expected shape: as in Figure 8,
DRed pays recomputation-like costs per deletion batch while absorption
provenance removes exactly the no-longer-derivable memberships.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure10_region_deletions(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure10", experiment_config)
    report_figure(rows, title="Figure 10: region query computation as deletions are performed")
    assert rows

    def totals(scheme):
        candidates = [r for r in rows if r["scheme"] == scheme and r["converged"]]
        return candidates[-1] if candidates else None

    dred, lazy = totals("DRed"), totals("Absorption Lazy")
    assert dred is not None and lazy is not None
    assert lazy["convergence_time_s"] <= dred["convergence_time_s"]
