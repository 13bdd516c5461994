"""Figure 14 — aggregate selections on the shortest/cheapest path query.

Multi AggSel (prune on cost and hop count), Single AggSel (cost only) and No
AggSel over dense and sparse topologies.  Expected shape (Section 7.4):
aggregate selection is what makes the path query tractable at all — No AggSel
is the most expensive configuration by a wide margin (the paper reports it not
completing on dense topologies), and pruning on both aggregates at once is
cheaper than pruning on one.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_figure14_aggregate_selection(benchmark, experiment_config):
    rows = run_once(benchmark, run, "figure14", experiment_config)
    report_figure(rows, title="Figure 14: aggregate selections on shortestPath / cheapestCostPath")
    assert rows

    def row(label, density):
        matches = [r for r in rows if r["scheme"] == label and r["density"] == density]
        return matches[0] if matches else None

    for density in ("dense", "sparse"):
        multi = row("Multi AggSel", density)
        single = row("Single AggSel", density)
        none = row("No AggSel", density)
        assert multi is not None and single is not None and none is not None
        if multi["converged"] and none["converged"]:
            assert multi["communication_MB"] <= none["communication_MB"]
        if multi["converged"] and single["converged"]:
            assert multi["communication_MB"] <= single["communication_MB"] * 1.25
