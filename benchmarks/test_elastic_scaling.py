"""Elastic — scale a running cluster from N to 2N processors and back down.

Extends Figure 13 from static cluster-size comparison to *dynamic* scaling:
two static reference runs (N and 2N processors) bracket an elastic run that
admits N processors spread across the insertion stream, rebalances against
the hotspot skew, and decommissions them again across the deletion stream.
Both elastic phases must converge to the exact networkx ground truth — stale-
epoch batches are forwarded, never dropped — and the table reports what the
elasticity costs: moved state bytes (checkpoint-codec measured) and
misrouted-batch counts.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_elastic_scale_out_and_in(benchmark, experiment_config):
    rows = run_once(benchmark, run, "elastic", experiment_config)
    report_figure(rows, title="Elastic: N -> 2N -> N processors mid-stream")
    assert rows, "the experiment produced no rows"
    by_phase = {row["phase"]: row for row in rows if "phase" in row}
    assert {"static", "scale-out", "scale-in"} <= set(by_phase)

    for phase in ("scale-out", "scale-in"):
        row = by_phase[phase]
        assert row["converged"], f"{phase} did not converge"
        assert row["view_correct"], f"{phase} diverged from the ground truth"

    # Scaling must actually move state between nodes, and report it.
    assert by_phase["scale-out"]["moved_state_KB"] > 0
    assert by_phase["scale-in"]["moved_state_KB"] > 0
    # The static reference points converge too (the figure-13 endpoints).
    static_rows = [row for row in rows if row.get("phase") == "static"]
    assert len(static_rows) == 2
    assert all(row["view_correct"] for row in static_rows)
