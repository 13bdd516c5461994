"""Chaos plane — seeded fault injection gated by bit-identical parity.

Runs the combined chaos workload (power-law graph, skewed insertions,
deletion storm) under the configured chaos profile on the simulator backend
for both absorption schemes, plus a real-SIGKILL run on the process backend
and a deliberately-degraded run, and gates every non-degraded row on the
parity harness: the converged view (and, for eager provenance, the canonical
annotations) must equal the fault-free reference bit-for-bit.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_chaos_parity_gate(benchmark, experiment_config):
    rows = run_once(benchmark, run, "chaos", experiment_config)
    report_figure(
        rows, title="Chaos plane: seeded fault injection vs fault-free parity"
    )
    assert rows, "the experiment produced no rows"

    gated = [row for row in rows if row.get("chaos_profile") != "degraded"]
    assert gated, "no parity-gated rows"
    backends = {row["backend"] for row in gated}
    assert {"sim", "process"} <= backends, "both backends must be exercised"

    for row in gated:
        label = f"{row['scheme']}/{row['backend']}/{row['chaos_profile']}"
        assert row.get("converged", True), f"{label} did not converge"
        assert row["parity_passed"] is True, f"{label} failed the parity gate"
        assert row["view_match"] is True, f"{label} diverged from the reference"

    # The sim rows must actually have injected faults (not a vacuous pass)...
    sim_rows = [row for row in gated if row["backend"] == "sim"]
    assert any(row.get("chaos_dropped_copies", 0) > 0 for row in sim_rows)
    assert any(row.get("chaos_duplicates_injected", 0) > 0 for row in sim_rows)
    # ...with every injected duplicate suppressed exactly once.
    for row in sim_rows:
        assert row.get("chaos_duplicates_injected", 0) == row.get(
            "chaos_duplicates_suppressed", 0
        ), f"{row['scheme']} leaked a duplicate delivery"

    # The process row's kills were real and every victim respawned.
    process_rows = [row for row in gated if row["backend"] == "process"]
    for row in process_rows:
        assert row.get("worker_kills", 0) >= 1
        assert row.get("worker_respawns", 0) >= row.get("worker_kills", 0)

    # The degraded row exists and served stale-tagged views instead of raising.
    degraded = [row for row in rows if row.get("chaos_profile") == "degraded"]
    assert len(degraded) == 1
    assert degraded[0]["converged"]
    assert degraded[0]["stale_partitions"] >= 1
