"""Churn — node crashes mid-insertion-stream, recovery-policy comparison.

Runs the insertion workload three times: failure-free, then with a seeded
crash/recover cycle recovered by *checkpoint+replay* (restore the latest
checkpoint, replay the write-ahead-log suffix, redeliver held messages) and
by *provenance-purge* (absorb the dead node's base tuples as deletions via
the paper's zero-out-the-variable path, then reseed the cold node from its
peers).  Both recovered runs must converge to the exact networkx ground
truth; the table reports what each policy pays for it in convergence time
and bytes shipped relative to the failure-free run.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_churn_recovery_policies(benchmark, experiment_config):
    rows = run_once(benchmark, run, "churn", experiment_config)
    report_figure(rows, title="Churn: crash mid-insertion-stream, per recovery policy")
    assert rows, "the experiment produced no rows"
    by_policy = {row["policy"]: row for row in rows}
    assert {"no-failure", "checkpoint-replay", "provenance-purge"} <= set(by_policy)

    for policy, row in by_policy.items():
        assert row["converged"], f"{policy} did not converge"
        assert row["view_correct"], f"{policy} diverged from the ground truth"

    # Recovering from a crash can only cost extra traffic, never less.
    baseline = by_policy["no-failure"]["communication_MB"]
    for policy in ("checkpoint-replay", "provenance-purge"):
        assert by_policy[policy]["communication_MB"] >= baseline * 0.99
