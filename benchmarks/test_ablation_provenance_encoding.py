"""Ablation — provenance encoding: BDDs vs minimised sum-of-products.

The paper chooses reduced ordered BDDs as the physical encoding of absorption
provenance (Section 4.1); the alternative it mentions is normalising to
sum-of-products with explicit absorption.  This ablation materialises the
reachable view and compares the total and per-tuple encoded sizes of the two
representations of the *same* provenance.
"""

from benchmarks.conftest import report_figure, run_once
from repro.harness import run


def test_ablation_provenance_encoding(benchmark, experiment_config):
    rows = run_once(benchmark, run, "ablation-encoding", experiment_config)
    report_figure(rows, title="Ablation: absorption provenance encoding (BDD vs sum-of-products)")
    assert len(rows) == 2
    by_encoding = {row["encoding"]: row for row in rows}
    assert set(by_encoding) == {"BDD (reduced ordered)", "minimised sum-of-products"}
    assert all(row["tuples"] > 0 for row in rows)
