"""Smoke tests of the experiment harness and report formatting.

The full per-figure sweeps live in ``benchmarks/``; these tests check that
the table's entries produce well-formed rows at the smallest scale, that the
one runner hands every configuration knob to every executor it builds, and
that the report helpers render the rows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.batch import BatchPolicy
from repro.engine.executor import DistributedViewExecutor
from repro.harness import EXPERIMENTS, format_rows, rows_to_csv, run
from repro.harness.config import QUICK_CONFIG, ExperimentConfig

METRIC_COLUMNS = {"per_tuple_provenance_B", "communication_MB", "state_MB", "convergence_time_s"}

#: The smallest workloads every entry accepts, with both knobs off their
#: defaults so an entry that ignores them is caught.
TINY_KNOBS = ExperimentConfig(
    node_count=3,
    nodes_per_stub=1,
    stubs_per_transit=1,
    insertion_ratios=(1.0,),
    deletion_ratios=(1.0,),
    link_budgets=(20,),
    processor_counts=(3,),
    sensor_field_side=20.0,
    hotspot_spokes=4,
    hotspot_extra_links=4,
    chaos_links=12,
    # Relative Eager on figure 7 blows up even here: cut it off early.
    max_events=100_000,
    max_wall_seconds=3.0,
    batch_size=1,
    bdd_gc_threshold=0.5,
)


def test_figure13_entry_produces_rows_per_processor_count():
    config = ExperimentConfig(
        node_count=4,
        nodes_per_stub=2,
        stubs_per_transit=2,
        processor_counts=(2, 4),
        max_wall_seconds=60.0,
    )
    rows = run("figure13", config)
    assert {row["processors"] for row in rows} == {2, 4}
    assert {row["scheme"] for row in rows} == {"DRed", "Absorption Lazy"}
    for row in rows:
        assert METRIC_COLUMNS <= set(row)
        assert row["converged"]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_built_executor_takes_the_config_knobs(name, monkeypatch):
    built = []
    construct = DistributedViewExecutor.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(DistributedViewExecutor, "__init__", recording)
    assert run(name, TINY_KNOBS)
    assert built
    for executor in built:
        assert executor.batch_policy == BatchPolicy.tuple_at_a_time(), executor
        if executor.strategy.provenance_kind == "absorption":
            assert executor.strategy.store_options["gc_threshold"] == 0.5, executor


def test_rows_do_not_depend_on_the_hash_seed():
    # DRed re-derives per owner in policy-sized chunks; a small batch size
    # makes that chunking depend on the order the live edges come out in.
    script = (
        "import json\n"
        "from repro.harness import run\n"
        "from repro.harness.config import ExperimentConfig\n"
        "config = ExperimentConfig(node_count=4, nodes_per_stub=2, stubs_per_transit=2,\n"
        "                          processor_counts=(2, 4), batch_size=4)\n"
        "print(json.dumps(run('figure13', config)))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        for seed in ("1", "2")
    ]
    assert json.loads(outputs[0])
    assert outputs[0] == outputs[1]


def test_provenance_encoding_ablation_rows():
    rows = run("ablation-encoding", QUICK_CONFIG)
    assert len(rows) == 2
    assert all(row["mean_per_tuple_B"] > 0 for row in rows)


def test_centralized_ablation_views_agree():
    rows = run("ablation-centralized", QUICK_CONFIG)
    assert len({row["view_size"] for row in rows}) == 1


def test_report_formatting_roundtrip():
    rows = [
        {"scheme": "DRed", "communication_MB": 1.5, "converged": True},
        {"scheme": "Absorption Lazy", "communication_MB": 0.25, "converged": True},
    ]
    table = format_rows(rows, title="demo")
    assert "demo" in table and "Absorption Lazy" in table
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "scheme,communication_MB,converged"
    assert format_rows([]) == "(no rows)"
    assert rows_to_csv([]) == ""
