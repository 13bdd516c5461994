"""Unit tests for the harness CLI, report helpers and configuration."""

import pytest

from repro.harness.cli import EXPERIMENTS, main
from repro.harness.config import DEFAULT_CONFIG, PAPER_SCALE_CONFIG, QUICK_CONFIG
from repro.bdd import BDDManager
from repro.engine.metrics import KernelPhaseStats
from repro.harness.report import (
    format_kernel_stats,
    format_rows,
    print_figure,
    rows_to_csv,
)


class TestConfig:
    def test_default_scales_are_ordered(self):
        assert QUICK_CONFIG.nodes_per_stub <= DEFAULT_CONFIG.nodes_per_stub
        assert DEFAULT_CONFIG.nodes_per_stub <= PAPER_SCALE_CONFIG.nodes_per_stub
        assert PAPER_SCALE_CONFIG.link_budgets[-1] == 800

    def test_describe_mentions_processors(self):
        assert "processors" in DEFAULT_CONFIG.describe()


class TestReport:
    def test_format_rows_aligns_columns(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy", "c": 3.14159}]
        table = format_rows(rows)
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "3.142" in table

    def test_rows_to_csv_includes_all_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "a,b"

    def test_print_figure(self, capsys):
        print_figure([{"a": 1}], title="demo title")
        captured = capsys.readouterr().out
        assert "demo title" in captured


    def test_kernel_stats_from_a_manager_omit_the_phase_clock(self):
        # gc_stats() has no routing/operator/net keys: zeros there would be
        # measurements nobody took.
        line = format_kernel_stats(BDDManager().gc_stats(), label="bdd-kernel")
        assert line.startswith("bdd-kernel: table=2 peak=2 reclaimed=0 gc_passes=0 gc_pause=0.0000s")
        assert line.endswith("kernel=0.0000s")
        for absent in ("routing=", "operator=", "net="):
            assert absent not in line

    def test_kernel_stats_from_a_phase_row_render_every_bucket(self):
        row = KernelPhaseStats(
            table_size=10, peak_table_size=12, nodes_reclaimed=3, gc_passes=1,
            gc_pause_s=0.5, kernel_time_s=1.25, routing_time_s=0.125,
            operator_time_s=0.75, net_time_s=0.0625,
        ).as_row()
        assert format_kernel_stats(row) == (
            "table=10 peak=12 reclaimed=3 gc_passes=1 gc_pause=0.5000s "
            "kernel=1.2500s routing=0.1250s operator=0.7500s net=0.0625s"
        )


class TestCli:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure7" in output and "ablation-encoding" in output

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_registry_matches_drivers(self):
        assert set(EXPERIMENTS) >= {f"figure{n}" for n in range(7, 15)}
        for driver, description in EXPERIMENTS.values():
            assert callable(driver) and description

    def test_runs_quick_experiment_and_writes_csv(self, tmp_path, capsys):
        exit_code = main(["--quick", "--csv-dir", str(tmp_path), "ablation-encoding"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ablation-encoding" in output
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1
        assert "encoding" in written[0].read_text()


class TestBatchingFlags:
    def test_batch_size_override(self, monkeypatch, capsys):
        captured = {}

        def fake_driver(config):
            captured["config"] = config
            return [{"figure": "batch-throughput", "ok": 1}]

        monkeypatch.setitem(
            EXPERIMENTS, "batch-throughput", (fake_driver, "test stub")
        )
        assert main(["--quick", "--batch-size", "7", "batch-throughput"]) == 0
        assert captured["config"].batch_size == 7

    def test_no_batching_flag(self, monkeypatch):
        captured = {}

        def fake_driver(config):
            captured["config"] = config
            return [{"figure": "batch-throughput"}]

        monkeypatch.setitem(
            EXPERIMENTS, "batch-throughput", (fake_driver, "test stub")
        )
        assert main(["--quick", "--no-batching", "batch-throughput"]) == 0
        assert captured["config"].batch_size == 1
        assert "tuple-at-a-time" in captured["config"].describe()

    def test_batch_ports_parsed(self, monkeypatch):
        captured = {}

        def fake_driver(config):
            captured["config"] = config
            return [{"figure": "batch-throughput"}]

        monkeypatch.setitem(
            EXPERIMENTS, "batch-throughput", (fake_driver, "test stub")
        )
        assert main(["--quick", "--batch-ports", "view,purge", "batch-throughput"]) == 0
        assert captured["config"].batch_ports == ("view", "purge")

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(SystemExit):
            main(["--batch-size", "0", "figure7"])

    def test_registry_has_batch_throughput(self):
        assert "batch-throughput" in EXPERIMENTS

    def test_unknown_batch_port_rejected(self):
        with pytest.raises(SystemExit):
            main(["--quick", "--batch-ports", "veiw", "figure7"])


class TestElasticFlags:
    def test_registry_has_elastic(self):
        assert "elastic" in EXPERIMENTS

    def test_per_node_and_virtual_nodes_flags(self, monkeypatch):
        captured = {}

        def fake_driver(config):
            captured["config"] = config
            return [{"figure": "elastic"}]

        monkeypatch.setitem(EXPERIMENTS, "elastic", (fake_driver, "test stub"))
        assert main(["--quick", "--per-node", "--virtual-nodes", "16", "elastic"]) == 0
        assert captured["config"].per_node is True
        assert captured["config"].virtual_nodes == 16

    def test_per_node_defaults_off(self, monkeypatch):
        captured = {}

        def fake_driver(config):
            captured["config"] = config
            return [{"figure": "elastic"}]

        monkeypatch.setitem(EXPERIMENTS, "elastic", (fake_driver, "test stub"))
        assert main(["--quick", "elastic"]) == 0
        assert captured["config"].per_node is False

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(SystemExit):
            main(["--quick", "--virtual-nodes", "0", "elastic"])
