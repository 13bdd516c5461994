"""Unit tests for the harness CLI, report helpers and configuration."""

import pytest

from repro.harness import EXPERIMENTS
from repro.harness.cli import main
from repro.harness.config import DEFAULT_CONFIG, PAPER_SCALE_CONFIG, QUICK_CONFIG
from repro.harness.report import format_rows, rows_to_csv


@pytest.fixture()
def captured_config(monkeypatch):
    """Replace the runner the CLI calls; returns the configs it was handed."""
    configs = []

    def fake_run(name, config):
        configs.append(config)
        return [{"figure": name, "ok": 1}]

    monkeypatch.setattr("repro.harness.cli.run", fake_run)
    return configs


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
        for entry in EXPERIMENTS.values():
            assert callable(entry.points) and entry.description
            assert entry.rows in ("cumulative", "phase", "point") or callable(entry.rows)
            assert entry.provenance in ("run", "last")

    def test_all_runs_every_entry_in_table_order(self, captured_config, capsys):
        assert main(["--quick", "all"]) == 0
        output = capsys.readouterr().out
        titles = [f"{name}: {entry.description}" for name, entry in EXPERIMENTS.items()]
        positions = [output.index(title) for title in titles]
        assert positions == sorted(positions)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--churn-downtime", "1.5"], "--churn-downtime must be a fraction within (0, 1)"),
            (["--churn-cycles", "-1"], "--churn-cycles must be >= 0"),
            (["--checkpoint-interval", "-3"], "--checkpoint-interval must be >= 0"),
        ],
    )
    def test_malformed_churn_flags_end_in_one_line(self, flags, message, captured_config):
        with pytest.raises(SystemExit) as exit_info:
            main(["--quick", *flags, "churn"])
        assert str(exit_info.value).startswith(message)
        assert captured_config == []

    @pytest.mark.parametrize("downtime", ["0", "1"])
    def test_churn_downtime_interval_is_open(self, downtime, captured_config):
        with pytest.raises(SystemExit) as exit_info:
            main(["--quick", "--churn-downtime", downtime, "churn"])
        assert str(exit_info.value).startswith("--churn-downtime must be a fraction")
        assert captured_config == []

    def test_churn_flags_reach_the_config(self, captured_config):
        flags = ["--churn-cycles", "0", "--churn-downtime", "0.5", "--checkpoint-interval", "0"]
        assert main(["--quick", *flags, "churn"]) == 0
        config = captured_config[0]
        assert config.churn_cycles == 0
        assert config.churn_downtime == 0.5
        assert config.churn_checkpoint_interval == 0

    def test_runs_quick_experiment_and_writes_csv(self, tmp_path, capsys):
        exit_code = main(["--quick", "--csv-dir", str(tmp_path), "ablation-encoding"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ablation-encoding" in output
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1
        assert "encoding" in written[0].read_text()


class TestBatchingFlags:
    def test_batch_size_override(self, captured_config):
        assert main(["--quick", "--batch-size", "7", "batch-throughput"]) == 0
        assert captured_config[0].batch_size == 7

    def test_no_batching_flag(self, captured_config):
        assert main(["--quick", "--no-batching", "batch-throughput"]) == 0
        assert captured_config[0].batch_size == 1
        assert "tuple-at-a-time" in captured_config[0].describe()

    def test_batch_ports_parsed(self, captured_config):
        assert main(["--quick", "--batch-ports", "view,purge", "batch-throughput"]) == 0
        assert captured_config[0].batch_ports == ("view", "purge")

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

    def test_per_node_and_virtual_nodes_flags(self, captured_config):
        assert main(["--quick", "--per-node", "--virtual-nodes", "16", "elastic"]) == 0
        assert captured_config[0].per_node is True
        assert captured_config[0].virtual_nodes == 16

    def test_per_node_defaults_off(self, captured_config):
        assert main(["--quick", "elastic"]) == 0
        assert captured_config[0].per_node is False

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(SystemExit):
            main(["--quick", "--virtual-nodes", "0", "elastic"])
