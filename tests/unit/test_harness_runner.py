"""Unit tests of the one experiment runner (``repro.harness.runner``).

Each test hands :func:`run_experiment` a hand-built table entry over a short
link chain, so the row shapes, the censored "(budget exceeded)" rows and the
executor constructor are checked apart from any figure's workload.
"""

import pytest

from repro.data.batch import BatchPolicy
from repro.engine.strategy import ExecutionStrategy
from repro.fault import FaultTolerantExecutor, fault_tolerant_executor
from repro.harness import runner
from repro.harness.config import ExperimentConfig
from repro.harness.runner import (
    Experiment,
    Phase,
    Point,
    batch_policy_for,
    build_executor_for,
    run_experiment,
    strategy_for,
)
from repro.net.simulator import SimulatedNetwork
from repro.queries import link, reachability_plan

CHAIN = [link("A", "B"), link("B", "C"), link("C", "D"), link("D", "E")]
SMALL = ExperimentConfig(node_count=3)
#: Too few events for even the first phase over the chain to converge.
STARVED = ExperimentConfig(node_count=3, max_events=3)


def entry(*points, **fields):
    """A one-off table entry yielding ``points``."""
    fields.setdefault("schemes", ("Absorption Lazy",))
    return Experiment("test entry", lambda config: iter(points), **fields)


@pytest.fixture()
def built(monkeypatch):
    """Every executor the runner builds, in order, with its close count."""
    executors = []
    construct = runner.build_executor_for

    def recording(*args, **kwargs):
        executor = construct(*args, **kwargs)
        executor.closed = 0
        close = executor.close

        def counting_close():
            executor.closed += 1
            close()

        executor.close = counting_close
        executors.append(executor)
        return executor

    monkeypatch.setattr(runner, "build_executor_for", recording)
    return executors


def two_phases(**params):
    return [
        Phase("first", CHAIN[:2], params={"ratio": 0.5, "links": 2}, **params),
        Phase("second", CHAIN[2:], params={"ratio": 1.0, "links": 4}),
    ]


class TestRowShapes:
    def test_cumulative_rows_sum_from_the_point_start(self, built):
        rows = run_experiment("figure7", entry(Point(phases=two_phases()), rows="cumulative"), SMALL)
        first, second = built[0].metrics.phases
        assert [row["ratio"] for row in rows] == [0.5, 1.0]
        assert [row["links"] for row in rows] == [2, 4]
        assert rows[0]["communication_MB"] == round(first.communication_mb, 6)
        assert rows[1]["communication_MB"] == round(
            first.communication_mb + second.communication_mb, 6
        )
        assert rows[1]["convergence_time_s"] == round(
            first.convergence_time_s + second.convergence_time_s, 6
        )
        # State is a level, not a flow: each row reports its own phase's.
        assert rows[1]["state_MB"] == round(second.state_mb, 6)

    def test_phase_rows_report_each_phase_alone(self, built):
        rows = run_experiment("figure7", entry(Point(phases=two_phases()), rows="phase"), SMALL)
        first, second = built[0].metrics.phases
        assert rows[0]["communication_MB"] == round(first.communication_mb, 6)
        assert rows[1]["communication_MB"] == round(second.communication_mb, 6)
        assert rows[1]["convergence_time_s"] == round(second.convergence_time_s, 6)

    def test_point_row_sums_measured_phases_only(self, built):
        phases = [
            Phase("preload", CHAIN, params={"ignored": 1}, measured=False),
            Phase("delete", edge_deletes=CHAIN[:1], params={"ignored": 2}),
            Phase("reinsert", CHAIN[:1], params={"ignored": 3}),
        ]
        rows = run_experiment("figure13", entry(Point({"processors": 3}, phases)), SMALL)
        _, delete, reinsert = built[0].metrics.phases
        assert len(rows) == 1
        row = rows[0]
        assert row["processors"] == 3 and "ignored" not in row
        assert row["communication_MB"] == round(
            delete.communication_mb + reinsert.communication_mb, 6
        )
        assert row["convergence_time_s"] == round(
            delete.convergence_time_s + reinsert.convergence_time_s, 6
        )
        assert row["view_size"] == reinsert.view_size == 10
        assert row["converged"] is True

    def test_provenance_from_the_last_phase(self, built):
        point = Point(phases=[Phase("load", CHAIN), Phase("delete", edge_deletes=CHAIN[1:2])])
        rows = run_experiment("figure8", entry(point, provenance="last"), SMALL)
        last = built[0].metrics.phases[-1]
        assert rows[0]["per_tuple_provenance_B"] == round(last.per_tuple_provenance_bytes, 2)

    def test_provenance_from_the_run_mean(self, built):
        point = Point(phases=[Phase("load", CHAIN), Phase("delete", edge_deletes=CHAIN[1:2])])
        rows = run_experiment("figure8", entry(point, provenance="run"), SMALL)
        metrics = built[0].metrics
        assert rows[0]["per_tuple_provenance_B"] == round(
            metrics.mean_per_tuple_provenance_bytes, 2
        )
        assert metrics.mean_per_tuple_provenance_bytes != metrics.phases[-1].per_tuple_provenance_bytes

    def test_after_extras_replace_view_size_and_detail_rows_follow(self, built):
        def after(executor, phase, detail):
            detail.append({"detail": phase.label})
            return {"extra": phase.view_size}

        rows = run_experiment("figure7", entry(Point(phases=[Phase("load", CHAIN, after=after)])), SMALL)
        assert rows[0]["extra"] == 10 and "view_size" not in rows[0]
        assert rows[1] == {"detail": "load"}

    def test_callable_shape_builds_the_point_rows(self, built):
        seen = []

        def shape(executor, row):
            seen.append(executor)
            return [{**row, "view": len(executor.view_values())}]

        point = Point({"x": 1}, [Phase("load", CHAIN)])
        rows = run_experiment("ablation-test", entry(point, rows=shape), SMALL)
        assert seen == built
        assert rows == [{"figure": "ablation-test", "scheme": "Absorption Lazy", "x": 1, "view": 10}]


class TestRowColumns:
    @pytest.mark.parametrize("name, figure", [("figure7", "7"), ("churn", "churn")])
    def test_figure_column(self, name, figure, built):
        rows = run_experiment(name, entry(Point(phases=[Phase("load", CHAIN)])), SMALL)
        assert rows[0]["figure"] == figure

    def test_scheme_parameter_relabels_the_scheme_column(self, built):
        point = Point({"scheme": "Lazy Dense", "links": 4}, [Phase("load", CHAIN)])
        rows = run_experiment("figure11", entry(point), SMALL)
        assert list(rows[0])[:3] == ["figure", "scheme", "links"]
        assert rows[0]["scheme"] == "Lazy Dense"


class TestCensoredRows:
    def test_cumulative_row_names_the_axis_over_budget(self, built):
        point = Point(phases=two_phases())
        rows = run_experiment("figure7", entry(point, rows="cumulative"), STARVED)
        assert len(rows) == 1
        assert rows[0]["ratio"] == "(budget exceeded)"
        assert rows[0]["links"] == 2
        assert rows[0]["converged"] is False
        assert point.result is None
        assert built[0].closed == 1

    def test_unmeasured_phase_over_budget_keeps_its_label(self, built):
        preload = Phase("preload", CHAIN, params={"deletion_ratio": "preload"}, measured=False)
        delete = Phase("delete", edge_deletes=CHAIN[:1], params={"deletion_ratio": 0.5})
        rows = run_experiment("figure8", entry(Point(phases=[preload, delete]), rows="cumulative"), STARVED)
        assert [row["deletion_ratio"] for row in rows] == ["preload"]
        assert rows[0]["converged"] is False

    def test_point_row_over_budget_keeps_its_parameters(self, built):
        point = Point({"processors": 3}, [Phase("load", CHAIN, params={"ignored": 1})])
        rows = run_experiment("figure13", entry(point), STARVED)
        assert rows[0]["processors"] == 3 and "ignored" not in rows[0]
        assert rows[0]["converged"] is False
        for column in ("per_tuple_provenance_B", "communication_MB", "state_MB", "convergence_time_s"):
            assert column in rows[0]

    def test_later_points_see_the_cut(self, built):
        first = Point({"n": 1}, [Phase("load", CHAIN)])
        seen = []

        def points(config):
            yield first
            seen.append(first.result)

        run_experiment("figure7", Experiment("cut", points, ("DRed",)), STARVED)
        assert seen == [None]


class TestPoints:
    def test_result_holds_the_measured_phases(self, built):
        point = Point(
            phases=[
                Phase("preload", CHAIN, measured=False),
                Phase("delete", edge_deletes=CHAIN[:1]),
                Phase("reinsert", CHAIN[:1]),
            ]
        )
        run_experiment("figure8", entry(point), SMALL)
        assert [phase.label for phase in point.result] == ["delete", "reinsert"]

    def test_each_scheme_gets_its_own_executor_and_each_is_closed(self, built):
        schemes = ("DRed", "Absorption Eager", "Absorption Lazy")
        rows = run_experiment("figure7", entry(Point(phases=[Phase("load", CHAIN)]), schemes=schemes), SMALL)
        assert [row["scheme"] for row in rows] == list(schemes)
        assert [executor.strategy.label for executor in built] == list(schemes)
        assert len(set(map(id, built))) == 3
        assert [executor.closed for executor in built] == [1, 1, 1]

    def test_point_overrides_the_entry(self, built):
        point = Point(
            phases=[Phase("load", CHAIN)],
            plan=reachability_plan(max_hops=2),
            schemes=("DRed",),
            options={"node_count": 2},
        )
        rows = run_experiment("figure7", entry(point), SMALL)
        assert [row["scheme"] for row in rows] == ["DRed"]
        assert built[0].partitioner.node_count == 2
        # Paths of at most two hops over a four-link chain: 4 + 3 pairs.
        assert rows[0]["view_size"] == 7

    def test_step_runs_instead_of_phases(self, built):
        calls = []

        def step(config, scheme, row):
            calls.append((config, scheme))
            return {**row, "ok": True}

        point = Point({"backend": "sim"}, step=step)
        rows = run_experiment("chaos", entry(point, schemes=("DRed", "Absorption Lazy")), SMALL)
        assert built == []
        assert calls == [(SMALL, "DRed"), (SMALL, "Absorption Lazy")]
        assert rows == [
            {"figure": "chaos", "scheme": "DRed", "backend": "sim", "ok": True},
            {"figure": "chaos", "scheme": "Absorption Lazy", "backend": "sim", "ok": True},
        ]


class TestExecutorConstructor:
    @pytest.mark.parametrize(
        "batch_size, ports, policy",
        [
            (1, ("view",), BatchPolicy.tuple_at_a_time()),
            (8, None, BatchPolicy(max_batch=8)),
            (8, ("view", "purge"), BatchPolicy(max_batch=8, ports=frozenset({"view", "purge"}))),
        ],
    )
    def test_batch_policy_for(self, batch_size, ports, policy):
        config = ExperimentConfig(batch_size=batch_size, batch_ports=ports)
        assert batch_policy_for(config) == policy

    def test_strategy_for_forwards_the_gc_threshold(self):
        config = ExperimentConfig(bdd_gc_threshold=0.5)
        by_label = strategy_for("Absorption Lazy", config)
        by_object = strategy_for(ExecutionStrategy.absorption_eager(batch_size=5), config)
        assert by_label.store_options["gc_threshold"] == 0.5
        assert by_object.store_options["gc_threshold"] == 0.5
        assert by_object.label == "Absorption Eager"

    def test_config_knobs_reach_the_executor(self):
        config = ExperimentConfig(node_count=4, batch_size=1, max_events=1234)
        executor = build_executor_for(config, reachability_plan(), "DRed", "figure7")
        assert executor.partitioner.node_count == 4
        assert executor.batch_policy == BatchPolicy.tuple_at_a_time()
        assert executor.network.max_events == 1234
        assert executor.metrics.experiment == "figure7"

    def test_process_backend_falls_back_for_other_kinds(self, capsys):
        config = ExperimentConfig(node_count=3, backend="process", workers=2)
        executor = build_executor_for(
            config, reachability_plan(), "Absorption Lazy", "churn", kind=fault_tolerant_executor
        )
        assert isinstance(executor, FaultTolerantExecutor)
        assert type(executor.network) is SimulatedNetwork
        note = capsys.readouterr().err
        assert "falls back to the in-process backend" in note
        assert "fault_tolerant_executor" in note

    def test_sim_backend_builds_the_kind_without_a_note(self, capsys):
        executor = build_executor_for(
            SMALL, reachability_plan(), "Absorption Lazy", "churn", kind=fault_tolerant_executor
        )
        assert isinstance(executor, FaultTolerantExecutor)
        assert capsys.readouterr().err == ""
