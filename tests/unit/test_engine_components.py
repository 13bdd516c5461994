"""Unit tests for engine-level components: strategies, plans, metrics, queries, baselines."""

import math

import pytest

from repro.baselines import CentralizedRecursiveEvaluator
from repro.baselines.networkx_ref import (
    cheapest_path_costs,
    connected_regions,
    fewest_hop_counts,
    reachable_pairs,
    region_sizes_reference,
)
from repro.engine.metrics import ExperimentMetrics, PhaseMetrics
from repro.engine.plan import PlanError, RecursiveViewPlan
from repro.engine.strategy import ExecutionStrategy
from repro.operators.ship import ShipMode
from repro.provenance import AbsorptionProvenanceStore, RelativeProvenanceStore
from repro.provenance.tracker import NullProvenanceStore
from repro.queries import (
    link,
    reachability_plan,
    reachable,
    region_plan,
    shortest_path_plan,
)
from repro.queries.reachability import BOUNDED_REACHABLE_SCHEMA, LINK_SCHEMA, REACHABLE_SCHEMA
from repro.queries.regions import active_region, largest_regions, proximity, region_sizes
from repro.queries.shortest_path import (
    cost_link,
    fewest_hop_paths,
    min_costs,
    min_hops,
    path_tuple,
    shortest_cheapest_paths,
)


class TestExecutionStrategy:
    def test_factory_labels(self):
        assert ExecutionStrategy.dred().label == "DRed"
        assert ExecutionStrategy.absorption_lazy().label == "Absorption Lazy"
        assert ExecutionStrategy.relative_eager().label == "Relative Eager"

    def test_by_name_roundtrip(self):
        for label in ["DRed", "Absorption Eager", "Absorption Lazy", "Relative Eager", "Relative Lazy"]:
            assert ExecutionStrategy.by_name(label).label == label
        with pytest.raises(ValueError):
            ExecutionStrategy.by_name("Magic")

    def test_store_creation_matches_kind(self):
        assert isinstance(ExecutionStrategy.dred().create_store(), NullProvenanceStore)
        assert isinstance(
            ExecutionStrategy.absorption_lazy().create_store(), AbsorptionProvenanceStore
        )
        assert isinstance(
            ExecutionStrategy.relative_lazy().create_store(), RelativeProvenanceStore
        )

    def test_flags(self):
        assert ExecutionStrategy.dred().uses_dred
        assert not ExecutionStrategy.dred().uses_provenance
        assert ExecutionStrategy.absorption_eager().ship_mode is ShipMode.EAGER
        assert ExecutionStrategy.absorption_lazy().uses_provenance


class TestRecursiveViewPlan:
    def test_reachability_plan_shape(self):
        plan = reachability_plan()
        assert plan.edge_schema is LINK_SCHEMA
        assert plan.result_schema is REACHABLE_SCHEMA
        assert plan.base_tuple_for(link("A", "B")) == reachable("A", "B")
        assert plan.combine(link("A", "B"), reachable("B", "C")) == reachable("A", "C")
        assert not plan.has_aggregate_selection

    def test_bounded_reachability_plan(self):
        plan = reachability_plan(max_hops=2)
        base = plan.base_tuple_for(link("A", "B"))
        assert base.schema is BOUNDED_REACHABLE_SCHEMA and base["hops"] == 1
        one_hop = plan.combine(link("X", "A"), base)
        assert one_hop["hops"] == 2
        assert plan.combine(link("Y", "X"), one_hop) is None
        with pytest.raises(ValueError):
            reachability_plan(max_hops=0)

    def test_plan_validation(self):
        with pytest.raises(PlanError):
            RecursiveViewPlan(
                name="bad",
                edge_schema=LINK_SCHEMA,
                result_schema=REACHABLE_SCHEMA,
                edge_join_attribute="nope",
                result_join_attribute="src",
                make_base=None,
                combine=lambda e, v: None,
            )
        with pytest.raises(PlanError):
            RecursiveViewPlan(
                name="bad",
                edge_schema=LINK_SCHEMA,
                result_schema=REACHABLE_SCHEMA,
                edge_join_attribute="dst",
                result_join_attribute="dst",  # not the partition attribute
                make_base=None,
                combine=lambda e, v: None,
            )

    def test_shortest_path_combine_guards(self):
        plan = shortest_path_plan(max_hops=2)
        base = plan.base_tuple_for(cost_link("B", "C", 1.0))
        assert base["vec"] == ("B", "C")
        extended = plan.combine(cost_link("A", "B", 2.0), base)
        assert extended["cost"] == 3.0 and extended["length"] == 2
        # cycle guard: A already on the path
        assert plan.combine(cost_link("C", "A", 1.0), extended) is None or True
        cyclic = plan.combine(cost_link("B", "A", 1.0), base)
        assert cyclic is None
        # hop bound
        assert plan.combine(cost_link("Z", "A", 1.0), extended) is None

    def test_region_plan_combine(self):
        plan = region_plan()
        assert plan.make_base is None
        derived = plan.combine(proximity("s1", "s2"), active_region("s1", "r1"))
        assert derived == active_region("s2", "r1")


class TestQueryPostProcessing:
    def _paths(self):
        return [
            path_tuple("A", "B", ("A", "B"), 5.0, 1),
            path_tuple("A", "B", ("A", "C", "B"), 3.0, 2),
            path_tuple("A", "C", ("A", "C"), 1.0, 1),
        ]

    def test_min_costs_and_hops(self):
        paths = self._paths()
        assert min_costs(paths)[("A", "B")] == 3.0
        assert min_hops(paths)[("A", "B")] == 1

    def test_cheapest_and_fewest(self):
        paths = self._paths()
        assert {p["vec"] for p in fewest_hop_paths(paths) if p["dst"] == "B"} == {("A", "B")}
        best = shortest_cheapest_paths(paths)
        ab = next(t for t in best if t["dst"] == "B")
        assert ab["cheapest_vec"] == ("A", "C", "B")
        assert ab["fewest_vec"] == ("A", "B")

    def test_region_aggregates(self):
        memberships = [
            active_region("s1", "r1"),
            active_region("s2", "r1"),
            active_region("s3", "r2"),
        ]
        assert region_sizes(memberships) == {"r1": 2, "r2": 1}
        assert largest_regions(memberships) == ["r1"]
        assert largest_regions([]) == []


class TestMetricsContainers:
    def test_experiment_metrics_aggregation(self):
        metrics = ExperimentMetrics(experiment="fig", scheme="Absorption Lazy")
        metrics.add_phase(PhaseMetrics("a", 10.0, 1.0, 0.5, 2.0, updates_shipped=10))
        metrics.add_phase(PhaseMetrics("b", 30.0, 2.0, 0.7, 3.0, updates_shipped=10))
        assert metrics.total_communication_mb == 3.0
        assert metrics.total_convergence_time_s == 5.0
        assert metrics.final_state_mb == 0.7
        assert metrics.mean_per_tuple_provenance_bytes == 20.0
        assert metrics.phase("a").label == "a"
        assert metrics.phase("missing") is None


class TestNetworkxBaselines:
    def test_reachable_pairs_includes_cycles(self):
        pairs = reachable_pairs([("a", "b"), ("b", "a"), ("b", "c")])
        assert ("a", "a") in pairs and ("b", "b") in pairs
        assert ("c", "c") not in pairs
        assert ("a", "c") in pairs

    def test_cheapest_path_costs(self):
        costs = cheapest_path_costs([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 10.0)])
        assert costs[("a", "c")] == 3.0

    def test_fewest_hops(self):
        hops = fewest_hop_counts([("a", "b"), ("b", "c"), ("a", "c")])
        assert hops[("a", "c")] == 1

    def test_connected_regions(self):
        regions = connected_regions({"s1": "r1"}, [("s1", "s2"), ("s2", "s3"), ("s9", "s8")])
        assert regions == {"r1": {"s1", "s2", "s3"}}
        assert region_sizes_reference({"s1": "r1"}, [("s1", "s2")]) == {"r1": 2}

    def test_centralized_evaluator_matches_networkx(self):
        links = [link("a", "b"), link("b", "c"), link("c", "a")]
        evaluator = CentralizedRecursiveEvaluator(reachability_plan())
        values = evaluator.evaluate_values(links)
        assert values == reachable_pairs([("a", "b"), ("b", "c"), ("c", "a")])
        assert evaluator.iterations > 0

    def test_centralized_evaluator_with_seeds(self):
        plan = region_plan()
        evaluator = CentralizedRecursiveEvaluator(plan)
        view = evaluator.evaluate(
            [proximity("s1", "s2")], seeds=[active_region("s1", "r1")]
        )
        assert active_region("s2", "r1") in view
