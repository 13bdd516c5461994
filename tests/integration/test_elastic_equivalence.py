"""Integration tests: equivalence of elastic and static clusters.

The elastic placement subsystem's contract (the acceptance criterion of the
subsystem): a workload interleaved with ``add_node`` / ``remove_node`` /
``rebalance`` calls — including placement changes scheduled *mid-stream*,
while update batches are in flight under the superseded epoch — converges to
exactly the same view (and, under eager shipping, exactly the same absorbed
provenance) as the same workload on a static cluster.  Nothing is lost and
nothing is duplicated: stale-epoch batches are forwarded to the current
owner, never dropped.
"""

import pytest

from repro.baselines import reachable_pairs
from repro.bdd.expr import BoolExpr
from repro.bdd.manager import BDD
from repro.placement import (
    ElasticExecutor,
    LoadAwareRebalancer,
    PlacementError,
    elastic_executor,
)
from repro.queries import build_executor, link, reachability_plan, region_plan
from repro.workloads.hotspot import generate_hotspot


def _canonical(annotation):
    """Manager-independent canonical form (minimal witness products)."""
    if isinstance(annotation, BDD):
        return BoolExpr.from_products(set(annotation.iter_products()))
    return annotation


def _annotations(executor):
    """tuple -> canonical annotation over the whole cluster (owners must be unique)."""
    captured = {}
    for node in executor.nodes:
        for tuple_ in node.fixpoint.view_tuples():
            assert tuple_ not in captured, (
                f"{tuple_} is materialised on two nodes — duplicated state"
            )
            captured[tuple_] = _canonical(node.fixpoint.annotation_of(tuple_))
    return captured


def _workload():
    workload = generate_hotspot(spokes=10, hubs=2, extra_links=20, seed=5)
    links = workload.link_tuples()
    return workload, links, links[::3]


class TestInterleavedElasticityEquivalence:
    """add/remove/rebalance between phases: bit-equivalent end state."""

    @pytest.mark.parametrize("scheme", ["Absorption Eager", "Absorption Lazy", "DRed"])
    def test_view_matches_ground_truth_under_elasticity(self, scheme):
        workload, links, deletions = _workload()
        executor = elastic_executor(reachability_plan(), scheme, node_count=4)
        third = len(links) // 3
        executor.insert_edges(links[:third])
        executor.add_node()
        executor.insert_edges(links[third : 2 * third])
        executor.remove_node(1)
        executor.insert_edges(links[2 * third :])
        assert executor.view_values() == reachable_pairs(workload.edge_pairs())
        executor.delete_edges(deletions)
        remaining = [l for l in links if l not in set(deletions)]
        assert executor.view_values() == reachable_pairs(
            (l["src"], l["dst"]) for l in remaining
        )
        stats = executor.placement_stats()
        assert stats["moved_state_bytes"] > 0
        assert stats["epoch"] == 2

    def test_provenance_identical_to_static_run_under_eager(self):
        _, links, deletions = _workload()
        elastic = elastic_executor(reachability_plan(), "Absorption Eager", node_count=4)
        static = build_executor(reachability_plan(), "Absorption Eager", node_count=4)
        half = len(links) // 2
        elastic.insert_edges(links[:half])
        elastic.add_node()
        elastic.add_node()
        elastic.insert_edges(links[half:])
        elastic.remove_node(0)
        elastic.delete_edges(deletions)
        static.insert_edges(links)
        static.delete_edges(deletions)
        assert elastic.view_values() == static.view_values()
        elastic_pv, static_pv = _annotations(elastic), _annotations(static)
        assert set(elastic_pv) == set(static_pv), "lost or phantom view tuples"
        for tuple_, annotation in elastic_pv.items():
            assert annotation == static_pv[tuple_], (
                f"absorbed provenance diverged for {tuple_}"
            )


class TestMidStreamScaling:
    """Scheduled placement changes while batches are in flight."""

    def test_stale_epoch_batches_are_forwarded_not_dropped(self):
        workload, links, deletions = _workload()
        probe = elastic_executor(reachability_plan(), "Absorption Eager", node_count=4)
        horizon = probe.insert_edges(links).convergence_time_s

        executor = elastic_executor(
            reachability_plan(), "Absorption Eager", node_count=4
        )
        executor.schedule_add_node(horizon * 0.2)
        executor.schedule_add_node(horizon * 0.5)
        executor.schedule_remove_node(2, horizon * 0.8)
        executor.insert_edges(links)
        assert executor.view_values() == reachable_pairs(workload.edge_pairs())
        stats = executor.placement_stats()
        # The scheduled changes genuinely interleaved with the stream: some
        # batches were routed under a superseded epoch and bounced onward.
        assert stats["misrouted_batches"] > 0
        assert stats["misrouted_updates"] > 0
        assert stats["epoch"] == 3

        # ... and deletions after the churn still converge exactly.
        executor.remove_node(4)
        executor.delete_edges(deletions)
        remaining = [l for l in links if l not in set(deletions)]
        assert executor.view_values() == reachable_pairs(
            (l["src"], l["dst"]) for l in remaining
        )

    def test_mid_stream_provenance_equivalence_under_eager(self):
        _, links, deletions = _workload()
        probe = elastic_executor(reachability_plan(), "Absorption Eager", node_count=4)
        horizon = probe.insert_edges(links).convergence_time_s

        elastic = elastic_executor(reachability_plan(), "Absorption Eager", node_count=4)
        elastic.schedule_add_node(horizon * 0.3)
        elastic.insert_edges(links)
        elastic.delete_edges(deletions)
        static = build_executor(reachability_plan(), "Absorption Eager", node_count=4)
        static.insert_edges(links)
        static.delete_edges(deletions)
        elastic_pv, static_pv = _annotations(elastic), _annotations(static)
        assert elastic_pv == static_pv

    def test_dred_scaling_during_deletion_phases(self):
        workload, links, deletions = _workload()
        executor = elastic_executor(reachability_plan(), "DRed", node_count=4)
        executor.insert_edges(links)
        probe_horizon = executor.network.now
        executor.schedule_add_node(probe_horizon * 1.2)
        executor.delete_edges(deletions)
        remaining = [l for l in links if l not in set(deletions)]
        assert executor.view_values() == reachable_pairs(
            (l["src"], l["dst"]) for l in remaining
        )


class TestElasticExecutorApi:
    def test_scale_out_and_back_in(self):
        workload, links, _ = _workload()
        executor = elastic_executor(reachability_plan(), "Absorption Lazy", node_count=3)
        executor.insert_edges(links)
        added = [executor.add_node() for _ in range(3)]
        assert executor.placement.node_count == 6
        for node_id in added:
            executor.remove_node(node_id)
        assert executor.placement.node_count == 3
        assert executor.view_values() == reachable_pairs(workload.edge_pairs())
        # Decommissioned nodes hold no state afterwards.
        for node_id in added:
            assert not executor.network.is_active(node_id)
            assert executor.nodes[node_id].state_bytes() == 0

    def test_rebalance_reacts_to_hotspot_skew(self):
        _, links, _ = _workload()
        executor = elastic_executor(
            reachability_plan(),
            "Absorption Lazy",
            node_count=4,
            rebalancer=LoadAwareRebalancer(imbalance_threshold=1.05),
        )
        executor.insert_edges(links)
        loads = executor.node_loads()
        assert len(loads) == 4
        report = executor.rebalance()
        if report is not None:  # the seeded hotspot skews heavily; expect a move
            assert report.moved_state_bytes > 0
            assert executor.placement.epoch == 1
        assert executor.view_values() == reachable_pairs(
            (src, dst) for src, dst in generate_hotspot(
                spokes=10, hubs=2, extra_links=20, seed=5
            ).edge_pairs()
        )

    def test_remove_validations(self):
        executor = elastic_executor(reachability_plan(), "Absorption Lazy", node_count=2)
        with pytest.raises(PlacementError):
            executor.remove_node(9)
        executor.remove_node(1)
        with pytest.raises(PlacementError):
            executor.remove_node(1)  # already decommissioned
        with pytest.raises(PlacementError):
            executor.remove_node(0)  # cannot remove the last node

    def test_aggregate_selection_plans_rejected(self):
        from repro.queries.shortest_path import AGGSEL_MULTI, shortest_path_plan

        with pytest.raises(PlacementError):
            elastic_executor(
                shortest_path_plan(aggregate_selection=AGGSEL_MULTI), "Absorption Lazy"
            )

    def test_region_plan_with_seeds_supported(self):
        # Seeds exercise the PORT_SEED ownership path (the region query's
        # base case comes from seed tuples, not edges).
        from repro.workloads.sensors import SensorField, SensorWorkload

        field = SensorField.grid(
            side_metres=30.0,
            spacing_metres=10.0,
            proximity_radius=15.0,
            seed_groups=2,
            rng_seed=3,
        )
        workload = SensorWorkload(field)
        delta = workload.trigger_many(list(field.sensor_ids))
        executor = elastic_executor(region_plan(), "Absorption Lazy", node_count=3)
        static = build_executor(region_plan(), "Absorption Lazy", node_count=3)
        half = len(delta.proximity_inserts) // 2
        executor.apply_mixed(
            edge_inserts=delta.proximity_inserts[:half],
            seed_inserts=delta.seed_inserts,
        )
        executor.add_node()
        executor.apply_mixed(edge_inserts=delta.proximity_inserts[half:])
        static.apply_mixed(
            edge_inserts=delta.proximity_inserts,
            seed_inserts=delta.seed_inserts,
        )
        assert executor.view_values() == static.view_values()


def test_harness_elastic_experiment_reports_required_metrics():
    from repro.harness.config import QUICK_CONFIG
    from repro.harness import run

    rows = run("elastic", QUICK_CONFIG)
    by_phase = {row["phase"]: row for row in rows if "phase" in row}
    assert {"static", "scale-out", "scale-in"} <= set(by_phase)
    for phase in ("scale-out", "scale-in"):
        row = by_phase[phase]
        assert row["converged"] and row["view_correct"]
        assert "moved_state_KB" in row and "misrouted_batches" in row
    assert by_phase["scale-out"]["moved_state_KB"] > 0
