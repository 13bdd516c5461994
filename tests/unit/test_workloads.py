"""Unit tests for the workload generators (topologies, sensors, schedules)."""

import networkx as nx
import pytest

from repro.workloads import (
    SensorField,
    SensorWorkload,
    TransitStubConfig,
    UpdateSchedule,
    deletion_sample,
    generate_topology,
    insertion_prefix,
)
from repro.workloads.topology import (
    INTRA_STUB_LATENCY_MS,
    TRANSIT_STUB_LATENCY_MS,
    TRANSIT_TRANSIT_LATENCY_MS,
    topology_with_link_budget,
)


class TestTransitStubTopology:
    def test_node_count_matches_config(self):
        config = TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2)
        topology = generate_topology(config)
        assert len(topology.nodes) == config.node_count

    def test_connected(self):
        topology = generate_topology(TransitStubConfig(nodes_per_stub=3))
        graph = nx.Graph()
        graph.add_nodes_from(topology.nodes)
        graph.add_edges_from((u, v) for u, v, _ in topology.edges)
        assert nx.is_connected(graph)

    def test_deterministic_for_seed(self):
        first = generate_topology(TransitStubConfig(seed=3))
        second = generate_topology(TransitStubConfig(seed=3))
        assert first.edges == second.edges
        different = generate_topology(TransitStubConfig(seed=4))
        assert different.edges != first.edges

    def test_dense_has_more_links_than_sparse(self):
        dense = generate_topology(TransitStubConfig(dense=True))
        sparse = generate_topology(TransitStubConfig(dense=False))
        assert dense.directed_link_count > sparse.directed_link_count

    def test_latency_classes(self):
        topology = generate_topology(TransitStubConfig())
        latencies = {latency for _, _, latency in topology.edges}
        assert latencies <= {
            TRANSIT_TRANSIT_LATENCY_MS,
            TRANSIT_STUB_LATENCY_MS,
            INTRA_STUB_LATENCY_MS,
        }

    def test_link_tuples_are_bidirectional(self):
        topology = generate_topology(TransitStubConfig(nodes_per_stub=2))
        pairs = {(t["src"], t["dst"]) for t in topology.link_tuples()}
        assert all((dst, src) in pairs for src, dst in pairs)
        assert len(pairs) == topology.directed_link_count

    def test_cost_link_tuples_carry_latency(self):
        topology = generate_topology(TransitStubConfig(nodes_per_stub=2))
        costs = {t["cost"] for t in topology.cost_link_tuples()}
        assert costs <= {
            TRANSIT_TRANSIT_LATENCY_MS,
            TRANSIT_STUB_LATENCY_MS,
            INTRA_STUB_LATENCY_MS,
        }

    def test_link_budget_generator(self):
        topology = topology_with_link_budget(80, dense=True)
        assert topology.directed_link_count >= 60
        with pytest.raises(ValueError):
            topology_with_link_budget(4)

    def test_multiple_transit_domains(self):
        topology = generate_topology(TransitStubConfig(transit_domains=2, nodes_per_stub=2))
        graph = nx.Graph()
        graph.add_edges_from((u, v) for u, v, _ in topology.edges)
        assert nx.is_connected(graph)


class TestSensorField:
    def test_grid_layout(self):
        field = SensorField.grid(side_metres=30, spacing_metres=10, seed_groups=2)
        assert len(field.sensors) == 16  # 4 x 4 grid
        assert len(field.seed_sensors) == 2

    def test_neighbors_within_radius(self):
        field = SensorField.grid(side_metres=30, spacing_metres=10, proximity_radius=15)
        neighbors = field.neighbors_of("s0_0")
        assert "s0_1" in neighbors and "s1_0" in neighbors
        assert "s3_3" not in neighbors

    def test_seed_queries(self):
        field = SensorField.grid(side_metres=20, spacing_metres=10, seed_groups=1)
        seed_id = next(iter(field.seed_sensors))
        assert field.is_seed(seed_id)
        assert field.region_of_seed(seed_id) == field.seed_sensors[seed_id]
        non_seed = next(s for s in field.sensor_ids if s != seed_id)
        assert field.region_of_seed(non_seed) is None


class TestSensorWorkload:
    @pytest.fixture()
    def workload(self):
        return SensorWorkload(SensorField.grid(side_metres=30, spacing_metres=10, seed_groups=2))

    def test_trigger_produces_proximity_edges(self, workload):
        sensor = workload.field.sensor_ids[0]
        delta = workload.trigger(sensor)
        assert all(t["src"] == sensor for t in delta.proximity_inserts)
        assert len(delta.proximity_inserts) == len(workload.field.neighbors_of(sensor))

    def test_trigger_seed_produces_seed_tuple(self, workload):
        seed = next(iter(workload.field.seed_sensors))
        delta = workload.trigger(seed)
        assert len(delta.seed_inserts) == 1
        assert delta.seed_inserts[0]["region"] == workload.field.seed_sensors[seed]

    def test_double_trigger_is_noop(self, workload):
        sensor = workload.field.sensor_ids[0]
        workload.trigger(sensor)
        assert workload.trigger(sensor).is_empty

    def test_untrigger_reverses_trigger(self, workload):
        sensor = workload.field.sensor_ids[0]
        inserted = workload.trigger(sensor)
        deleted = workload.untrigger(sensor)
        assert set(inserted.proximity_inserts) == set(deleted.proximity_deletes)
        assert workload.untrigger(sensor).is_empty

    def test_live_state_tracking(self, workload):
        seed = next(iter(workload.field.seed_sensors))
        workload.trigger(seed)
        assert seed in workload.live_seeds()
        assert all(src == seed for src, _ in workload.live_proximity_pairs())
        regions = workload.expected_regions()
        assert workload.field.seed_sensors[seed] in regions

    def test_trigger_many_merges(self, workload):
        sensors = workload.field.sensor_ids[:3]
        delta = workload.trigger_many(sensors)
        assert len({t["src"] for t in delta.proximity_inserts}) <= 3


class TestUpdateSchedules:
    def test_insertion_prefix(self):
        from repro.queries import link

        links = [link(str(i), str(i + 1)) for i in range(10)]
        assert insertion_prefix(links, 0.5) == links[:5]
        assert insertion_prefix(links, 1.0) == links
        with pytest.raises(ValueError):
            insertion_prefix(links, 1.5)

    def test_deletion_sample_deterministic(self):
        from repro.queries import link

        links = [link(str(i), str(i + 1)) for i in range(20)]
        first = deletion_sample(links, 0.3, seed=1)
        second = deletion_sample(links, 0.3, seed=1)
        assert first == second
        assert len(first) == 6
        assert deletion_sample(links, 0.3, seed=2) != first

    def test_staged_insertions(self):
        from repro.queries import link

        links = [link(str(i), str(i + 1)) for i in range(10)]
        schedule = UpdateSchedule.staged_insertions(links, [0.5, 1.0])
        assert schedule.total_insertions == 10
        assert len(schedule.insert_batches[0]) == 5
        with pytest.raises(ValueError):
            UpdateSchedule.staged_insertions(links, [1.0, 0.5])

    def test_insert_then_delete(self):
        from repro.queries import link

        links = [link(str(i), str(i + 1)) for i in range(10)]
        schedule = UpdateSchedule.insert_then_delete(links, 1.0, [0.2, 0.4])
        assert schedule.total_insertions == 10
        assert schedule.total_deletions == 4

    def test_staged_deletions(self):
        order = [f"s{i}" for i in range(8)]
        schedule = UpdateSchedule.staged_deletions(order, [0.5, 1.0])
        assert schedule.insert_batches == ()
        assert schedule.delete_batches == (tuple(order[:4]), tuple(order[4:]))
        with pytest.raises(ValueError):
            UpdateSchedule.staged_deletions(order, [1.0, 0.5])


class TestHotspotWorkload:
    def test_deterministic_in_seed(self):
        from repro.workloads.hotspot import generate_hotspot

        first = generate_hotspot(seed=11)
        second = generate_hotspot(seed=11)
        assert first.pairs == second.pairs
        assert generate_hotspot(seed=12).pairs != first.pairs

    def test_bias_concentrates_links_on_hubs(self):
        from repro.workloads.hotspot import generate_hotspot

        hot = generate_hotspot(spokes=12, hubs=2, hub_bias=0.9, extra_links=40, seed=3)
        cold = generate_hotspot(spokes=12, hubs=2, hub_bias=0.1, extra_links=40, seed=3)
        assert hot.hub_fraction > cold.hub_fraction

    def test_link_tuples_match_pairs_and_are_unique(self):
        from repro.workloads.hotspot import generate_hotspot

        workload = generate_hotspot(seed=7)
        tuples = workload.link_tuples()
        assert len(tuples) == len(set(tuples)) == len(workload.pairs)
        assert [(t["src"], t["dst"]) for t in tuples] == list(workload.pairs)
        assert all(src != dst for src, dst in workload.pairs)

    def test_graph_is_connected_through_hubs(self):
        from repro.baselines import reachable_pairs
        from repro.workloads.hotspot import generate_hotspot

        workload = generate_hotspot(spokes=6, hubs=2, extra_links=10, seed=5)
        truth = reachable_pairs(workload.edge_pairs())
        # Every hub reaches at least one spoke and vice versa.
        assert any((workload.hubs[0], spoke) in truth for spoke in workload.spokes)

    def test_invalid_parameters_rejected(self):
        import pytest

        from repro.workloads.hotspot import generate_hotspot

        with pytest.raises(ValueError):
            generate_hotspot(spokes=1)
        with pytest.raises(ValueError):
            generate_hotspot(hubs=0)
        with pytest.raises(ValueError):
            generate_hotspot(hub_bias=1.5)
        with pytest.raises(ValueError):
            generate_hotspot(extra_links=-1)
