"""Unit tests for the simulated network, latency models, partitioning and stats."""

import pytest

from repro.data.tuples import make_schema
from repro.data.update import insert
from repro.net import (
    ClusterLatencyModel,
    HashPartitioner,
    Message,
    NetworkStats,
    SimulatedNetwork,
    UniformLatencyModel,
)
from repro.net.simulator import SimulationBudgetExceeded, SimulationError

SCHEMA = make_schema("link", ["src", "dst"])


def _update(src="A", dst="B"):
    return insert(SCHEMA.tuple(src, dst))


class TestLatencyModels:
    def test_uniform(self):
        model = UniformLatencyModel(delay=0.005)
        assert model(0, 0) == 0.0
        assert model(0, 1) == 0.005

    def test_cluster_model(self):
        model = ClusterLatencyModel(primary_cluster_size=4, intra_cluster_delay=0.001,
                                    inter_cluster_delay=0.02)
        assert model(0, 3) == 0.001
        assert model(4, 5) == 0.001
        assert model(0, 4) == 0.02
        assert model(5, 1) == 0.02
        assert model(2, 2) == 0.0


class TestHashPartitioner:
    def test_deterministic(self):
        partitioner = HashPartitioner(8)
        assert partitioner("x") == partitioner("x")
        assert 0 <= partitioner("x") < 8

    def test_overrides(self):
        partitioner = HashPartitioner.identity(3, {"A": 0, "B": 1})
        assert partitioner("A") == 0 and partitioner("B") == 1
        partitioner.assign("C", 2)
        assert partitioner("C") == 2
        with pytest.raises(ValueError):
            partitioner.assign("D", 9)

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestNetworkStats:
    def test_records_remote_messages_only(self):
        stats = NetworkStats(node_count=2)
        remote = Message(src=0, dst=1, port="view", updates=(_update(),), size_bytes=100, sent_at=0.0)
        local = Message(src=1, dst=1, port="view", updates=(_update(),), size_bytes=50, sent_at=0.0)
        stats.record_message(remote)
        stats.record_message(local)
        assert stats.total_messages == 1
        assert stats.total_bytes == 100
        assert stats.local_messages == 1
        assert stats.local_bytes == 50

    def test_provenance_average(self):
        stats = NetworkStats()
        stats.record_provenance(100, 1)
        stats.record_provenance(300, 1)
        assert stats.per_tuple_provenance_bytes == 200

    def test_merge(self):
        first, second = NetworkStats(node_count=2), NetworkStats(node_count=2)
        first.record_message(Message(0, 1, "p", (_update(),), 10, 0.0))
        second.record_message(Message(1, 0, "p", (_update(),), 20, 0.0))
        second.record_time(5.0)
        merged = first.merge(second)
        assert merged.total_bytes == 30
        assert merged.convergence_time == 5.0

    def test_summary_keys(self):
        summary = NetworkStats(node_count=4).summary()
        assert {"communication_mb", "messages", "convergence_time_s"} <= set(summary)


class TestSimulatedNetwork:
    def test_message_delivery_and_clock(self):
        network = SimulatedNetwork(node_count=2, latency_model=UniformLatencyModel(0.01),
                                   processing_cost=0.001)
        received = []
        network.register(0, lambda port, updates, now: received.append((port, len(updates), now)))
        network.register(1, lambda port, updates, now: None)
        network.inject(0, "view", [_update()], at_time=0.0)
        stats = network.run()
        assert received and received[0][0] == "view"
        assert stats.convergence_time >= 0.001

    def test_fifo_ordering_per_pair(self):
        network = SimulatedNetwork(node_count=2, latency_model=UniformLatencyModel(0.01))
        order = []
        network.register(1, lambda port, updates, now: order.append(port))
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "first", [_update()], 10, at_time=0.0)
        network.send(0, 1, "second", [_update()], 10, at_time=0.0)
        network.run()
        assert order == ["first", "second"]

    def test_handler_can_send_more_messages(self):
        network = SimulatedNetwork(node_count=2)

        def forward(port, updates, now):
            if port == "start":
                network.send(0, 1, "hop", list(updates), 10, at_time=now)

        seen = []
        network.register(0, forward)
        network.register(1, lambda port, updates, now: seen.append(port))
        network.inject(0, "start", [_update()], at_time=0.0)
        network.run()
        assert seen == ["hop"]
        assert network.stats.total_messages == 1

    def test_missing_handler_raises(self):
        network = SimulatedNetwork(node_count=2)
        network.inject(1, "view", [_update()])
        with pytest.raises(SimulationError):
            network.run()

    def test_empty_send_rejected(self):
        network = SimulatedNetwork(node_count=2)
        with pytest.raises(SimulationError):
            network.send(0, 1, "view", [], 0)

    def test_unknown_node_rejected(self):
        network = SimulatedNetwork(node_count=2)
        with pytest.raises(SimulationError):
            network.send(0, 5, "view", [_update()], 10)

    def test_event_budget(self):
        network = SimulatedNetwork(node_count=2, max_events=3)

        def ping_pong(port, updates, now):
            destination = 1 if port == "to1" else 0
            network.send(destination ^ 1, destination, f"to{destination}", list(updates), 1, at_time=now)

        network.register(0, lambda port, updates, now: network.send(0, 1, "to1", list(updates), 1, at_time=now))
        network.register(1, lambda port, updates, now: network.send(1, 0, "to0", list(updates), 1, at_time=now))
        network.inject(0, "start", [_update()], at_time=0.0)
        with pytest.raises(SimulationBudgetExceeded):
            network.run()

    def test_reset_stats(self):
        network = SimulatedNetwork(node_count=2)
        network.register(1, lambda port, updates, now: None)
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "view", [_update()], 10)
        network.run()
        assert network.stats.total_messages == 1
        network.reset_stats()
        assert network.stats.total_messages == 0

    def test_run_until_time_limit(self):
        network = SimulatedNetwork(node_count=2, latency_model=UniformLatencyModel(1.0))
        network.register(1, lambda port, updates, now: None)
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.run(until=0.5)
        assert network.pending_events() == 1
        network.run()
        assert network.pending_events() == 0

    def test_run_until_preserves_tie_break_order(self):
        # Two events from different channels arrive at the same virtual time;
        # their delivery order is decided by the send-time sequence numbers.
        # A run() stopped short of them must not disturb that order: the old
        # implementation popped the first too-late event and re-pushed it with
        # a *fresh* sequence number, demoting it behind its same-arrival peer.
        def build():
            network = SimulatedNetwork(node_count=3, latency_model=UniformLatencyModel(1.0))
            order = []
            network.register(1, lambda port, updates, now: order.append(port))
            network.register(0, lambda port, updates, now: None)
            network.register(2, lambda port, updates, now: None)
            network.send(0, 1, "first", [_update()], 10, at_time=0.0)
            network.send(2, 1, "second", [_update()], 10, at_time=0.0)
            return network, order

        network, baseline = build()
        network.run()
        assert baseline == ["first", "second"]

        network, order = build()
        network.run(until=0.5)  # both events sit beyond the horizon
        assert order == [] and network.pending_events() == 2
        network.run()
        assert order == baseline


class TestElasticMembership:
    def test_add_node_grows_the_cluster(self):
        network = SimulatedNetwork(node_count=2)
        new = network.add_node()
        assert new == 2 and network.node_count == 3
        received = []
        network.register(new, lambda port, updates, now: received.append(port))
        network.register(0, lambda port, updates, now: None)
        network.send(0, new, "view", [_update()], 10)
        network.run()
        assert received == ["view"]
        assert network.stats.node_count == 3

    def test_deactivate_excludes_from_active_nodes_only(self):
        network = SimulatedNetwork(node_count=3)
        network.register(1, lambda port, updates, now: None)
        network.deactivate(1)
        assert network.active_nodes() == [0, 2]
        assert not network.is_active(1) and network.is_active(0)
        # A decommissioned node still receives in-flight messages.
        network.send(0, 1, "view", [_update()], 10)
        network.run()
        assert network.stats.total_messages == 1

    def test_control_event_fires_between_deliveries(self):
        network = SimulatedNetwork(node_count=2, latency_model=UniformLatencyModel(0.01))
        fired = []
        order = []
        network.register(1, lambda port, updates, now: order.append((port, now)))
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "early", [_update()], 10, at_time=0.0)
        network.send(0, 1, "late", [_update()], 10, at_time=0.02)
        network.schedule_control(lambda now: fired.append(now), at_time=0.015)
        network.run()
        assert fired == [0.015]
        assert [port for port, _ in order] == ["early", "late"]

    def test_epoch_stamping_and_stale_counting(self):
        epoch = [0]
        network = SimulatedNetwork(node_count=2, latency_model=UniformLatencyModel(0.01))
        network.set_epoch_provider(lambda: epoch[0])
        network.register(1, lambda port, updates, now: None)
        network.register(0, lambda port, updates, now: None)
        message = network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        assert message.epoch == 0
        network.schedule_control(lambda now: epoch.__setitem__(0, 1), at_time=0.001)
        network.run()
        assert network.stats.stale_epoch_messages == 1

    def test_per_node_stats_rows(self):
        network = SimulatedNetwork(node_count=3)
        network.register(1, lambda port, updates, now: None)
        network.send(0, 1, "view", [_update(), _update()], 25, at_time=0.0)
        network.run()
        rows = {row["node"]: row for row in network.stats.per_node_rows()}
        assert rows[0]["messages_sent"] == 1 and rows[0]["bytes_sent"] == 25
        assert rows[1]["messages_received"] == 1
        assert rows[1]["updates_delivered"] == 2
        assert rows[2]["updates_delivered"] == 0


class TestMessage:
    def test_local_flag_and_counts(self):
        message = Message(src=2, dst=2, port="p", updates=(_update(), _update()), size_bytes=7, sent_at=1.0)
        assert message.is_local
        assert message.update_count == 2
        assert "p" in repr(message)


class TestDeliveryCoalescing:
    def test_same_channel_ready_messages_merge_into_one_delivery(self):
        from repro.data.batch import BatchPolicy

        network = SimulatedNetwork(
            node_count=2,
            latency_model=UniformLatencyModel(0.01),
            batch_policy=BatchPolicy(max_batch=10),
        )
        deliveries = []
        network.register(1, lambda port, updates, now: deliveries.append(len(updates)))
        network.register(0, lambda port, updates, now: None)
        # Same channel, same send time -> same arrival; the second message is
        # already queued when the first is delivered.
        network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.send(0, 1, "view", [_update(), _update()], 10, at_time=0.0)
        network.run()
        assert deliveries == [3]
        assert network.coalesced_deliveries == 1

    def test_coalescing_respects_max_batch(self):
        from repro.data.batch import BatchPolicy

        network = SimulatedNetwork(
            node_count=2,
            latency_model=UniformLatencyModel(0.01),
            batch_policy=BatchPolicy(max_batch=2),
        )
        deliveries = []
        network.register(1, lambda port, updates, now: deliveries.append(len(updates)))
        network.register(0, lambda port, updates, now: None)
        for _ in range(3):
            network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.run()
        assert deliveries == [2, 1]

    def test_tuple_at_a_time_policy_disables_coalescing(self):
        from repro.data.batch import BatchPolicy

        network = SimulatedNetwork(
            node_count=2,
            latency_model=UniformLatencyModel(0.01),
            batch_policy=BatchPolicy.tuple_at_a_time(),
        )
        deliveries = []
        network.register(1, lambda port, updates, now: deliveries.append(len(updates)))
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.run()
        assert deliveries == [1, 1]
        assert network.coalesced_deliveries == 0

    def test_different_ports_never_merge(self):
        from repro.data.batch import BatchPolicy

        network = SimulatedNetwork(
            node_count=2,
            latency_model=UniformLatencyModel(0.01),
            batch_policy=BatchPolicy(max_batch=10),
        )
        order = []
        network.register(1, lambda port, updates, now: order.append(port))
        network.register(0, lambda port, updates, now: None)
        network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.send(0, 1, "edge", [_update()], 10, at_time=0.0)
        network.run()
        assert order == ["view", "edge"]

    def test_wall_budget_enforced_inside_coalescing_drain(self):
        from repro.data.batch import BatchPolicy

        # One delivery whose coalescing drain consumes the entire queue: the
        # outer run loop only sees a single event, so the wall-clock deadline
        # must be checked inside the drain loop itself or an exhausted budget
        # silently completes.
        network = SimulatedNetwork(
            node_count=2,
            latency_model=UniformLatencyModel(0.01),
            batch_policy=BatchPolicy(max_batch=10_000),
            max_wall_seconds=0.0,
        )
        network.register(1, lambda port, updates, now: None)
        network.register(0, lambda port, updates, now: None)
        for _ in range(200):
            network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        network.arm_wall_budget()
        with pytest.raises(SimulationBudgetExceeded):
            network.run()

    def test_byte_budget_cuts_a_phase_at_a_fixed_event(self):
        network = SimulatedNetwork(node_count=2)
        network.max_phase_bytes = 1000
        network.register(1, lambda port, updates, now: None)
        for index in range(200):
            network.send(0, 1, "view", [_update()], 10, at_time=float(index))
        # 2 000 bytes are on the books before the first delivery; the budget
        # is checked every 32 events, so the cut lands on event 32.
        with pytest.raises(SimulationBudgetExceeded, match="1000 bytes in one phase"):
            network.run()
        assert network.events_processed == 32
        # The budget is per phase: a fresh accumulator lets the run finish.
        network.reset_stats()
        network.run()
        assert network.events_processed == 200

    def test_byte_budget_enforced_inside_coalescing_drain(self):
        from repro.data.batch import BatchPolicy

        network = SimulatedNetwork(node_count=2, batch_policy=BatchPolicy(max_batch=10_000))
        network.max_phase_bytes = 1000
        delivered = []
        network.register(1, lambda port, updates, now: delivered.append(len(updates)))
        for _ in range(200):
            network.send(0, 1, "view", [_update()], 10, at_time=0.0)
        with pytest.raises(SimulationBudgetExceeded):
            network.run()
        assert not delivered and network.events_processed == 32

    def test_message_counts_by_port_counts_wire_messages(self):
        network = SimulatedNetwork(node_count=3)
        network.register(1, lambda port, updates, now: None)
        network.send(0, 1, "purge", [_update(), _update()], 10, at_time=0.0)
        network.send(2, 1, "purge", [_update()], 10, at_time=0.0)
        network.run()
        assert network.stats.message_counts_by_port["purge"] == 2
        assert network.stats.messages_by_port["purge"] == 3
