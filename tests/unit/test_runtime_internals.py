"""Unit tests for per-node runtime internals (provenance variables, purge handling).

These complement the end-to-end integration tests with direct checks of the
node-level mechanisms: versioned base-tuple variables, tombstone filtering of
stale in-flight annotations, and the broadcast purge traffic shape.
"""

import pytest

from repro.engine.executor import DistributedViewExecutor
from repro.engine.runtime import PORT_PURGE, PORT_VIEW
from repro.engine.strategy import ExecutionStrategy
from repro.net.partition import HashPartitioner
from repro.queries import build_executor, link, reachability_plan, reachable


def make_executor(strategy=None, nodes=3):
    partitioner = HashPartitioner.identity(3, {"A": 0, "B": 1, "C": 2})
    return build_executor(
        reachability_plan(),
        strategy or ExecutionStrategy.absorption_lazy(),
        node_count=nodes,
        partitioner=partitioner,
    )


class TestVersionedBaseVariables:
    def test_reinsertion_after_deletion_gets_fresh_variable(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B")])
        executor.delete_edges([link("A", "B")])
        assert executor.view_values() == set()
        executor.insert_edges([link("A", "B")])
        assert executor.view_values() == {("A", "B")}
        node_a = executor.nodes[0]
        annotation = node_a.fixpoint.annotation_of(reachable("A", "B"))
        # The surviving annotation references version 1 of the link, not version 0.
        names = {name for name in annotation.support_names()}
        assert (link("A", "B").key, 1) in names
        assert (link("A", "B").key, 0) not in names

    def test_repeated_churn_remains_correct(self):
        executor = make_executor()
        for _ in range(3):
            executor.insert_edges([link("A", "B"), link("B", "C")])
            executor.delete_edges([link("A", "B")])
            assert executor.view_values() == {("B", "C")}
            executor.delete_edges([link("B", "C")])
            assert executor.view_values() == set()


class TestPurgeHandling:
    def test_purge_broadcast_reaches_every_other_node(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B"), link("B", "C"), link("C", "A")])
        before = executor.network.stats
        executor.delete_edges([link("A", "B")])
        stats = executor.network.stats
        # One purge message per peer node (2), plus any alternate-derivation traffic.
        assert stats.messages_by_port.get(PORT_PURGE, 0) >= executor.network.node_count - 1

    def test_tombstones_filter_stale_annotations(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B")])
        node_b = executor.nodes[1]
        deleted_variable = (link("A", "B").key, 0)
        node_b._deleted_base_keys.add(deleted_variable)
        from repro.data.update import insert

        stale = insert(
            reachable("A", "B"),
            provenance=executor.store.base_annotation(deleted_variable),
        )
        fresh = insert(
            reachable("A", "C"),
            provenance=executor.store.base_annotation((link("A", "C").key, 0)),
        )
        admitted = node_b._filter_stale_batch([stale, fresh])
        assert len(admitted) == 1 and admitted[0] is fresh

    def test_state_accounting_covers_all_operators(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B"), link("B", "C")])
        for node in executor.nodes:
            assert node.state_bytes() == (
                node.join.state_bytes() + node.fixpoint.state_bytes() + node.ship.state_bytes()
            )
        assert executor.state_bytes() == sum(n.state_bytes() for n in executor.nodes)
        assert set(executor.per_node_state_bytes()) == {0, 1, 2}


class TestExecutorValidation:
    def test_partitioner_is_the_source_of_truth_for_node_count(self):
        # A supplied partitioner wins over the (redundant) node_count argument:
        # the cluster is sized to what the partitioner can actually address.
        executor = DistributedViewExecutor(
            reachability_plan(),
            ExecutionStrategy.dred(),
            node_count=4,
            partitioner=HashPartitioner(3),
        )
        assert executor.network.node_count == 3
        assert len(executor.nodes) == 3

    def test_unknown_port_rejected(self):
        executor = make_executor()
        node = executor.nodes[0]
        from repro.data.update import insert

        with pytest.raises(ValueError):
            node.handle("bogus-port", [insert(link("A", "B"))], now=0.0)

    def test_view_at_and_repr(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B")])
        assert executor.view_at(0) == {reachable("A", "B")}
        assert "Absorption Lazy" in repr(executor)

    def test_operator_stats_counters(self):
        executor = make_executor()
        executor.insert_edges([link("A", "B"), link("B", "C")])
        stats = executor.nodes[1].operator_stats()
        assert stats["fixpoint"].updates_processed > 0
        assert stats["fixpoint"].insertions_seen >= stats["fixpoint"].deletions_seen
