"""Unit tests for schemas, tuples, updates and relations."""

import pickle

import pytest

from repro.data import (
    PartitionedRelation,
    Relation,
    Schema,
    Update,
    UpdateType,
)
from repro.data.relation import stable_hash
from repro.data.tuples import _INTERNED, SchemaError, Tuple, _value_size, make_schema
from repro.data.update import delete, insert
from repro.engine.strategy import ExecutionStrategy
from repro.queries import build_executor, reachability_plan
from repro.workloads import TransitStubConfig, generate_topology


@pytest.fixture()
def link_schema():
    return make_schema("link", ["src", "dst", "cost"])


@pytest.fixture()
def link(link_schema):
    return link_schema.tuple("A", "B", 1.0)


class TestSchema:
    def test_default_partition_attribute_is_first(self, link_schema):
        assert link_schema.partition_attribute == "src"

    def test_explicit_partition_attribute(self):
        schema = make_schema("reachable", ["src", "dst"], partition_attribute="dst")
        assert schema.partition_attribute == "dst"

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("empty", ())

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("dup", ("a", "a"))

    def test_unknown_partition_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema("r", ("a", "b"), partition_attribute="c")

    def test_index_of(self, link_schema):
        assert link_schema.index_of("dst") == 1
        with pytest.raises(SchemaError):
            link_schema.index_of("nope")

    def test_tuple_positional_and_named(self, link_schema):
        by_pos = link_schema.tuple("A", "B", 2.0)
        by_name = link_schema.tuple(src="A", dst="B", cost=2.0)
        assert by_pos == by_name

    def test_tuple_arity_mismatch(self, link_schema):
        with pytest.raises(SchemaError):
            link_schema.tuple("A", "B")

    def test_tuple_mixed_args_rejected(self, link_schema):
        with pytest.raises(SchemaError):
            link_schema.tuple("A", dst="B", cost=1.0)


class TestTuple:
    def test_getitem(self, link):
        assert link["src"] == "A"
        assert link["cost"] == 1.0

    def test_get_with_default(self, link):
        assert link.get("missing", 42) == 42

    def test_partition_value(self, link):
        assert link.partition_value == "A"

    def test_key_includes_relation(self, link):
        assert link.key == ("link", "A", "B", 1.0)

    def test_as_dict(self, link):
        assert link.as_dict() == {"src": "A", "dst": "B", "cost": 1.0}

    def test_replace(self, link):
        changed = link.replace(cost=9.0)
        assert changed["cost"] == 9.0
        assert link["cost"] == 1.0

    def test_replace_unknown_attribute(self, link):
        with pytest.raises(SchemaError):
            link.replace(nope=1)

    def test_project(self, link):
        pair_schema = make_schema("pair", ["src", "dst"])
        projected = link.project(pair_schema, ["src", "dst"])
        assert projected.values == ("A", "B")
        assert projected.relation == "pair"

    def test_size_bytes_positive_and_monotone(self, link_schema):
        small = link_schema.tuple("A", "B", 1)
        big = link_schema.tuple("A" * 50, "B" * 50, 1)
        assert 0 < small.size_bytes() < big.size_bytes()

    def test_hashable(self, link, link_schema):
        same = link_schema.tuple("A", "B", 1.0)
        assert hash(link) == hash(same)
        assert {link} == {same}

    def test_iter_and_repr(self, link):
        assert list(link) == ["A", "B", 1.0]
        assert "link(" in repr(link)

    def test_hash_formula(self, link):
        # Set and dict iteration order, hence event order, depends on it.
        assert hash(link) == hash(("link", ("A", "B", 1.0)))

    def test_pickle_round_trip_keeps_identity_and_size(self, link):
        key, size = link.key, link.size_bytes()
        restored = pickle.loads(pickle.dumps(link))
        assert restored == link
        assert hash(restored) == hash(link)
        assert restored.key == key
        assert restored.size_bytes() == size

    @pytest.mark.parametrize(
        "value, size",
        [
            ("", 0),
            ("abc", 3),
            ("\u00e9", 2),
            ("\u6771\u4eac", 6),
            (7, 8),
            (2.5, 8),
            (None, 1),
            (True, 1),
            ((1, "ab", None), 4 + 8 + 2 + 1),
            ([(1,), frozenset({"x"})], 4 + (4 + 8) + (4 + 1)),
            (object(), 16),
        ],
    )
    def test_value_size(self, value, size):
        # Strings cost their UTF-8 length, whether or not they are ASCII.
        assert _value_size(value) == size


class TestInterning:
    """``Schema.tuple`` hands out one instance per distinct tuple, invisibly."""

    def test_same_values_same_instance(self, link_schema):
        values = ("A", "B", 1.0)
        assert link_schema.tuple(*values) is link_schema.tuple(*values)
        assert link_schema.tuple(src="A", dst="B", cost=1.0) is link_schema.tuple(*values)

    def test_hash_is_relation_and_values(self, link_schema):
        values = ("A", "B", 1.0)
        expected = hash(("link", values))
        assert hash(link_schema.tuple(*values)) == expected
        assert hash(Tuple(link_schema, values)) == expected

    def test_same_named_schemas_do_not_alias(self, link_schema):
        renamed = make_schema("link", ["from", "to", "weight"])
        repartitioned = make_schema("link", ["src", "dst", "cost"], partition_attribute="dst")
        original = link_schema.tuple("A", "B", 1.0)
        for other in (renamed, repartitioned):
            twin = other.tuple("A", "B", 1.0)
            assert twin is not original
            assert twin.schema == other
            assert twin != original
        # An equal schema is the same schema: it shares the instances.
        assert make_schema("link", ["src", "dst", "cost"]).tuple("A", "B", 1.0) is original

    def test_pickle_round_trip_returns_the_interned_instance(self, link_schema):
        original = link_schema.tuple("A", "B", 1.0)
        assert pickle.loads(pickle.dumps(original)) is original
        unpickled_schema = pickle.loads(pickle.dumps(link_schema))
        assert unpickled_schema.tuple("A", "B", 1.0) is original

    def test_direct_construction_equals_the_interned_tuple(self, link_schema):
        interned = link_schema.tuple("A", "B", 1.0)
        direct = Tuple(link_schema, ("A", "B", 1.0))
        assert direct is not interned
        assert direct == interned and interned == direct
        assert {direct, interned} == {interned}
        assert direct.key == interned.key
        assert direct.size_bytes() == interned.size_bytes()

    def test_table_is_empty_after_close(self):
        topology = generate_topology(
            TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, seed=5)
        )
        links = topology.link_tuples()
        executor = build_executor(reachability_plan(), ExecutionStrategy.dred(), node_count=4)
        executor.insert_edges(links)
        assert any(_INTERNED.values())
        executor.close()
        assert not any(_INTERNED.values())
        # Tuples handed out before the clear stay valid and equal to new ones.
        rebuilt = links[0].schema.tuple(*links[0].values)
        assert rebuilt == links[0] and hash(rebuilt) == hash(links[0])

    def test_closing_one_executor_leaves_another_live_one_exact(self):
        """The table is per process: a close empties it under a live executor too."""
        links = generate_topology(
            TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, seed=5)
        ).link_tuples()

        def run(close_a_peer_midway):
            executor = build_executor(
                reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
            )
            phases = [executor.insert_edges(links)]
            if close_a_peer_midway:
                peer = build_executor(
                    reachability_plan(), ExecutionStrategy.dred(), node_count=4
                )
                peer.insert_edges(links)
                peer.close()
                assert not any(_INTERNED.values())
            phases.append(executor.delete_edges(links[::3]))
            phases.append(executor.insert_edges(links[::3]))
            view = executor.view_values()
            executor.close()
            return view, [
                (p.communication_mb, p.state_mb, p.per_tuple_provenance_bytes) for p in phases
            ]

        assert run(close_a_peer_midway=True) == run(close_a_peer_midway=False)


class TestUpdate:
    def test_insert_delete_helpers(self, link):
        assert insert(link).is_insert
        assert delete(link).is_delete

    def test_inverted(self, link):
        assert insert(link).inverted().type is UpdateType.DEL
        assert delete(link).inverted().type is UpdateType.INS

    def test_with_provenance_and_timestamp(self, link):
        update = insert(link).with_provenance("pv").with_timestamp(3.5)
        assert update.provenance == "pv"
        assert update.timestamp == 3.5

    def test_size_bytes_includes_provenance(self, link):
        update = insert(link)
        assert update.size_bytes(provenance_bytes=100) == update.size_bytes() + 100

    def test_relation_property(self, link):
        assert insert(link).relation == "link"

    @pytest.mark.parametrize("make", [insert, delete])
    def test_is_insert_survives_copies(self, link, make):
        update = make(link, provenance="pv", timestamp=1.5)
        expected = update.type is UpdateType.INS
        for copy in (
            pickle.loads(pickle.dumps(update)),
            update.with_provenance("other"),
            update.with_timestamp(2.5),
        ):
            assert copy.is_insert is expected
            assert copy.is_delete is not expected
        assert update.inverted().is_insert is not expected
        assert update.inverted().inverted().is_insert is expected

    def test_dred_wire_bytes_pinned(self):
        """Byte identity of the wire-size formula on a tiny DRed run.

        Every ``communication_mb`` figure is these totals; a change to how
        tuples or updates are sized must not move them.
        """
        topology = generate_topology(
            TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, dense=True, seed=5)
        )
        links = topology.link_tuples()
        executor = build_executor(reachability_plan(), ExecutionStrategy.dred(), node_count=4)
        totals = []
        for run_phase, edges in (
            (executor.insert_edges, links),
            (executor.delete_edges, links[::3]),
            (executor.insert_edges, links[::3]),
        ):
            run_phase(edges)
            totals.append(executor.network.stats.total_bytes)
        assert totals == [16966, 22327, 12762]


class TestRelation:
    def test_add_is_set_semantics(self, link_schema, link):
        relation = Relation(link_schema)
        assert relation.add(link)
        assert not relation.add(link)
        assert len(relation) == 1

    def test_discard(self, link_schema, link):
        relation = Relation(link_schema, [link])
        assert relation.discard(link)
        assert not relation.discard(link)
        assert len(relation) == 0

    def test_apply_updates(self, link_schema, link):
        relation = Relation(link_schema)
        assert relation.apply(insert(link))
        assert relation.apply(delete(link))
        assert not relation.apply(delete(link))

    def test_schema_mismatch_rejected(self, link_schema):
        other = make_schema("other", ["x"])
        relation = Relation(link_schema)
        with pytest.raises(ValueError):
            relation.add(other.tuple(1))

    def test_select_and_values(self, link_schema):
        relation = Relation(
            link_schema,
            [link_schema.tuple("A", "B", 1), link_schema.tuple("A", "C", 5)],
        )
        cheap = relation.select(lambda t: t["cost"] < 2)
        assert len(cheap) == 1
        assert relation.values("dst") == {"B", "C"}

    def test_tuples_snapshot_deterministic(self, link_schema):
        relation = Relation(
            link_schema,
            [link_schema.tuple("B", "C", 1), link_schema.tuple("A", "B", 1)],
        )
        assert relation.tuples() == relation.tuples()

    def test_as_value_set(self, link_schema, link):
        relation = Relation(link_schema, [link])
        assert relation.as_value_set() == {("A", "B", 1.0)}


class TestPartitionedRelation:
    def test_partitioning_by_first_attribute(self, link_schema):
        partitioned = PartitionedRelation(link_schema, node_count=4)
        t1 = link_schema.tuple("A", "B", 1)
        t2 = link_schema.tuple("A", "C", 1)
        partitioned.add(t1)
        partitioned.add(t2)
        assert partitioned.node_for(t1) == partitioned.node_for(t2)
        assert len(partitioned) == 2

    def test_contains_and_discard(self, link_schema, link):
        partitioned = PartitionedRelation(link_schema, node_count=3)
        partitioned.add(link)
        assert link in partitioned
        assert partitioned.discard(link)
        assert link not in partitioned

    def test_apply(self, link_schema, link):
        partitioned = PartitionedRelation(link_schema, node_count=2)
        assert partitioned.apply(insert(link))
        assert partitioned.apply(delete(link))

    def test_partition_sizes_sum(self, link_schema):
        partitioned = PartitionedRelation(link_schema, node_count=5)
        for i in range(20):
            partitioned.add(link_schema.tuple(f"n{i}", "X", 1))
        assert sum(partitioned.partition_sizes()) == 20

    def test_invalid_node_count(self, link_schema):
        with pytest.raises(ValueError):
            PartitionedRelation(link_schema, node_count=0)

    def test_custom_placement(self, link_schema, link):
        partitioned = PartitionedRelation(link_schema, node_count=3, placement=lambda t: 2)
        partitioned.add(link)
        assert len(partitioned.partition(2)) == 1

    def test_stable_hash_deterministic(self):
        assert stable_hash("A") == stable_hash("A")
        assert stable_hash("A") != stable_hash("B")
