"""Unit tests for schemas, tuples, updates and relations."""

import pytest

from repro.data import (
    PartitionedRelation,
    Relation,
    Schema,
    Update,
    UpdateType,
)
from repro.data.relation import stable_hash
from repro.data.tuples import SchemaError, make_schema
from repro.data.update import delete, insert


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
