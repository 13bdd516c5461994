"""Unit tests for the provenance stores (absorption, relative, counting, null)."""

import pytest

from repro.provenance import (
    AbsorptionProvenanceStore,
    CountingProvenanceStore,
    RelativeProvenanceStore,
    provenance_store_for,
)
from repro.provenance.relative import Derivation
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    LineageSemiring,
    TropicalSemiring,
    WhySemiring,
    posbool_of_why,
)
from repro.provenance.tracker import NullProvenanceStore


class TestFactory:
    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("absorption", AbsorptionProvenanceStore),
            ("relative", RelativeProvenanceStore),
            ("counting", CountingProvenanceStore),
            ("none", NullProvenanceStore),
            ("dred", NullProvenanceStore),
        ],
    )
    def test_known_kinds(self, kind, cls):
        assert isinstance(provenance_store_for(kind), cls)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            provenance_store_for("quantum")


class TestAbsorptionStore:
    @pytest.fixture()
    def store(self):
        return AbsorptionProvenanceStore()

    def test_base_annotation_satisfiable(self, store):
        pv = store.base_annotation("p1")
        assert not store.is_zero(pv)

    def test_join_then_delete_base(self, store):
        p1 = store.base_annotation("p1")
        p2 = store.base_annotation("p2")
        joined = store.conjoin(p1, p2)
        assert store.is_zero(store.remove_base(joined, ["p1"]))

    def test_alternative_derivation_survives_deletion(self, store):
        """Figure 2 deletion scenario: p4 | (p1 & p3) survives deleting p4."""
        pv = store.annotation_from_products([["p4"], ["p1", "p3"]])
        after = store.remove_base(pv, ["p4"])
        assert not store.is_zero(after)
        assert store.equals(after, store.annotation_from_products([["p1", "p3"]]))

    def test_absorption_collapses_redundant_derivation(self, store):
        redundant = store.annotation_from_products([["p1", "p2"], ["p1", "p2", "p3"]])
        minimal = store.annotation_from_products([["p1", "p2"]])
        assert store.equals(redundant, minimal)

    def test_difference_is_new_and_not_old(self, store):
        old = store.annotation_from_products([["p1"]])
        new = store.annotation_from_products([["p1"], ["p2"]])
        delta = store.difference(new, old)
        assert not store.is_zero(delta)
        assert store.is_zero(store.conjoin(delta, old))

    def test_size_bytes_grows_with_complexity(self, store):
        simple = store.base_annotation("p1")
        complex_ = store.annotation_from_products([["p1", "p2"], ["p3", "p4"], ["p5", "p6"]])
        assert store.size_bytes(complex_) > store.size_bytes(simple)

    def test_depends_on(self, store):
        pv = store.annotation_from_products([["p1", "p2"]])
        assert store.depends_on(pv, "p1")
        assert not store.depends_on(pv, "p9")

    def test_describe(self, store):
        assert store.describe(store.zero()) == "false"
        assert store.describe(store.one()) == "true"
        text = store.describe(store.annotation_from_products([["p1", "p2"]]))
        assert "p1" in text and "p2" in text

    def test_supports_deletion_flag(self, store):
        assert store.supports_deletion
        assert store.name == "absorption"

    def test_prepared_restrictor_sees_variables_declared_later(self, store):
        """A held restrictor deletes a key whose variable did not exist yet.

        The runtime keeps one per tombstone set, and a process-backend worker
        can learn a tombstoned variable from a later delivery's annotation.
        """
        restrict = store.base_restrictor(["p1", "p9"])
        late = store.annotation_from_products([["p9", "p2"], ["p3"]])
        assert store.equals(restrict(late), store.annotation_from_products([["p3"]]))
        assert store.is_zero(restrict(store.conjoin(late, store.base_annotation("p1"))))
        untouched = store.base_annotation("p4")
        assert restrict(untouched) is untouched

    def test_release_drops_the_node_table_and_caches(self, store):
        pv = store.annotation_from_products([["p1", "p2"], ["p3"]])
        store.size_bytes(pv)
        store.release()
        manager = store.manager
        assert manager._table is None
        assert not manager._size_cache and not manager._apply_cache
        assert not manager.has_variable("p1")


class TestRelativeStore:
    @pytest.fixture()
    def store(self):
        return RelativeProvenanceStore()

    def test_base_annotation(self, store):
        pv = store.base_annotation("p1")
        assert not store.is_zero(pv)
        assert len(pv) == 1

    def test_no_absorption_keeps_redundant_derivations(self, store):
        p1 = store.base_annotation("p1")
        p2 = store.base_annotation("p2")
        direct = p1
        indirect = store.conjoin(p1, p2)
        merged = store.disjoin(direct, indirect)
        # Unlike absorption provenance, both derivations are kept.
        assert len(merged) == 2

    def test_relative_larger_than_absorption_for_redundant_derivations(self, store):
        absorption = AbsorptionProvenanceStore()
        redundant_rel = store.disjoin(
            store.base_annotation("p1"),
            store.conjoin(store.base_annotation("p1"), store.base_annotation("p2")),
        )
        redundant_abs = absorption.disjoin(
            absorption.base_annotation("p1"),
            absorption.conjoin(
                absorption.base_annotation("p1"), absorption.base_annotation("p2")
            ),
        )
        assert store.size_bytes(redundant_rel) > absorption.size_bytes(redundant_abs)

    def test_remove_base(self, store):
        pv = store.disjoin(
            store.base_annotation("p4"),
            store.conjoin(store.base_annotation("p1"), store.base_annotation("p3")),
        )
        after = store.remove_base(pv, ["p4"])
        assert not store.is_zero(after)
        assert store.is_zero(store.remove_base(after, ["p1"]))

    def test_derivation_cap(self):
        store = RelativeProvenanceStore(max_derivations_per_tuple=3)
        annotation = store.zero()
        for i in range(10):
            annotation = store.disjoin(annotation, store.base_annotation(f"p{i}"))
        assert len(annotation) <= 3

    def test_derivation_graph_traversal(self, store):
        store.record_edge("d1", ["b1", "b2"])
        store.record_edge("d2", ["d1", "b3"])
        assert store.derivable("d2", {"b1", "b2", "b3"})
        assert not store.derivable("d2", {"b1", "b3"})
        assert store.edge_count == 2

    def test_derivation_graph_cycles_do_not_ground(self, store):
        store.record_edge("x", ["y"])
        store.record_edge("y", ["x"])
        assert not store.derivable("x", set())
        assert store.derivable("x", {"y"})

    def test_describe(self, store):
        assert store.describe(store.zero()) == "underivable"
        assert "p1" in store.describe(store.base_annotation("p1"))

    def test_derivation_uses(self):
        derivation = Derivation(leaves=frozenset({"a", "b"}))
        assert derivation.uses({"a"})
        assert not derivation.uses({"c"})


class TestCountingStore:
    @pytest.fixture()
    def store(self):
        return CountingProvenanceStore()

    def test_counts_multiply_on_join(self, store):
        assert store.conjoin(2, 3) == 6

    def test_counts_add_on_union(self, store):
        assert store.disjoin(2, 3) == 5

    def test_zero_detection(self, store):
        assert store.is_zero(0)
        assert not store.is_zero(1)

    def test_size_constant(self, store):
        assert store.size_bytes(1) == store.size_bytes(1000)

    def test_describe(self, store):
        assert "2" in store.describe(2)


class TestNullStore:
    @pytest.fixture()
    def store(self):
        return NullProvenanceStore()

    def test_no_deletion_support(self, store):
        assert not store.supports_deletion

    def test_algebra_is_boolean(self, store):
        assert store.conjoin(store.one(), store.one())
        assert not store.conjoin(store.one(), store.zero())
        assert store.disjoin(store.zero(), store.one())

    def test_size_zero(self, store):
        assert store.size_bytes(store.one()) == 0

    def test_describe(self, store):
        assert store.describe(store.one()) == "present"
        assert store.describe(store.zero()) == "absent"


class TestSemirings:
    def test_posbool_laws(self):
        a = BooleanSemiring.of_base("a")
        b = BooleanSemiring.of_base("b")
        assert BooleanSemiring.plus(a, BooleanSemiring.zero) == a
        assert BooleanSemiring.times(a, BooleanSemiring.one) == a
        assert BooleanSemiring.plus(a, BooleanSemiring.times(a, b)) == a  # absorption

    def test_counting_semiring(self):
        assert CountingSemiring.plus(2, 3) == 5
        assert CountingSemiring.times(2, 3) == 6
        assert CountingSemiring.of_base("x") == 1

    def test_why_semiring(self):
        a = WhySemiring.of_base("a")
        b = WhySemiring.of_base("b")
        product = WhySemiring.times(a, b)
        assert frozenset({"a", "b"}) in product
        assert WhySemiring.plus(a, b) == a | b

    def test_lineage_semiring_flattens(self):
        a = LineageSemiring.of_base("a")
        b = LineageSemiring.of_base("b")
        assert LineageSemiring.times(a, b) == frozenset({"a", "b"})
        assert LineageSemiring.plus(a, b) == frozenset({"a", "b"})

    def test_tropical_semiring(self):
        assert TropicalSemiring.plus(3.0, 5.0) == 3.0
        assert TropicalSemiring.times(3.0, 5.0) == 8.0
        assert TropicalSemiring.is_zero(TropicalSemiring.zero)

    def test_fold_helpers(self):
        assert CountingSemiring.plus_all([1, 2, 3]) == 6
        assert CountingSemiring.times_all([2, 3, 4]) == 24
        assert CountingSemiring.plus_all([]) == 0
        assert CountingSemiring.times_all([]) == 1

    def test_posbool_of_why(self):
        why = WhySemiring.times(WhySemiring.of_base("a"), WhySemiring.of_base("b"))
        expr = posbool_of_why(why)
        assert expr.evaluate({"a": True, "b": True})
        assert not expr.evaluate({"a": True})
