"""Unit tests for the provenance-aware operators (Algorithms 1-4)."""

import pytest

from repro.data.tuples import make_schema
from repro.data.update import Update, UpdateType, delete, insert
from repro.operators import (
    AggregateSelection,
    AggregateSpec,
    FixpointOperator,
    MinShipOperator,
    PipelinedHashJoin,
    ShipMode,
    ShipOperator,
)
from repro.operators.aggsel import AggregateFunctionKind
from repro.provenance import AbsorptionProvenanceStore
from repro.provenance.tracker import NullProvenanceStore

LINK = make_schema("link", ["src", "dst"])
REACH = make_schema("reachable", ["src", "dst"])
PATH = make_schema("path", ["src", "dst", "cost", "length"])


@pytest.fixture()
def store():
    return AbsorptionProvenanceStore()


def pv(store, *names):
    return store.annotation_from_products([names])


class TestFixpointOperator:
    def test_first_derivation_propagates(self, store):
        fixpoint = FixpointOperator("fp", store)
        out = fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert len(out) == 1
        assert REACH.tuple("A", "B") in fixpoint

    def test_duplicate_derivation_suppressed(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert out == []

    def test_absorbed_derivation_suppressed(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = fixpoint.process(
            insert(REACH.tuple("A", "B"), provenance=pv(store, "p1", "p2"))
        )
        assert out == []

    def test_new_alternative_derivation_propagates_delta(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        assert len(out) == 1
        delta = out[0].provenance
        assert not store.is_zero(delta)
        assert store.is_zero(store.conjoin(delta, pv(store, "p1")))

    def test_purge_base_removes_dead_tuples(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        fixpoint.process(insert(REACH.tuple("A", "C"), provenance=pv(store, "p1", "p2")))
        outs = fixpoint.purge_base(["p2"])
        assert [u.tuple for u in outs] == [REACH.tuple("A", "C")]
        assert REACH.tuple("A", "B") in fixpoint
        assert REACH.tuple("A", "C") not in fixpoint

    def test_purge_base_keeps_alternatively_derivable(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(
            insert(
                REACH.tuple("C", "B"),
                provenance=store.annotation_from_products([["p4"], ["p1", "p3"]]),
            )
        )
        outs = fixpoint.purge_base(["p4"])
        assert outs == []
        assert REACH.tuple("C", "B") in fixpoint

    def test_set_semantics_deletion(self):
        store = NullProvenanceStore()
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B")))
        out = fixpoint.process(delete(REACH.tuple("A", "B")))
        assert len(out) == 1 and out[0].is_delete
        assert REACH.tuple("A", "B") not in fixpoint
        assert fixpoint.process(delete(REACH.tuple("A", "B"))) == []

    def test_set_semantics_duplicate_insert_suppressed(self):
        store = NullProvenanceStore()
        fixpoint = FixpointOperator("fp", store)
        assert len(fixpoint.process(insert(REACH.tuple("A", "B")))) == 1
        assert fixpoint.process(insert(REACH.tuple("A", "B"))) == []

    def test_state_bytes_grows(self, store):
        fixpoint = FixpointOperator("fp", store)
        empty = fixpoint.state_bytes()
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert fixpoint.state_bytes() > empty

    def test_view_tuples_and_annotation(self, store):
        fixpoint = FixpointOperator("fp", store)
        fixpoint.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert fixpoint.view_tuples() == [REACH.tuple("A", "B")]
        assert not store.is_zero(fixpoint.annotation_of(REACH.tuple("A", "B")))
        assert fixpoint.annotation_of(REACH.tuple("Z", "Z")) is None


class TestPipelinedHashJoin:
    def _join(self, store):
        return PipelinedHashJoin(
            "join",
            store,
            left_key=lambda t: t["dst"],
            right_key=lambda t: t["src"],
            combine=lambda edge, view: REACH.tuple(edge["src"], view["dst"]),
        )

    def test_insert_then_probe(self, store):
        join = self._join(store)
        assert join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1"))) == []
        out = join.process_right(insert(REACH.tuple("B", "C"), provenance=pv(store, "p2")))
        assert len(out) == 1
        assert out[0].tuple == REACH.tuple("A", "C")
        assert store.equals(out[0].provenance, pv(store, "p1", "p2"))

    def test_probe_other_direction(self, store):
        join = self._join(store)
        join.process_right(insert(REACH.tuple("B", "C"), provenance=pv(store, "p2")))
        out = join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        assert len(out) == 1
        assert out[0].tuple == REACH.tuple("A", "C")

    def test_duplicate_edge_suppressed(self, store):
        join = self._join(store)
        join.process_right(insert(REACH.tuple("B", "C"), provenance=pv(store, "p2")))
        join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        assert join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1"))) == []

    def test_combiner_rejection(self, store):
        join = PipelinedHashJoin(
            "join",
            store,
            left_key=lambda t: t["dst"],
            right_key=lambda t: t["src"],
            combine=lambda edge, view: None,
        )
        join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        assert join.process_right(insert(REACH.tuple("B", "C"), provenance=pv(store, "p2"))) == []

    def test_purge_base_removes_state(self, store):
        join = self._join(store)
        join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        join.process_right(insert(REACH.tuple("B", "C"), provenance=pv(store, "p2")))
        join.purge_base(["p1"])
        assert join.left_tuples() == []
        assert join.right_tuples() == [REACH.tuple("B", "C")]

    def test_set_semantics_delete_cascades(self):
        store = NullProvenanceStore()
        join = self._join(store)
        join.process_left(insert(LINK.tuple("A", "B")))
        join.process_right(insert(REACH.tuple("B", "C")))
        out = join.process_left(delete(LINK.tuple("A", "B")))
        assert len(out) == 1
        assert out[0].is_delete and out[0].tuple == REACH.tuple("A", "C")

    def test_clear_left(self, store):
        join = self._join(store)
        join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        join.clear_left()
        assert join.left_tuples() == []

    def test_state_bytes(self, store):
        join = self._join(store)
        before = join.state_bytes()
        join.process_left(insert(LINK.tuple("A", "B"), provenance=pv(store, "p1")))
        assert join.state_bytes() > before


class TestMinShip:
    def test_first_derivation_ships_immediately(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        out = ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert len(out) == 1

    def test_lazy_buffers_alternate_derivations(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        assert out == []
        assert REACH.tuple("A", "B") in ship.pending_insertions

    def test_absorbed_derivation_not_buffered(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1", "p2")))
        assert out == []
        assert REACH.tuple("A", "B") not in ship.pending_insertions

    def test_eager_flush_ships_buffered_derivations(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.EAGER, batch_size=100)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        flushed = ship.flush()
        assert len(flushed) == 1
        assert flushed[0].tuple == REACH.tuple("A", "B")

    def test_eager_auto_flush_at_batch_size(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.EAGER, batch_size=1)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        out = ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        assert len(out) == 1

    def test_lazy_flush_keeps_buffer(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        assert ship.flush() == []
        assert REACH.tuple("A", "B") in ship.pending_insertions

    def test_purge_releases_buffered_alternates(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p2")))
        released = ship.purge_base(["p1"])
        assert len(released) == 1
        assert released[0].is_insert
        assert store.equals(released[0].provenance, pv(store, "p2"))

    def test_purge_without_alternates_releases_nothing(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert ship.purge_base(["p1"]) == []

    def test_invalid_batch_size(self, store):
        with pytest.raises(ValueError):
            MinShipOperator("ms", store, batch_size=0)

    def test_plain_ship_forwards_everything(self):
        ship = ShipOperator("ship", NullProvenanceStore())
        update = insert(REACH.tuple("A", "B"))
        assert ship.process(update) == [update]
        assert ship.state_bytes() == 0

    def test_state_bytes(self, store):
        ship = MinShipOperator("ms", store, mode=ShipMode.LAZY)
        ship.process(insert(REACH.tuple("A", "B"), provenance=pv(store, "p1")))
        assert ship.state_bytes() > 0


class TestAggregateSelection:
    def _aggsel(self, store, multi=False):
        specs = [AggregateSpec(("src", "dst"), "cost", AggregateFunctionKind.MIN)]
        if multi:
            specs.append(AggregateSpec(("src", "dst"), "length", AggregateFunctionKind.MIN))
        return AggregateSelection(store, specs)

    def test_first_tuple_passes(self, store):
        aggsel = self._aggsel(store)
        out = aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        assert len(out) == 1

    def test_worse_tuple_suppressed(self, store):
        aggsel = self._aggsel(store)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        out = aggsel.process(insert(PATH.tuple("A", "B", 9, 3), provenance=pv(store, "p2")))
        assert out == []
        assert aggsel.suppressed_count >= 1

    def test_better_tuple_displaces_old_best(self, store):
        aggsel = self._aggsel(store)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        out = aggsel.process(insert(PATH.tuple("A", "B", 3, 4), provenance=pv(store, "p2")))
        kinds = [(u.type, u.tuple["cost"]) for u in out]
        assert (UpdateType.DEL, 5) in kinds
        assert (UpdateType.INS, 3) in kinds

    def test_multi_aggregate_keeps_both_winners(self, store):
        aggsel = self._aggsel(store, multi=True)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        # Worse cost but better hop count: survives because of the second aggregate.
        out = aggsel.process(insert(PATH.tuple("A", "B", 9, 1), provenance=pv(store, "p2")))
        assert any(u.is_insert and u.tuple["length"] == 1 for u in out)

    def test_deleting_best_promotes_next(self, store):
        aggsel = self._aggsel(store)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        aggsel.process(insert(PATH.tuple("A", "B", 7, 3), provenance=pv(store, "p2")))
        out = aggsel.purge_base(["p1"])
        ins = [u for u in out if u.is_insert]
        assert any(u.tuple["cost"] == 7 for u in ins)
        assert aggsel.best_for(("A", "B"))["cost"] == 7

    def test_deleting_non_best_is_silent(self, store):
        aggsel = self._aggsel(store)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        aggsel.process(insert(PATH.tuple("A", "B", 7, 3), provenance=pv(store, "p2")))
        out = aggsel.purge_base(["p2"])
        assert all(not u.is_insert for u in out)
        assert aggsel.best_for(("A", "B"))["cost"] == 5

    def test_delete_before_insert_ignored(self, store):
        aggsel = self._aggsel(store)
        assert aggsel.process(delete(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1"))) == []

    def test_different_groups_are_independent(self, store):
        aggsel = self._aggsel(store)
        out1 = aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        out2 = aggsel.process(insert(PATH.tuple("A", "C", 9, 3), provenance=pv(store, "p2")))
        assert len(out1) == 1 and len(out2) == 1

    def test_requires_specs(self, store):
        with pytest.raises(ValueError):
            AggregateSelection(store, [])

    def test_requires_consistent_groups(self, store):
        with pytest.raises(ValueError):
            AggregateSelection(
                store,
                [
                    AggregateSpec(("src", "dst"), "cost"),
                    AggregateSpec(("src",), "length"),
                ],
            )

    def test_state_bytes(self, store):
        aggsel = self._aggsel(store)
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        assert aggsel.state_bytes() > 0

    def test_max_aggregate(self, store):
        aggsel = AggregateSelection(
            store, [AggregateSpec(("src", "dst"), "cost", AggregateFunctionKind.MAX)]
        )
        aggsel.process(insert(PATH.tuple("A", "B", 5, 2), provenance=pv(store, "p1")))
        out = aggsel.process(insert(PATH.tuple("A", "B", 9, 3), provenance=pv(store, "p2")))
        assert any(u.is_insert and u.tuple["cost"] == 9 for u in out)
