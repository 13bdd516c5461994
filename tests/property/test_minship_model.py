"""Model test: MinShip's deferred ``Pins`` against an eager ladder reference.

:class:`~repro.operators.ship.MinShipOperator` appends buffered derivations
and merges them the first time something reads ``Pins[t]``.  The reference
below is Algorithm 3 written the obvious way — every derivation is folded into
``Pins[t]`` with one ``disjoin`` the moment it is buffered.  Random
interleavings of every operation that can read, rewrite or move the tables
must leave both with the same emitted updates, the same tables and the same
``state_bytes()``: BDD annotations are canonical, so "same function" is
"same handle value" and any divergence is a semantic one.
"""

from hypothesis import given, settings, strategies as st

from repro.data.tuples import make_schema
from repro.data.update import Update, UpdateType
from repro.operators import MinShipOperator, ShipMode
from repro.provenance import AbsorptionProvenanceStore

REACH = make_schema("reachable", ["src", "dst"])
TUPLES = [REACH.tuple("A", name) for name in "BCD"]
VARIABLES = [f"p{i}" for i in range(6)]
#: Small, so the batch-size flush trigger fires inside the interleavings.
BATCH_SIZE = 3


class LadderMinShip:
    """Algorithm 3 with ``Pins`` merged eagerly, one disjoin per derivation."""

    def __init__(self, store, mode):
        self.store = store
        self.mode = mode
        self.sent, self.pins, self.pdel = {}, {}, {}

    def _after(self, outputs):
        if len(self.pins) + len(self.pdel) >= BATCH_SIZE:
            outputs.extend(self.flush())
        return outputs

    def insert_group(self, tuple_, annotations):
        store, outputs = self.store, []
        annotations = list(annotations)
        if tuple_ not in self.sent:
            self.sent[tuple_] = annotations.pop(0)
            outputs.append(Update(UpdateType.INS, tuple_, provenance=self.sent[tuple_]))
        group = store.zero()
        for annotation in annotations:
            group = store.disjoin(group, annotation)
        shipped = self.sent[tuple_]
        if annotations and not store.equals(store.disjoin(shipped, group), shipped):
            buffered = self.pins.get(tuple_, store.zero())
            self.pins[tuple_] = store.disjoin(buffered, group)
        return self._after(outputs)

    def delete(self, tuple_, annotation):
        store = self.store
        if tuple_ not in self.sent:
            return self._after([Update(UpdateType.DEL, tuple_, provenance=annotation)])
        survives = store.difference(store.one(), annotation)
        self._rewrite_pins(lambda buffered: store.conjoin(buffered, survives))
        self.pdel[tuple_] = store.disjoin(self.pdel.get(tuple_, store.zero()), annotation)
        return self._after([])

    def _rewrite_pins(self, rewrite):
        for tuple_, buffered in list(self.pins.items()):
            remaining = rewrite(buffered)
            if self.store.is_zero(remaining):
                del self.pins[tuple_]
            else:
                self.pins[tuple_] = remaining

    def _release(self, tuple_, outputs):
        buffered = self.pins.pop(tuple_)
        outputs.append(Update(UpdateType.INS, tuple_, provenance=buffered))
        shipped = self.sent.get(tuple_, self.store.zero())
        self.sent[tuple_] = self.store.disjoin(shipped, buffered)

    def flush(self):
        outputs = []
        if self.mode is ShipMode.EAGER:
            for tuple_ in list(self.pins):
                self._release(tuple_, outputs)
        for tuple_, annotation in self.pdel.items():
            outputs.append(Update(UpdateType.DEL, tuple_, provenance=annotation))
            if tuple_ in self.pins:
                self._release(tuple_, outputs)
        self.pdel.clear()
        return outputs

    def purge_base(self, keys):
        store, outputs = self.store, []
        self._rewrite_pins(lambda buffered: store.remove_base(buffered, keys))
        for tuple_, shipped in list(self.sent.items()):
            restricted = store.remove_base(shipped, keys)
            if store.equals(restricted, shipped):
                continue
            self.sent[tuple_] = restricted
            if tuple_ in self.pins:
                self._release(tuple_, outputs)
            elif store.is_zero(restricted):
                del self.sent[tuple_]
        return outputs


def _annotations(store, products_list):
    return [store.annotation_from_products(products) for products in products_list]


_product = st.sets(st.sampled_from(VARIABLES), min_size=1, max_size=3)
_annotation = st.lists(_product, min_size=1, max_size=2)
_tuple_index = st.integers(min_value=0, max_value=len(TUPLES) - 1)
_operation = st.one_of(
    st.tuples(st.just("insert"), _tuple_index, st.lists(_annotation, min_size=1, max_size=4)),
    st.tuples(st.just("delete"), _tuple_index, _annotation),
    st.tuples(st.just("purge"), st.sets(st.sampled_from(VARIABLES), min_size=1, max_size=2)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("migrate")),
    st.tuples(st.just("probe")),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(ShipMode)), st.lists(_operation, min_size=1, max_size=25))
def test_deferred_pins_match_the_eager_ladder(mode, operations):
    store = AbsorptionProvenanceStore()
    store.manager.variables(*VARIABLES)
    ship = MinShipOperator("ms", store, mode=mode, batch_size=BATCH_SIZE)
    model = LadderMinShip(store, mode)
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            tuple_ = TUPLES[operation[1]]
            annotations = _annotations(store, operation[2])
            batch = [Update(UpdateType.INS, tuple_, provenance=a) for a in annotations]
            assert ship.process_batch(batch) == model.insert_group(tuple_, annotations)
        elif kind == "delete":
            tuple_ = TUPLES[operation[1]]
            (annotation,) = _annotations(store, [operation[2]])
            batch = [Update(UpdateType.DEL, tuple_, provenance=annotation)]
            assert ship.process_batch(batch) == model.delete(tuple_, annotation)
        elif kind == "purge":
            assert ship.purge_base(sorted(operation[1])) == model.purge_base(sorted(operation[1]))
        elif kind == "flush":
            assert ship.flush() == model.flush()
        elif kind == "checkpoint":
            # Crash and recover: a fresh operator restored from the snapshot.
            state = ship.export_state(store.encode_annotation)
            ship = MinShipOperator("ms", store, mode=mode, batch_size=BATCH_SIZE)
            ship.import_state(state, store.decode_annotation)
        elif kind == "migrate":
            # Decommission: the tables move wholesale into a fresh operator.
            tables = ship.extract_tables()
            assert ship.state_bytes() == 0
            ship = MinShipOperator("ms", store, mode=mode, batch_size=BATCH_SIZE)
            ship.absorb_tables(*tables)
        else:
            assert ship.state_bytes() == _model_state_bytes(model)
    assert ship.sent == model.sent
    assert ship.pending_insertions == model.pins
    assert ship.pending_deletions == model.pdel
    assert ship.state_bytes() == _model_state_bytes(model)


def _model_state_bytes(model):
    return sum(
        tuple_.size_bytes() + model.store.size_bytes(annotation)
        for table in (model.sent, model.pins, model.pdel)
        for tuple_, annotation in table.items()
    )


def test_migrated_pins_join_the_pending_tail():
    """``absorb_tables`` into an operator that already buffers the tuple."""
    store = AbsorptionProvenanceStore()
    p1, p2, p3, p4 = (store.annotation_from_products([[name]]) for name in VARIABLES[:4])
    tuple_ = TUPLES[0]
    donor = MinShipOperator("donor", store)
    heir = MinShipOperator("heir", store)
    for ship, first, alternate in ((donor, p1, p2), (heir, p3, p4)):
        ship.process_batch([Update(UpdateType.INS, tuple_, provenance=first)])
        ship.process_batch([Update(UpdateType.INS, tuple_, provenance=alternate)])
    heir.absorb_tables(*donor.extract_tables())
    # The GC root protocol sees the unmerged parts; reading ``Pins`` merges them.
    assert list(heir.annotation_roots()) == [p1 | p3, p4, p2]
    assert heir.sent == {tuple_: p1 | p3}
    assert heir.pending_insertions == {tuple_: p2 | p4}
    assert list(heir.annotation_roots()) == [p1 | p3, p2 | p4]
