"""Ship and MinShip operators (Algorithm 3, Section 5).

A conventional Ship operator forwards every update it receives to a remote
node.  With provenance, that is wasteful: every *new derivation* of an
already-known tuple would cross the network even though the receiver usually
does not need it.  MinShip therefore:

* always ships the **first** derivation of a tuple immediately (the receiver
  needs to learn the tuple exists);
* **buffers** subsequent derivations, merging them into a single absorbed
  provenance expression (``Pins``);
* in **eager** mode, flushes the buffer whenever it reaches the batch size
  ``W`` (or on an explicit flush), so the receiver eventually holds the full
  provenance;
* in **lazy** mode, keeps alternate derivations local and only releases them
  when the derivation previously shipped for that tuple is invalidated by a
  deletion — the receiver then learns the surviving alternative instead of
  wrongly dropping the tuple.

The operator does not talk to sockets here; it returns the updates that must
be shipped and the engine runtime routes them to the destination node,
recording message sizes.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.data.batch import group_by_tuple, split_runs
from repro.data.tuples import Tuple
from repro.data.update import Update, UpdateType
from repro.operators.aggsel import AggregateSelection
from repro.operators.base import Operator, annotation_state_bytes
from repro.provenance.tracker import ProvenanceStore


class ShipMode(enum.Enum):
    """Propagation policy for buffered derivations."""

    EAGER = "eager"
    LAZY = "lazy"


class ShipOperator(Operator):
    """The conventional ship operator: forwards everything unchanged."""

    def __init__(self, name: str, store: ProvenanceStore) -> None:
        super().__init__(name, store)

    def process(self, update: Update) -> List[Update]:
        return self._record(update, [update])

    def process_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Forward the whole batch unchanged (one emission, no buffering)."""
        return self._record_batch(updates, list(updates))

    def export_state(self, encode) -> Dict[str, object]:
        """Plain Ship holds no state; snapshots are empty (but well-defined)."""
        return {}

    def import_state(self, state: Dict[str, object], decode) -> None:
        """Nothing to restore for the stateless ship."""

    def state_bytes(self) -> int:
        return 0


class MinShipOperator(Operator):
    """Provenance-buffering ship operator (Algorithm 3).

    ``Pins`` is a deferred accumulator: buffering a derivation appends it to
    the tuple's part list, and the parts are merged with one balanced
    ``disjoin_many`` the first time something reads ``Pins[t]`` (a flush, a
    purge, a state probe, a snapshot, a migration).  Between reads nothing
    needs the merged value, so a tuple costs one merge per release instead
    of one ladder step per derivation.
    """

    def __init__(
        self,
        name: str,
        store: ProvenanceStore,
        mode: ShipMode = ShipMode.LAZY,
        batch_size: int = 50,
        aggregate_selection: Optional[AggregateSelection] = None,
    ) -> None:
        super().__init__(name, store)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.mode = mode
        self.batch_size = batch_size
        self.aggregate_selection = aggregate_selection
        #: ``Bsent``: tuple -> provenance already shipped to the consumer.
        self.sent: Dict[Tuple, object] = {}
        #: ``Pins``: tuple -> non-empty list of buffered derivations not yet
        #: shipped, whose disjunction is ``Pins[t]``.  Read through
        #: :meth:`_pins_of` / :meth:`_merged_pins`, which merge.
        self._pins: Dict[Tuple, List[object]] = {}
        #: ``Pdel``: tuple -> buffered deletion provenance.
        self.pending_deletions: Dict[Tuple, object] = {}

    # -- the Pins accumulator -----------------------------------------------------
    def _pins_of(self, tuple_: Tuple) -> object:
        """``Pins[t]`` for a buffered tuple, merging its pending parts first."""
        parts = self._pins[tuple_]
        if len(parts) > 1:
            parts[:] = [self.store.disjoin_many(parts)]
        return parts[0]

    def _merged_pins(self) -> Dict[Tuple, object]:
        """A fresh ``tuple -> Pins[t]`` dict, every pending tail merged."""
        return {tuple_: self._pins_of(tuple_) for tuple_ in self._pins}

    @property
    def pending_insertions(self) -> Mapping[Tuple, object]:
        """Read-only snapshot of ``Pins`` (merges pending tails; for inspection)."""
        return MappingProxyType(self._merged_pins())

    def _restrict_pins(self, restrict) -> None:
        """Apply ``restrict`` to every ``Pins[t]``, dropping entries it zeroes."""
        is_zero = self.store.is_zero
        for tuple_ in list(self._pins):
            remaining = restrict(self._pins_of(tuple_))
            if is_zero(remaining):
                del self._pins[tuple_]
            else:
                self._pins[tuple_] = [remaining]

    def _release(self, tuple_: Tuple, outputs: List[Update]) -> bool:
        """Ship ``Pins[t]`` (if any) and fold it into ``Bsent[t]``."""
        if tuple_ not in self._pins:
            return False
        buffered = self._pins_of(tuple_)
        del self._pins[tuple_]
        outputs.append(Update(UpdateType.INS, tuple_, provenance=buffered))
        shipped = self.sent.get(tuple_)
        self.sent[tuple_] = (
            buffered if shipped is None else self.store.disjoin(shipped, buffered)
        )
        return True

    def annotation_roots(self) -> Iterator[object]:
        """Every annotation this operator holds, unmerged parts included.

        The GC root protocol calls this mid-collection, so it must not run
        kernel work: the pending parts are yielded as they are.
        """
        yield from self.sent.values()
        for parts in self._pins.values():
            yield from parts
        yield from self.pending_deletions.values()
        if self.aggregate_selection is not None:
            yield from self.aggregate_selection.provenance.values()

    # -- stream processing --------------------------------------------------------
    def process(self, update: Update) -> List[Update]:
        pending = [update]
        if self.aggregate_selection is not None:
            pending = self.aggregate_selection.process(update)
        outputs: List[Update] = []
        for current in pending:
            outputs.extend(self._process_one(current))
        if self._buffered_count() >= self.batch_size:
            outputs.extend(self.flush())
        return self._record(update, outputs)

    def process_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Batch-wise Algorithm 3: same-tuple derivations are tested as one group.

        An insertion group for a tuple already in ``Bsent`` is suppressed
        when the consumer already knows all of it and buffered whole
        otherwise; a group for a brand-new tuple ships its first derivation
        immediately (the receiver must learn the tuple exists) and treats the
        rest the same way.  Deletions keep their sequential semantics.  The
        batch-size flush trigger fires at the same points as tuple-at-a-time
        processing because the buffered-key count only changes once per tuple
        group.
        """
        pending: Sequence[Update] = updates
        if self.aggregate_selection is not None:
            pending = self.aggregate_selection.process_batch(updates)
        outputs: List[Update] = []
        for is_insert, run in split_runs(pending):
            for tuple_, items in group_by_tuple(run).items():
                if is_insert and self.store.supports_deletion:
                    outputs.extend(self._insert_group(tuple_, items))
                else:
                    for item in items:
                        outputs.extend(self._process_one(item))
                if self._buffered_count() >= self.batch_size:
                    outputs.extend(self.flush())
        return self._record_batch(updates, outputs)

    def _insert_group(self, tuple_: Tuple, items: Sequence[Update]) -> List[Update]:
        store = self.store
        annotations = [
            item.provenance if item.provenance is not None else store.one()
            for item in items
        ]
        outputs: List[Update] = []
        previously_sent = self.sent.get(tuple_)
        if previously_sent is None:
            # First derivation of a brand-new tuple: ship it right away.
            first = annotations.pop(0)
            self.sent[tuple_] = first
            previously_sent = first
            outputs.append(items[0].with_provenance(first))
            if not annotations:
                return outputs
        # Test without building anything, and stop at the first derivation
        # the consumer does not already know.
        if not all(store.absorbs(previously_sent, a) for a in annotations):
            self._pins.setdefault(tuple_, []).extend(annotations)
        return outputs

    def _process_one(self, update: Update) -> List[Update]:
        if update.is_insert:
            return self._insert_group(update.tuple, (update,))
        if update.tuple not in self.sent:
            # A deletion for a tuple we never shipped: nothing to suppress.
            return [update]
        # Deletion of a tuple we have shipped before.
        if self.store.supports_deletion and update.provenance is not None:
            return self._buffer_deletion(update)
        # Set semantics: just forward the deletion.
        del self.sent[update.tuple]
        self._pins.pop(update.tuple, None)
        return [update]

    def _buffer_deletion(self, update: Update) -> List[Update]:
        store = self.store
        annotation = update.provenance
        # Remove the deleted derivations from anything still buffered (Alg 3 lines 20-25).
        not_deleted = store.difference(store.one(), annotation)
        self._restrict_pins(lambda buffered: store.conjoin(buffered, not_deleted))
        existing = self.pending_deletions.get(update.tuple, store.zero())
        self.pending_deletions[update.tuple] = store.disjoin(existing, annotation)
        return []

    # -- flush / batched shipping -----------------------------------------------------
    def _buffered_count(self) -> int:
        return len(self._pins) + len(self.pending_deletions)

    def flush(self) -> List[Update]:
        """Ship buffered state according to the mode (BatchShipEager / BatchShipLazy)."""
        outputs: List[Update] = []
        if self.mode is ShipMode.EAGER:
            for tuple_ in list(self._pins):
                self._release(tuple_, outputs)
        for tuple_, annotation in self.pending_deletions.items():
            outputs.append(Update(UpdateType.DEL, tuple_, provenance=annotation))
            # Lazy: a deleted tuple's buffered alternates follow its deletion
            # (Eager has nothing left buffered here).
            self._release(tuple_, outputs)
        self.pending_deletions.clear()
        return outputs

    # -- broadcast deletions --------------------------------------------------------------
    def purge_base(self, base_keys: Iterable[Hashable]) -> List[Update]:
        """React to deleted base tuples: release buffered alternate derivations.

        The consumer also receives the broadcast and zeroes the deleted
        variables in its own state; what it *cannot* know about are the
        alternative derivations this MinShip buffered and never shipped.  For
        every tuple whose already-shipped provenance was affected, ship the
        surviving buffered derivations so the consumer does not lose the tuple.
        """
        if not self.store.supports_deletion:
            return []
        removed = list(base_keys)
        restrict = self.store.base_restrictor(removed)
        outputs: List[Update] = []
        # Restrict buffered insertions first.
        self._restrict_pins(restrict)
        # For every affected shipped tuple, release surviving buffered derivations.
        for tuple_, shipped in list(self.sent.items()):
            restricted = restrict(shipped)
            if self.store.equals(restricted, shipped):
                continue
            self.sent[tuple_] = restricted
            if not self._release(tuple_, outputs) and self.store.is_zero(restricted):
                del self.sent[tuple_]
        if self.aggregate_selection is not None:
            outputs.extend(self.aggregate_selection.purge_base(removed))
        return outputs

    # -- elasticity (live partition migration support) ---------------------------------------
    def extract_tables(self):
        """Drain and return ``(Bsent, Pins, Pdel)`` for migration off this node.

        Used when the elastic subsystem decommissions a node.  What must
        survive is the *release* obligation: the buffered alternates in
        ``Pins``/``Pdel`` (and the ``Bsent`` entries whose invalidation
        triggers their release) have to live somewhere a purge broadcast can
        still reach — so the tables move wholesale to live peers instead of
        being dropped or force-flushed.  ``Bsent``'s other job, suppressing
        re-derivations, is deliberately *not* preserved across the move: the
        nodes inheriting this producer's join state start with empty ``Bsent``
        and may re-ship derivations the consumer already absorbed, which the
        receiver's idempotent disjoin absorbs at the cost of some duplicate
        traffic (an exact per-join-key split of ``Bsent`` is impossible — an
        output tuple does not identify the join key that produced it).
        """
        sent, pins, pdel = self.sent, self._merged_pins(), self.pending_deletions
        self.sent = {}
        self._pins = {}
        self.pending_deletions = {}
        return sent, pins, pdel

    def absorb_tables(
        self,
        sent: Dict[Tuple, object],
        pending_insertions: Dict[Tuple, object],
        pending_deletions: Dict[Tuple, object],
    ) -> None:
        """Disjoin-merge migrated ``Bsent``/``Pins``/``Pdel`` entries into this ship."""
        for table, entries in ((self.sent, sent), (self.pending_deletions, pending_deletions)):
            for tuple_, annotation in entries.items():
                existing = table.get(tuple_)
                if existing is None:
                    table[tuple_] = annotation
                else:
                    table[tuple_] = self.store.disjoin(existing, annotation)
        for tuple_, annotation in pending_insertions.items():
            self._pins.setdefault(tuple_, []).append(annotation)

    # -- durability (checkpoint / recovery support) ------------------------------------------
    def export_state(self, encode) -> Dict[str, object]:
        """Capture ``Bsent`` / ``Pins`` / ``Pdel`` with annotations flattened via ``encode``.

        Restoring this state on a rebooted node is what lets MinShip keep its
        promise after a crash: derivations buffered (and never shipped) before
        the failure can still be released when a deletion invalidates what the
        consumer holds.
        """
        state: Dict[str, object] = {
            "sent": {t: encode(pv) for t, pv in self.sent.items()},
            "pending_insertions": {t: encode(self._pins_of(t)) for t in self._pins},
            "pending_deletions": {
                t: encode(pv) for t, pv in self.pending_deletions.items()
            },
        }
        if self.aggregate_selection is not None:
            state["aggsel"] = self.aggregate_selection.export_state(encode)
        return state

    def import_state(self, state: Dict[str, object], decode) -> None:
        """Restore the buffer tables captured by :meth:`export_state`."""
        self.sent = {t: decode(pv) for t, pv in state["sent"].items()}
        self._pins = {t: [decode(pv)] for t, pv in state["pending_insertions"].items()}
        self.pending_deletions = {
            t: decode(pv) for t, pv in state["pending_deletions"].items()
        }
        if self.aggregate_selection is not None and "aggsel" in state:
            self.aggregate_selection.import_state(state["aggsel"], decode)

    # -- metrics -----------------------------------------------------------------------------
    def state_bytes(self) -> int:
        """Sent, buffered-insert and buffered-delete provenance tables."""
        total = 0
        for table in (self.sent, self._merged_pins(), self.pending_deletions):
            total += sum(t.size_bytes() for t in table)
            total += annotation_state_bytes(self.store, table.values())
        if self.aggregate_selection is not None:
            total += self.aggregate_selection.state_bytes()
        return total
