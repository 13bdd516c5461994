"""The provenance-aware pipelined (symmetric) hash join — Algorithm 2.

Each side of the join keeps two hash tables: one from join-key to tuples
(``hR`` / ``hS``) and one from tuple to its absorbed provenance (``pR`` /
``pS``).  Processing an update on one side probes the other side and emits
joined results whose provenance is the conjunction ``u.pv AND pv(other)``;
deletions either carry provenance (provenance strategies) or cascade in set
semantics (DRed).

The combiner that builds the output tuple is pluggable (``combine``) so the
same operator implements the recursive rules of all three use cases:

* ``reachable(x, y) :- link(x, z), reachable(z, y)``
* ``path(x, y, p, c, l) :- link(x, z, c0), path(z, y, p1, c1, l1), ...``
* ``activeRegion(r, y) :- proximity(x, y), activeRegion(r, x), ...``

``combine`` may return ``None`` to reject a pairing (for example to cut off
cyclic paths or enforce a hop bound), which plays the role of the rule's extra
selection predicates.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as PyTuple

from repro.data.batch import group_by_tuple, split_runs
from repro.data.tuples import Tuple
from repro.data.update import Update, UpdateType
from repro.operators.base import Operator, annotation_state_bytes
from repro.provenance.tracker import ProvenanceStore

#: Builds the joined output tuple from (edge-side tuple, recursive-side tuple);
#: returns None when the pairing is rejected.
Combiner = Callable[[Tuple, Tuple], Optional[Tuple]]


_TUPLE_ORDER = attrgetter("key")

_NO_MATCHES: PyTuple[Tuple, ...] = ()


class _JoinSide:
    """State for one input of the symmetric hash join.

    Each ``h`` bucket is kept *sorted* by the tuples' identity key, so probes
    iterate matches in deterministic order with no per-probe sort.
    """

    __slots__ = ("key_fn", "by_key", "provenance")

    def __init__(self, key_fn: Callable[[Tuple], Any]) -> None:
        self.key_fn = key_fn
        #: ``h``: join-key -> list of tuples with that key, sorted by identity.
        self.by_key: Dict[Any, List[Tuple]] = {}
        #: ``p``: tuple -> provenance annotation.
        self.provenance: Dict[Tuple, object] = {}

    def add(self, tuple_: Tuple) -> None:
        key = self.key_fn(tuple_)
        bucket = self.by_key.get(key)
        if bucket is None:
            self.by_key[key] = [tuple_]
        else:
            insort(bucket, tuple_, key=_TUPLE_ORDER)

    def remove(self, tuple_: Tuple) -> None:
        key = self.key_fn(tuple_)
        bucket = self.by_key.get(key)
        if bucket is not None:
            try:
                bucket.remove(tuple_)
            except ValueError:
                pass
            if not bucket:
                del self.by_key[key]

    def matches(self, key: Any) -> Sequence[Tuple]:
        """Tuples stored under ``key``, sorted by identity key."""
        return self.by_key.get(key, _NO_MATCHES)

    def state_bytes(self, store: ProvenanceStore) -> int:
        total = sum(t.size_bytes() for t in self.provenance)
        total += annotation_state_bytes(store, self.provenance.values())
        return total


class PipelinedHashJoin(Operator):
    """Symmetric hash join over two update streams ("left" and "right")."""

    LEFT = "left"
    RIGHT = "right"

    def __init__(
        self,
        name: str,
        store: ProvenanceStore,
        left_key: Callable[[Tuple], Any],
        right_key: Callable[[Tuple], Any],
        combine: Combiner,
    ) -> None:
        super().__init__(name, store)
        self._left = _JoinSide(left_key)
        self._right = _JoinSide(right_key)
        self._combine = combine

    # -- public entry points ----------------------------------------------------
    def process(self, update: Update) -> List[Update]:
        """Updates default to the left input; use process_left/right explicitly."""
        return self.process_left(update)

    def process_left(self, update: Update) -> List[Update]:
        """Consume an update on the left (edge) input."""
        outputs = self._process_side(update, self._left, self._right, left_is_update=True)
        return self._record(update, outputs)

    def process_right(self, update: Update) -> List[Update]:
        """Consume an update on the right (recursive) input."""
        outputs = self._process_side(update, self._right, self._left, left_is_update=False)
        return self._record(update, outputs)

    def process_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Batches default to the left input, mirroring :meth:`process`."""
        return self.process_left_batch(updates)

    def process_left_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Consume a delta batch on the left (edge) input."""
        outputs = self._process_side_batch(updates, self._left, self._right, left_is_update=True)
        return self._record_batch(updates, outputs)

    def process_right_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Consume a delta batch on the right (recursive) input."""
        outputs = self._process_side_batch(updates, self._right, self._left, left_is_update=False)
        return self._record_batch(updates, outputs)

    def _process_side_batch(
        self,
        updates: Sequence[Update],
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        """Batch-wise HalfPipeIns/HalfPipeDel: one probe per changed key.

        Same-tuple updates within a type run merge their contributing
        annotations and probe the opposite side once with the disjunction,
        so a key that would have probed (and conjoined against every match)
        k times probes exactly once.  Updates of distinct tuples within a run
        never interact — each only mutates its own hash-table entry and reads
        the *other* side — so grouping is order-safe; the INS/DEL run
        boundaries, which do carry meaning, are preserved.
        """
        outputs: List[Update] = []
        for is_insert, run in split_runs(updates):
            for tuple_, items in group_by_tuple(run).items():
                if is_insert:
                    outputs.extend(
                        self._ins_group(tuple_, items, mine, other, left_is_update)
                    )
                else:
                    outputs.extend(
                        self._del_group(tuple_, items, mine, other, left_is_update)
                    )
        return outputs

    def _ins_group(
        self,
        tuple_: Tuple,
        items: List[Update],
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        """Merge a same-tuple insertion group into ``h``/``p``, probe once.

        Each annotation is disjoined into the stored one with the same
        per-update absorption check as the sequential path (so the state —
        and which annotations count as *contributing* — is bit-identical);
        the probe then runs once with the disjunction of the contributing
        annotations, whose conjunction with each match equals the
        disjunction of the sequential per-update probe outputs.
        """
        contributing: List[object] = []
        existing = mine.provenance.get(tuple_)
        for item in items:
            annotation = item.provenance if item.provenance is not None else self.store.one()
            if existing is None:
                existing = annotation
                contributing.append(annotation)
            else:
                merged = self.store.disjoin(existing, annotation)
                if not self.store.equals(merged, existing):
                    contributing.append(annotation)
                    existing = merged
        was_present = tuple_ in mine.provenance
        mine.provenance[tuple_] = existing
        if not was_present:
            mine.add(tuple_)
        if not contributing:
            return []
        delta = self.store.disjoin_many(contributing)
        return self._probe_key(
            tuple_, UpdateType.INS, delta, items[-1].timestamp, mine, other, left_is_update
        )

    def _del_group(
        self,
        tuple_: Tuple,
        items: List[Update],
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        """Apply a same-tuple deletion group update-at-a-time.

        Deletion groups are almost always singletons, and a deletion can
        remove the stored entry mid-group, changing what its siblings would
        do — so the sequential semantics are kept verbatim.
        """
        outputs: List[Update] = []
        for item in items:
            outputs.extend(self._half_pipe_del(item, mine, other, left_is_update))
        return outputs

    # -- core HalfPipeIns / HalfPipeDel logic ------------------------------------------
    def _process_side(
        self,
        update: Update,
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        if update.is_insert:
            return self._half_pipe_ins(update, mine, other, left_is_update)
        return self._half_pipe_del(update, mine, other, left_is_update)

    def _half_pipe_ins(
        self, update: Update, mine: _JoinSide, other: _JoinSide, left_is_update: bool
    ) -> List[Update]:
        annotation = update.provenance if update.provenance is not None else self.store.one()
        existing = mine.provenance.get(update.tuple)
        if existing is None:
            mine.provenance[update.tuple] = annotation
            mine.add(update.tuple)
            changed = True
            delta = annotation
        else:
            merged = self.store.disjoin(existing, annotation)
            changed = not self.store.equals(merged, existing)
            mine.provenance[update.tuple] = merged
            delta = annotation
        if not changed:
            return []
        return self._probe(update, UpdateType.INS, delta, mine, other, left_is_update)

    def _half_pipe_del(
        self, update: Update, mine: _JoinSide, other: _JoinSide, left_is_update: bool
    ) -> List[Update]:
        existing = mine.provenance.get(update.tuple)
        if existing is None:
            return []
        if self.store.supports_deletion and update.provenance is not None:
            remaining = self.store.conjoin(
                existing, self.store.difference(self.store.one(), update.provenance)
            )
            changed = not self.store.equals(remaining, existing)
            if self.store.is_zero(remaining):
                del mine.provenance[update.tuple]
                mine.remove(update.tuple)
            else:
                mine.provenance[update.tuple] = remaining
            delta = update.provenance
        else:
            # Set semantics: remove the tuple outright and cascade the deletion.
            del mine.provenance[update.tuple]
            mine.remove(update.tuple)
            changed = True
            delta = self.store.one()
        if not changed:
            return []
        return self._probe(update, UpdateType.DEL, delta, mine, other, left_is_update)

    def _probe(
        self,
        update: Update,
        out_type: UpdateType,
        delta: object,
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        return self._probe_key(
            update.tuple, out_type, delta, update.timestamp, mine, other, left_is_update
        )

    def _probe_key(
        self,
        tuple_: Tuple,
        out_type: UpdateType,
        delta: object,
        timestamp: float,
        mine: _JoinSide,
        other: _JoinSide,
        left_is_update: bool,
    ) -> List[Update]:
        outputs: List[Update] = []
        key = mine.key_fn(tuple_)
        for match in other.matches(key):
            if left_is_update:
                joined = self._combine(tuple_, match)
            else:
                joined = self._combine(match, tuple_)
            if joined is None:
                continue
            other_annotation = other.provenance.get(match, self.store.one())
            annotation = self.store.conjoin(delta, other_annotation)
            if self.store.is_zero(annotation):
                continue
            outputs.append(
                Update(out_type, joined, provenance=annotation, timestamp=timestamp)
            )
        return outputs

    # -- broadcast deletions --------------------------------------------------------------------
    def purge_base(self, base_keys: Iterable[Hashable]) -> List[Update]:
        """Zero out deleted base tuples in both sides' provenance tables."""
        if not self.store.supports_deletion:
            return []
        restrict = self.store.base_restrictor(base_keys)
        for side in (self._left, self._right):
            dead: List[Tuple] = []
            for tuple_, annotation in side.provenance.items():
                restricted = restrict(annotation)
                if self.store.equals(restricted, annotation):
                    continue
                if self.store.is_zero(restricted):
                    dead.append(tuple_)
                else:
                    side.provenance[tuple_] = restricted
            for tuple_ in dead:
                del side.provenance[tuple_]
                side.remove(tuple_)
        return []

    # -- DRed support ------------------------------------------------------------------------------
    def clear_left(self) -> None:
        """Drop the left-side (edge) state.

        Used by the DRed coordinator before its re-derivation phase: the live
        edges are re-scanned and re-shipped, so they must probe the surviving
        view tuples again rather than be suppressed as duplicates.
        """
        self._left.by_key.clear()
        self._left.provenance.clear()

    # -- elasticity (live partition migration support) ----------------------------------------------
    def extract_side(self, side: str, should_move) -> Dict[Tuple, object]:
        """Remove and return one side's entries selected by ``should_move``.

        ``side`` is :attr:`LEFT` or :attr:`RIGHT`.  The key index is kept
        consistent; the new owner re-indexes on :meth:`absorb_side`.  Used by
        :mod:`repro.placement` when a join key changes owner.
        """
        state = self._left if side == self.LEFT else self._right
        moved: Dict[Tuple, object] = {}
        for tuple_ in [t for t in state.provenance if should_move(t)]:
            moved[tuple_] = state.provenance.pop(tuple_)
            state.remove(tuple_)
        return moved

    def absorb_side(self, side: str, entries: Dict[Tuple, object]) -> None:
        """Merge migrated entries into one side (disjoin on overlap), re-indexing."""
        state = self._left if side == self.LEFT else self._right
        for tuple_, annotation in entries.items():
            existing = state.provenance.get(tuple_)
            if existing is None:
                state.provenance[tuple_] = annotation
                state.add(tuple_)
            else:
                state.provenance[tuple_] = self.store.disjoin(existing, annotation)

    # -- durability (checkpoint / recovery support) -------------------------------------------------
    def export_state(self, encode) -> Dict[str, object]:
        """Capture both sides' provenance tables (``hR``/``hS`` are rebuilt on import)."""
        return {
            "left": {t: encode(pv) for t, pv in self._left.provenance.items()},
            "right": {t: encode(pv) for t, pv in self._right.provenance.items()},
        }

    def import_state(self, state: Dict[str, object], decode) -> None:
        """Restore both sides; the key-index tables are rebuilt from the tuples."""
        for side, captured in ((self._left, state["left"]), (self._right, state["right"])):
            side.provenance = {t: decode(pv) for t, pv in captured.items()}
            side.by_key.clear()
            for tuple_ in side.provenance:
                side.add(tuple_)

    # -- introspection -----------------------------------------------------------------------------
    def left_tuples(self) -> List[Tuple]:
        """Tuples currently stored on the left side."""
        return list(self._left.provenance)

    def right_tuples(self) -> List[Tuple]:
        """Tuples currently stored on the right side."""
        return list(self._right.provenance)

    def state_bytes(self) -> int:
        """Both hash tables plus their provenance annotations."""
        return self._left.state_bytes(self.store) + self._right.state_bytes(self.store)
