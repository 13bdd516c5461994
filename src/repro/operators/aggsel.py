"""Aggregate selection over update streams (Algorithm 4, Section 6).

Aggregate selection prunes tuples that cannot contribute to a downstream
aggregate: while computing ``minCost(src, dst, min(cost))`` there is no point
shipping (or recursing on) a ``path`` tuple whose cost is already worse than
the best known cost for its ``(src, dst)`` group.  The paper extends the
classical technique to streams of insertions *and deletions* and to multiple
simultaneous aggregates (cost and hop count at once — "Multi AggSel" in
Figure 14), and embeds the module inside stateful operators (Fixpoint,
MinShip).

This module keeps, per group key:

* ``H`` — the buffered tuples seen for that group (needed to recompute the
  best value when the current best is deleted);
* ``P`` — each tuple's provenance;
* ``B`` — the current best tuple per aggregate function.

``process`` returns the (possibly empty) list of updates that should continue
through the plan; everything else is suppressed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple as PyTuple

from repro.data.batch import group_by_tuple, split_runs
from repro.data.tuples import Tuple
from repro.data.update import Update, UpdateType
from repro.provenance.tracker import ProvenanceStore


class AggregateFunctionKind(enum.Enum):
    """Which extremum the selection keeps per group."""

    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to prune on: group-by attributes, value attribute, direction."""

    group_attributes: PyTuple[str, ...]
    value_attribute: str
    kind: AggregateFunctionKind = AggregateFunctionKind.MIN

    def group_key(self, tuple_: Tuple) -> PyTuple[Any, ...]:
        """The tuple's group key under this spec."""
        return tuple(tuple_[attribute] for attribute in self.group_attributes)

    def value(self, tuple_: Tuple) -> Any:
        """The aggregated value of the tuple."""
        return tuple_[self.value_attribute]

    def better(self, candidate: Tuple, incumbent: Tuple) -> bool:
        """True when ``candidate`` strictly beats ``incumbent``."""
        if self.kind is AggregateFunctionKind.MIN:
            return self.value(candidate) < self.value(incumbent)
        return self.value(candidate) > self.value(incumbent)


class AggregateSelection:
    """The AggSel module of Algorithm 4 (embeddable in Fixpoint and MinShip)."""

    def __init__(self, store: ProvenanceStore, specs: Sequence[AggregateSpec]) -> None:
        if not specs:
            raise ValueError("aggregate selection requires at least one AggregateSpec")
        group_attrs = {spec.group_attributes for spec in specs}
        if len(group_attrs) != 1:
            raise ValueError("all AggregateSpecs must share the same group-by attributes")
        self.store = store
        self.specs = tuple(specs)
        self.group_attributes = self.specs[0].group_attributes
        #: ``H``: group key -> set of buffered tuples.
        self.groups: Dict[PyTuple[Any, ...], set] = {}
        #: ``P``: tuple -> provenance annotation.
        self.provenance: Dict[Tuple, object] = {}
        #: ``B``: group key -> {spec index -> best tuple}.
        self.best: Dict[PyTuple[Any, ...], Dict[int, Tuple]] = {}
        self.suppressed_count = 0

    # -- helpers ------------------------------------------------------------------
    def _group_key(self, tuple_: Tuple) -> PyTuple[Any, ...]:
        return tuple(tuple_[attribute] for attribute in self.group_attributes)

    def best_for(self, group_key: PyTuple[Any, ...], spec_index: int = 0) -> Optional[Tuple]:
        """Current best tuple of a group under the given aggregate (None if empty)."""
        return self.best.get(group_key, {}).get(spec_index)

    # -- stream processing -----------------------------------------------------------
    def process(self, update: Update) -> List[Update]:
        """Filter one update; return the updates that survive pruning."""
        if update.is_insert:
            return self._process_insert(update)
        return self._process_delete(update)

    def process_batch(self, updates: Sequence[Update]) -> List[Update]:
        """Filter a whole delta batch, merging same-tuple insertions first.

        Same-tuple insertions within a type run collapse to one update whose
        annotation is the disjoin chain of the group — the provenance table
        ends up identical and the best-tuple logic sees each tuple once.
        Deletions and cross-tuple ordering keep their sequential semantics
        (the best-displacement bookkeeping is order-sensitive between
        *different* tuples of a group).
        """
        outputs: List[Update] = []
        for is_insert, run in split_runs(updates):
            if not is_insert:
                for update in run:
                    outputs.extend(self._process_delete(update))
                continue
            for tuple_, items in group_by_tuple(run).items():
                if len(items) == 1:
                    outputs.extend(self._process_insert(items[0]))
                    continue
                one = self.store.one
                group_or = self.store.disjoin_many(
                    [
                        item.provenance if item.provenance is not None else one()
                        for item in items
                    ]
                )
                outputs.extend(self._process_insert(items[-1].with_provenance(group_or)))
        return outputs

    def _process_insert(self, update: Update) -> List[Update]:
        tuple_ = update.tuple
        annotation = update.provenance if update.provenance is not None else self.store.one()
        group_key = self._group_key(tuple_)
        existing = self.provenance.get(tuple_)
        if existing is None:
            self.provenance[tuple_] = annotation
            self.groups.setdefault(group_key, set()).add(tuple_)
            changed_pv = True
        else:
            merged = self.store.disjoin(existing, annotation)
            changed_pv = not self.store.equals(merged, existing)
            self.provenance[tuple_] = merged
        if not changed_pv:
            self.suppressed_count += 1
            return []

        outputs: List[Update] = []
        changed = False
        bests = self.best.setdefault(group_key, {})
        for index, spec in enumerate(self.specs):
            incumbent = bests.get(index)
            if incumbent is None:
                bests[index] = tuple_
                changed = True
            elif spec.better(tuple_, incumbent):
                outputs.append(
                    Update(
                        UpdateType.DEL,
                        incumbent,
                        provenance=self.provenance.get(incumbent, self.store.one()),
                    )
                )
                bests[index] = tuple_
                changed = True
            elif incumbent == tuple_:
                # A new derivation of the current best still matters downstream.
                changed = True
        if changed:
            outputs.append(update)
        else:
            self.suppressed_count += 1
        return outputs

    def _process_delete(self, update: Update) -> List[Update]:
        tuple_ = update.tuple
        if tuple_ not in self.provenance:
            # Deletions before insertions are not allowed by the model; ignore.
            self.suppressed_count += 1
            return []
        group_key = self._group_key(tuple_)
        if update.provenance is not None and self.store.supports_deletion:
            existing = self.provenance[tuple_]
            remaining = self.store.conjoin(
                existing, self.store.difference(self.store.one(), update.provenance)
            )
            changed_pv = not self.store.equals(remaining, existing)
            dead = self.store.is_zero(remaining)
        else:
            changed_pv = True
            dead = True
            remaining = self.store.zero()
        if not changed_pv:
            self.suppressed_count += 1
            return []
        if dead:
            del self.provenance[tuple_]
            self.groups.get(group_key, set()).discard(tuple_)
        else:
            self.provenance[tuple_] = remaining
        return self._handle_best_displacement(update, group_key, dead)

    def _handle_best_displacement(
        self, update: Update, group_key: PyTuple[Any, ...], dead: bool
    ) -> List[Update]:
        outputs: List[Update] = []
        changed = False
        bests = self.best.setdefault(group_key, {})
        for index, spec in enumerate(self.specs):
            if bests.get(index) != update.tuple or not dead:
                continue
            changed = True
            replacement = self._recompute_best(group_key, spec)
            if replacement is None:
                bests.pop(index, None)
            else:
                bests[index] = replacement
                outputs.append(
                    Update(
                        UpdateType.INS,
                        replacement,
                        provenance=self.provenance.get(replacement, self.store.one()),
                    )
                )
        if changed:
            outputs.append(update)
        else:
            self.suppressed_count += 1
        return outputs

    def _recompute_best(self, group_key: PyTuple[Any, ...], spec: AggregateSpec) -> Optional[Tuple]:
        candidates = self.groups.get(group_key, set())
        best: Optional[Tuple] = None
        for candidate in candidates:
            if best is None or spec.better(candidate, best):
                best = candidate
        return best

    # -- broadcast deletions -------------------------------------------------------------
    def purge_base(self, base_keys: Iterable[Hashable]) -> List[Update]:
        """Zero out deleted base tuples in the buffered provenance, emitting replacements."""
        if not self.store.supports_deletion:
            return []
        restrict = self.store.base_restrictor(base_keys)
        outputs: List[Update] = []
        dead: List[Tuple] = []
        for tuple_, annotation in self.provenance.items():
            restricted = restrict(annotation)
            if self.store.equals(restricted, annotation):
                continue
            if self.store.is_zero(restricted):
                dead.append(tuple_)
            else:
                self.provenance[tuple_] = restricted
        for tuple_ in dead:
            group_key = self._group_key(tuple_)
            del self.provenance[tuple_]
            self.groups.get(group_key, set()).discard(tuple_)
            outputs.extend(
                self._handle_best_displacement(
                    Update(UpdateType.DEL, tuple_, provenance=self.store.zero()),
                    group_key,
                    dead=True,
                )
            )
        return outputs

    # -- durability (checkpoint / recovery support) ----------------------------------
    def export_state(self, encode: Callable[[object], object]) -> Dict[str, object]:
        """Capture the H/P/B tables with annotations flattened through ``encode``."""
        return {
            "provenance": {t: encode(pv) for t, pv in self.provenance.items()},
            "groups": {key: set(members) for key, members in self.groups.items()},
            "best": {key: dict(bests) for key, bests in self.best.items()},
            "suppressed_count": self.suppressed_count,
        }

    def import_state(
        self, state: Dict[str, object], decode: Callable[[object], object]
    ) -> None:
        """Restore the tables captured by :meth:`export_state`."""
        self.provenance = {t: decode(pv) for t, pv in state["provenance"].items()}
        self.groups = {key: set(members) for key, members in state["groups"].items()}
        self.best = {key: dict(bests) for key, bests in state["best"].items()}
        self.suppressed_count = state["suppressed_count"]

    # -- metrics ------------------------------------------------------------------------
    def state_bytes(self) -> int:
        """Buffered tuples, their provenance, and the per-group best table."""
        total = sum(t.size_bytes() for t in self.provenance)
        total += sum(self.store.size_bytes(pv) for pv in self.provenance.values())
        total += sum(
            best.size_bytes() for bests in self.best.values() for best in bests.values()
        )
        return total
