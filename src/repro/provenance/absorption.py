"""Absorption provenance: BDD-encoded positive Boolean annotations.

This is the paper's core contribution (Section 4).  Every base tuple gets a
Boolean variable; derived tuples are annotated with the Boolean combination of
the variables of the base tuples they depend on, per the relational-algebra
rules of Figure 6.  Storing annotations as reduced ordered BDDs means:

* **absorption is automatic** — ``p1 OR (p1 AND p2)`` hash-conses to ``p1``,
  so redundant derivations never inflate the annotation;
* **deletions are direct** — deleting base tuple ``p`` restricts ``p`` to
  False in every annotation; a tuple whose annotation becomes False is no
  longer derivable and is removed from the view, with no over-deletion and no
  re-derivation phase.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence

from repro.bdd.manager import (
    BDD,
    BDDManager,
    DEFAULT_GC_MIN_TABLE,
    DEFAULT_GC_THRESHOLD,
)
from repro.bdd.serialize import SerializedBDD, deserialize_bdd, serialize_bdd
from repro.provenance.tracker import ProvenanceStore


class AbsorptionProvenanceStore(ProvenanceStore):
    """Provenance algebra over BDDs owned by a single :class:`BDDManager`.

    In the distributed setting of the paper every node runs its own BDD
    library instance but the variables (base-tuple identifiers) are global; in
    this simulation a single shared manager plays that role, and message-size
    accounting is done from the structural size of the shipped annotation.

    ``gc_threshold`` / ``gc_min_table`` tune the manager's compacting garbage
    collector when the store builds its own manager (see
    :class:`~repro.bdd.manager.BDDManager`); a supplied manager keeps its own
    settings.
    """

    name = "absorption"
    supports_deletion = True

    def __init__(
        self,
        manager: Optional[BDDManager] = None,
        gc_threshold: float = DEFAULT_GC_THRESHOLD,
        gc_min_table: int = DEFAULT_GC_MIN_TABLE,
    ) -> None:
        self.manager = manager or BDDManager(
            gc_threshold=gc_threshold, gc_min_table=gc_min_table
        )

    # -- algebra -----------------------------------------------------------
    def base_annotation(self, base_key: Hashable, rank: Optional[int] = None) -> BDD:
        """The Boolean variable standing for base tuple ``base_key``.

        A new variable is declared at ``rank`` (appended when ``None``); an
        existing one keeps its level.
        """
        return self.manager.variable(base_key, rank)

    def zero(self) -> BDD:
        return self.manager.false

    def one(self) -> BDD:
        return self.manager.true

    def conjoin(self, left: BDD, right: BDD) -> BDD:
        return self.manager.apply_and(left, right)

    def disjoin(self, left: BDD, right: BDD) -> BDD:
        return self.manager.apply_or(left, right)

    def conjoin_many(self, annotations: Sequence[BDD]) -> BDD:
        """Balanced-tree conjunction through the kernel's n-ary operation."""
        return self.manager.conjoin_many(annotations)

    def disjoin_many(self, annotations: Sequence[BDD]) -> BDD:
        """Balanced-tree disjunction through the kernel's n-ary operation."""
        return self.manager.disjoin_many(annotations)

    def remove_base(self, annotation: BDD, base_keys: Iterable[Hashable]) -> BDD:
        """Set each deleted base tuple's variable to False and simplify."""
        return annotation.without(base_keys)

    def base_restrictor(self, base_keys: Iterable[Hashable]):
        """Prepared multi-key deletion: resolve and sort the key set once.

        The returned callable first consults the annotation's memoised
        *support*: an annotation that mentions none of the deleted variables
        is returned untouched (the overwhelmingly common case when a purge
        scans whole state tables), and the support memo survives across purge
        batches where the per-key-set restriction memo cannot.  Affected
        annotations drive the kernel's ``_restrict`` directly with the
        precompiled index mapping and memo-key suffix; the *same handle* is
        returned when nothing changed.

        A key with no variable yet is resolved again once the manager has
        declared more variables, so the callable stays exact for as long as
        it is held: a node keeps one per tombstone set, across deliveries
        that decode annotations naming variables new to this manager.
        """
        manager = self.manager
        names = manager._index_by_name
        pending = list(base_keys)
        indexed: list = []
        mapping: Dict[int, bool] = {}
        key_suffix: tuple = ()
        deleted: frozenset = frozenset()
        declared = -1

        def resolve() -> None:
            nonlocal key_suffix, deleted, declared
            declared = len(names)
            unresolved = []
            for key in pending:
                index = names.get(key)
                if index is None:
                    unresolved.append(key)
                else:
                    indexed.append((index, False))
            if len(unresolved) == len(pending):
                return
            pending[:] = unresolved
            indexed.sort()
            key_suffix = tuple(indexed)
            mapping.update(indexed)
            deleted = frozenset(mapping)

        resolve()
        support_of = manager._support
        kernel_restrict = manager._restrict
        maybe_collect = manager._maybe_collect

        def restrict_one(annotation: BDD) -> BDD:
            node = annotation.node
            if node <= 1:
                return annotation
            if pending and len(names) != declared:
                resolve()
            if not mapping:
                return annotation
            # Memo-first: a purge scan re-visits mostly cached supports, so
            # skip the kernel call (and its counter churn) on the hit path.
            # Looked up fresh each call — a compaction mid-purge replaces the
            # cache dict wholesale (node ids are remapped).
            support = manager._support_cache.get(node)
            if support is None:
                support = support_of(node)
            if support.isdisjoint(deleted):
                return annotation
            node = kernel_restrict(node, mapping, key_suffix)
            if node == annotation.node:
                return annotation
            result = BDD(manager, node)
            maybe_collect()
            return result

        return restrict_one

    def is_zero(self, annotation: BDD) -> bool:
        return annotation.is_false()

    def size_bytes(self, annotation: BDD) -> int:
        return annotation.size_bytes()

    def equals(self, left: BDD, right: BDD) -> bool:
        return left == right

    def absorbs(self, existing: BDD, annotation: BDD) -> bool:
        """``annotation -> existing``, decided without building the disjunction."""
        return self.manager.implies(annotation, existing)

    def difference(self, new: BDD, old: BDD) -> BDD:
        """``deltaPv`` of Algorithm 1: the newly gained derivations, ``new AND NOT old``.

        Runs as the kernel's single DIFF operation instead of a negation
        followed by a conjunction.
        """
        return self.manager.diff(new, old)

    def describe(self, annotation: BDD) -> str:
        """Stable human-readable product rendering of an annotation.

        Products are the canonical *minimal* ones (variable-order independent,
        see :func:`~repro.provenance.tracker.canonical_annotation`), each base
        key rendered as ``relation(values)`` via
        :func:`~repro.provenance.tracker.format_base_key`, keys sorted inside a
        product and products sorted shortest-first then lexicographically — so
        two semantically equal annotations describe identically regardless of
        the manager that built them.
        """
        if annotation.is_false():
            return "false"
        if annotation.is_true():
            return "true"
        from repro.provenance.tracker import canonical_annotation, format_base_key

        products = [
            sorted(format_base_key(key) for key in product)
            for product in canonical_annotation(self, annotation)
        ]
        products.sort(key=lambda keys: (len(keys), keys))
        return " | ".join(
            f"({' & '.join(keys)})" if keys else "true" for keys in products
        )

    # -- durability ----------------------------------------------------------
    def encode_annotation(self, annotation):
        """Flatten a BDD annotation into its manager-independent form.

        Non-BDD values (for example the variable keys carried by purge
        messages) pass through unchanged so the WAL and checkpoints can encode
        whole updates uniformly.
        """
        if isinstance(annotation, BDD):
            return serialize_bdd(annotation)
        return annotation

    def decode_annotation(self, encoded):
        """Re-intern a serialized annotation into this store's BDD manager."""
        if isinstance(encoded, SerializedBDD):
            return deserialize_bdd(encoded, self.manager)
        return encoded

    # -- kernel integration (GC root protocol / telemetry) ---------------------
    def gc_paused(self):
        """Defer the BDD manager's compacting GC for the duration of a block."""
        return self.manager.defer_gc()

    def register_root_source(self, provider) -> None:
        """Enroll ``provider`` (callable yielding BDD handles) as GC roots."""
        self.manager.add_root_source(provider)

    def kernel_stats(self):
        """The BDD manager's table/GC/pause telemetry (see ``gc_stats``)."""
        return self.manager.gc_stats()

    def kernel_clock(self) -> float:
        """Cumulative wall seconds spent inside the BDD kernel loops."""
        return self.manager.kernel_seconds

    def census(self):
        """The BDD manager's live/dead node count (see ``BDDManager.census``)."""
        return self.manager.census()

    def release(self) -> None:
        """Drop the BDD manager's node table and caches (``BDDManager.release``)."""
        self.manager.release()

    # -- diagnostics ----------------------------------------------------------
    def cache_stats(self):
        """The BDD manager's work and memo-cache counters (see ``cache_stats``)."""
        return self.manager.cache_stats()

    # -- helpers used by tests/examples -------------------------------------
    def annotation_from_products(self, products: Iterable[Iterable[Hashable]]) -> BDD:
        """Build an annotation as an OR of ANDs of base-tuple variables."""
        return self.manager.from_products(products)

    def depends_on(self, annotation: BDD, base_key: Hashable) -> bool:
        """True when the annotation's truth can change with ``base_key``."""
        if not self.manager.has_variable(base_key):
            return False
        return self.manager.index_of(base_key) in annotation.support()
