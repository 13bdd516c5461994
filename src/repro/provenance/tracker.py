"""The provenance-store interface shared by all maintenance strategies.

Operators (Fixpoint, PipelinedHashJoin, MinShip, AggSel) are written against
this small algebra of annotations rather than against BDDs directly, so the
same operator code runs under:

* **absorption provenance** (BDD annotations, the paper's contribution),
* **relative provenance** (derivation-set annotations without absorption,
  the comparison system from update exchange),
* **counting** (integers; classical non-recursive maintenance), and
* **none** (set semantics; what DRed runs on).

The store interprets annotations: it knows how to create a fresh annotation
for a base tuple, combine annotations across joins (``conjoin``) and across
alternative derivations (``disjoin``), zero out deleted base tuples
(``remove_base``), test emptiness and measure encoded size.
"""

from __future__ import annotations

import abc
import contextlib
from typing import Any, Dict, Hashable, Iterable, Optional, Sequence

Annotation = Any


class ProvenanceStore(abc.ABC):
    """Abstract provenance algebra used by the provenance-aware operators."""

    #: Human-readable name used in experiment reports.
    name: str = "abstract"
    #: Whether annotations carry enough information to decide derivability
    #: directly on deletion (True for absorption/relative, False for none).
    supports_deletion: bool = True

    @abc.abstractmethod
    def base_annotation(self, base_key: Hashable, rank: Optional[int] = None) -> Annotation:
        """Annotation of a freshly inserted base tuple identified by ``base_key``.

        ``rank`` places a new BDD variable in the cluster-wide variable order
        (see ``SimulatedNetwork.variable_rank``); stores whose annotations are
        plain values ignore it.
        """

    @abc.abstractmethod
    def zero(self) -> Annotation:
        """The "not derivable" annotation."""

    @abc.abstractmethod
    def one(self) -> Annotation:
        """The neutral annotation for conjunction (no constraints)."""

    @abc.abstractmethod
    def conjoin(self, left: Annotation, right: Annotation) -> Annotation:
        """Combine annotations of joined tuples (Figure 6: join rule)."""

    @abc.abstractmethod
    def disjoin(self, left: Annotation, right: Annotation) -> Annotation:
        """Merge an alternative derivation (Figure 6: union/projection rule)."""

    def conjoin_many(self, annotations: Sequence[Annotation]) -> Annotation:
        """Conjoin a whole collection (empty -> :meth:`one`).

        The default is a left fold over :meth:`conjoin`; stores with an n-ary
        kernel operation (absorption's balanced-tree reduction) override it.
        """
        result = self.one()
        for annotation in annotations:
            result = self.conjoin(result, annotation)
        return result

    def disjoin_many(self, annotations: Sequence[Annotation]) -> Annotation:
        """Disjoin a whole collection (empty -> :meth:`zero`).

        The default is a left fold over :meth:`disjoin`; stores with an n-ary
        kernel operation (absorption's balanced-tree reduction) override it.
        """
        result = self.zero()
        for annotation in annotations:
            result = self.disjoin(result, annotation)
        return result

    @abc.abstractmethod
    def remove_base(self, annotation: Annotation, base_keys: Iterable[Hashable]) -> Annotation:
        """Zero out the given base tuples inside ``annotation`` (deletion)."""

    def base_restrictor(self, base_keys: Iterable[Hashable]):
        """A prepared ``annotation -> annotation`` deletion of ``base_keys``.

        Purges restrict *every* stored annotation against the same key set;
        preparing the restriction once (resolving names, sorting, building
        the memo key) amortises that setup across the whole table scan.  The
        default simply closes over :meth:`remove_base`; the absorption store
        overrides it with a kernel-level fast path.
        """
        keys = list(base_keys)
        return lambda annotation: self.remove_base(annotation, keys)

    @abc.abstractmethod
    def is_zero(self, annotation: Annotation) -> bool:
        """True when the annotation certifies the tuple is no longer derivable."""

    @abc.abstractmethod
    def size_bytes(self, annotation: Annotation) -> int:
        """Encoded size of the annotation in bytes (per-tuple overhead metric)."""

    def equals(self, left: Annotation, right: Annotation) -> bool:
        """Whether two annotations are equal (used to detect "provenance changed")."""
        return left == right

    def absorbs(self, existing: Annotation, annotation: Annotation) -> bool:
        """Whether ``annotation`` adds nothing to ``existing`` (MinShip's test).

        The default builds the disjunction and compares; the absorption
        store overrides it with the kernel's early-exit implication walk,
        which builds nothing.
        """
        return self.equals(self.disjoin(existing, annotation), existing)

    def difference(self, new: Annotation, old: Annotation) -> Annotation:
        """The part of ``new`` not implied by ``old`` (the ``deltaPv`` of Algorithm 1).

        The default implementation simply returns ``new``; the absorption
        store overrides it with ``new AND NOT old``.
        """
        return new

    def describe(self, annotation: Annotation) -> str:
        """Human-readable rendering used by examples and debugging."""
        return repr(annotation)

    # -- durability (checkpoint / recovery support) ---------------------------
    def encode_annotation(self, annotation: Annotation) -> Any:
        """A self-contained, picklable form of ``annotation`` for checkpoints.

        The default assumes annotations are already plain values (integers,
        frozensets, booleans); stores whose annotations are handles into
        shared in-memory structures (the BDD manager) override this.
        """
        return annotation

    def decode_annotation(self, encoded: Any) -> Annotation:
        """Inverse of :meth:`encode_annotation` (re-interning into live state)."""
        return encoded

    # -- kernel integration (GC root protocol / telemetry) ---------------------
    @contextlib.contextmanager
    def gc_paused(self):
        """Suspend any automatic annotation-storage compaction in the block.

        Codec-heavy paths (checkpoint capture/restore, migration slices)
        enroll through this so a compaction cannot interleave with a bulk
        encode/decode.  The default is a no-op; the absorption store defers
        its BDD manager's garbage collector.
        """
        yield self

    def register_root_source(self, provider) -> None:
        """Enroll a callable yielding annotations the storage must keep live.

        No-op for value-typed stores; the absorption store forwards to its
        BDD manager's external-root registry.
        """

    def kernel_stats(self) -> Optional[Dict[str, object]]:
        """Annotation-kernel telemetry (table sizes, GC counters, kernel time).

        ``None`` for stores without a shared annotation kernel.
        """
        return None

    def kernel_clock(self) -> float:
        """Cumulative wall seconds the annotation kernel has run for.

        The tracer snapshots this around each delivery to synthesise per-node
        kernel-time spans.  Stores without a kernel sit at 0.0 forever.
        """
        return 0.0

    def collect(self, force: bool = False) -> Optional[Dict[str, object]]:
        """Run one annotation-storage collection pass, if the store has one.

        Traced runs trigger a pass at each phase boundary so every trace
        contains GC spans even when no automatic collection fired; value-typed
        stores have nothing to collect and return ``None``.
        """
        return None


class NullProvenanceStore(ProvenanceStore):
    """Set-semantics execution: no annotations at all (DRed's data model).

    ``None`` plays the role of "present"; emptiness can never be decided from
    the annotation, which is exactly why DRed has to over-delete and
    re-derive.
    """

    name = "none"
    supports_deletion = False

    def base_annotation(self, base_key: Hashable, rank: Optional[int] = None) -> Annotation:
        return True

    def zero(self) -> Annotation:
        return False

    def one(self) -> Annotation:
        return True

    def conjoin(self, left: Annotation, right: Annotation) -> Annotation:
        return bool(left) and bool(right)

    def disjoin(self, left: Annotation, right: Annotation) -> Annotation:
        return bool(left) or bool(right)

    def remove_base(self, annotation: Annotation, base_keys: Iterable[Hashable]) -> Annotation:
        return annotation

    def is_zero(self, annotation: Annotation) -> bool:
        return not annotation

    def size_bytes(self, annotation: Annotation) -> int:
        return 0

    def describe(self, annotation: Annotation) -> str:
        return "present" if annotation else "absent"


def provenance_store_for(kind: str, **options: Any) -> ProvenanceStore:
    """Factory: build a provenance store from a strategy keyword.

    ``kind`` is one of ``"absorption"``, ``"relative"``, ``"counting"`` or
    ``"none"`` (case-insensitive).
    """
    from repro.provenance.absorption import AbsorptionProvenanceStore
    from repro.provenance.counting import CountingProvenanceStore
    from repro.provenance.relative import RelativeProvenanceStore

    normalised = kind.strip().lower()
    if normalised == "absorption":
        return AbsorptionProvenanceStore(**options)
    if normalised == "relative":
        return RelativeProvenanceStore(**options)
    if normalised == "counting":
        return CountingProvenanceStore(**options)
    if normalised in ("none", "set", "dred"):
        return NullProvenanceStore()
    raise ValueError(f"unknown provenance store kind: {kind!r}")


def format_base_key(key: Hashable) -> str:
    """Render a base-variable key as ``relation(v1, v2)`` when it has that shape.

    The engine names base variables ``((relation, *values), version)`` (see
    :meth:`repro.engine.runtime.ProcessorNode._base_variable_key`); re-inserted
    incarnations carry a ``#version`` suffix so two generations of the same
    tuple stay distinguishable.  Keys of any other shape (tests use plain
    strings like ``"p1"``) render through ``str``.
    """
    if (
        isinstance(key, tuple)
        and len(key) == 2
        and isinstance(key[0], tuple)
        and key[0]
        and isinstance(key[0][0], str)
        and isinstance(key[1], int)
    ):
        (relation, *values), version = key
        rendered = f"{relation}({', '.join(str(value) for value in values)})"
        return rendered if version == 0 else f"{rendered}#{version}"
    return str(key)


def canonical_annotation(store: ProvenanceStore, annotation: Annotation) -> Any:
    """A backend-independent canonical form of ``annotation``, for equivalence checks.

    BDD annotations built by different managers (one per worker process in the
    process backend) represent the same boolean function with different node
    ids and variable orders, so neither byte-level comparison nor raw
    ``iter_products`` output is comparable across backends (path products
    depend on the variable order).  Absorption annotations are monotone, and a
    monotone function is uniquely determined by its *antichain* of minimal
    products, so two semantically identical absorption annotations
    canonicalise to the same frozenset of frozensets.  Value-typed annotations
    (counting vectors, relative sets, DRed ``None``) pass through the store
    codec, which is already process-independent.
    """
    if annotation is None:
        return None
    if hasattr(annotation, "iter_products"):
        minimal: list = []
        for product in sorted(annotation.iter_products(), key=len):
            if not any(kept <= product for kept in minimal):
                minimal.append(product)
        return frozenset(minimal)
    return store.encode_annotation(annotation)
