"""Relative (derivation-graph) provenance.

The paper compares absorption provenance against the "relative provenance" of
update-exchange systems (Green et al., VLDB 2007): each derived tuple is
annotated with *derivation edges* recording which tuples it was produced from
as an immediate consequent.  Determining whether a tuple is still derivable
after a deletion requires traversing the derivation graph down to base tuples.

Two costs distinguish it from absorption provenance, and both are modelled
here so the experiments of Section 7.2 can be reproduced:

* **no absorption** — every distinct derivation is kept (and shipped), even
  when it is logically redundant, so annotations and messages are larger;
* **traversal-based derivability** — the graph must be walked on deletion,
  which is modelled by :class:`RelativeProvenanceStore.derivable` and by the
  larger operator state the store reports.

Annotations here are frozensets of :class:`Derivation`; a derivation is the
frozenset of base-tuple identifiers it (transitively) rests on plus a count of
the derivation edges that path used, which is what inflates the shipped size
relative to the absorbed BDD representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.provenance.tracker import ProvenanceStore


@dataclass(frozen=True)
class DerivationEdge:
    """One immediate-consequence edge of the derivation graph."""

    head: Hashable
    body: FrozenSet[Hashable]


@dataclass(frozen=True)
class Derivation:
    """One complete derivation of a tuple.

    ``leaves`` is the set of base tuples the derivation rests on.  Unlike
    absorption provenance, a relative-provenance system keeps *every* distinct
    derivation (no absorption of a derivation by a smaller one), which is what
    inflates its annotations and traffic; the per-derivation cost charged by
    :meth:`RelativeProvenanceStore.size_bytes` additionally accounts for the
    immediate-consequence edges a derivation-graph encoding must ship.
    """

    leaves: FrozenSet[Hashable]

    @property
    def edges(self) -> int:
        """Approximate number of derivation-graph edges for this derivation."""
        return max(len(self.leaves), 1)

    def uses(self, base_keys: Set[Hashable]) -> bool:
        """True when this derivation rests on any of ``base_keys``."""
        return bool(self.leaves & base_keys)


RelativeAnnotation = FrozenSet[Derivation]


class RelativeProvenanceStore(ProvenanceStore):
    """Derivation-set provenance without absorption."""

    name = "relative"
    supports_deletion = True

    def __init__(self, max_derivations_per_tuple: int = 4096) -> None:
        #: Safety valve: the number of distinct derivations can explode in
        #: dense graphs (this is precisely the blow-up the paper observes for
        #: "Relative Eager"); beyond the cap we stop accumulating new ones.
        self.max_derivations_per_tuple = max_derivations_per_tuple
        #: Global derivation-edge log (diagnostics / state accounting).
        self._edges: List[DerivationEdge] = []

    # -- algebra ------------------------------------------------------------
    def base_annotation(
        self, base_key: Hashable, rank: Optional[int] = None
    ) -> RelativeAnnotation:
        return frozenset({Derivation(leaves=frozenset({base_key}))})

    def zero(self) -> RelativeAnnotation:
        return frozenset()

    def one(self) -> RelativeAnnotation:
        return frozenset({Derivation(leaves=frozenset())})

    def conjoin(self, left: RelativeAnnotation, right: RelativeAnnotation) -> RelativeAnnotation:
        combined = set()
        for mine in left:
            for theirs in right:
                combined.add(Derivation(leaves=mine.leaves | theirs.leaves))
                if len(combined) >= self.max_derivations_per_tuple:
                    return frozenset(combined)
        return frozenset(combined)

    def disjoin(self, left: RelativeAnnotation, right: RelativeAnnotation) -> RelativeAnnotation:
        merged = set(left) | set(right)
        if len(merged) > self.max_derivations_per_tuple:
            # Stop accumulating beyond the cap (keeps fixpoints finite even in
            # the dense topologies where relative provenance blows up).
            return left
        return frozenset(merged)

    def remove_base(
        self, annotation: RelativeAnnotation, base_keys: Iterable[Hashable]
    ) -> RelativeAnnotation:
        removed = set(base_keys)
        return frozenset(d for d in annotation if not d.uses(removed))

    def is_zero(self, annotation: RelativeAnnotation) -> bool:
        return not annotation

    def size_bytes(self, annotation: RelativeAnnotation) -> int:
        """Relative provenance ships every derivation: edges plus leaf references."""
        total = 4
        for derivation in annotation:
            total += 8 * max(derivation.edges, 1) + 8 * len(derivation.leaves)
        return total

    def equals(self, left: RelativeAnnotation, right: RelativeAnnotation) -> bool:
        return left == right

    def describe(self, annotation: RelativeAnnotation) -> str:
        if not annotation:
            return "underivable"
        parts = []
        for derivation in sorted(annotation, key=lambda d: sorted(map(str, d.leaves))):
            parts.append("{" + ", ".join(sorted(map(str, derivation.leaves))) + "}")
        return " or ".join(parts)

    # -- derivation-graph bookkeeping -----------------------------------------
    def record_edge(self, head: Hashable, body: Iterable[Hashable]) -> None:
        """Record an immediate-consequence edge (used for state accounting)."""
        self._edges.append(DerivationEdge(head=head, body=frozenset(body)))

    @property
    def edge_count(self) -> int:
        """Number of derivation edges recorded so far."""
        return len(self._edges)

    def derivable(
        self,
        target: Hashable,
        live_base: Set[Hashable],
        edges: Iterable[DerivationEdge] | None = None,
    ) -> bool:
        """Graph-traversal derivability test (what a relative-provenance system runs).

        ``target`` is derivable when some recorded edge derives it from tuples
        that are all either live base tuples or themselves derivable.  This is
        the expensive operation the paper contrasts with absorption
        provenance's direct test; it is exposed for tests and diagnostics.
        """
        graph: Dict[Hashable, List[FrozenSet[Hashable]]] = {}
        for edge in (edges if edges is not None else self._edges):
            graph.setdefault(edge.head, []).append(edge.body)

        memo: Dict[Hashable, bool] = {}
        in_progress: Set[Hashable] = set()

        def visit(node: Hashable) -> bool:
            if node in live_base:
                return True
            if node in memo:
                return memo[node]
            if node in in_progress:
                return False  # cycles cannot ground a derivation
            in_progress.add(node)
            result = any(
                all(visit(child) for child in body) for body in graph.get(node, [])
            )
            in_progress.discard(node)
            memo[node] = result
            return result

        return visit(target)
