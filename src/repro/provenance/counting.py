"""Counting provenance (derivation counts).

The classical incremental view-maintenance algorithm for *non-recursive*
views keeps, for every derived tuple, the number of its derivations; a
deletion decrements counts and removes tuples whose count reaches zero.  The
paper points out (Section 3.2) that this scheme is unsound for recursive
views — a tuple can keep a positive count purely through derivations that
(transitively) depend on itself.  We implement it anyway because:

tests demonstrate the recursive unsoundness explicitly, which documents why
the paper needs absorption provenance.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.provenance.tracker import ProvenanceStore


class CountingProvenanceStore(ProvenanceStore):
    """Annotations are non-negative derivation counts."""

    name = "counting"
    #: Counting can process deletions, but is only *correct* for
    #: non-recursive views; see the module docstring.
    supports_deletion = True

    def base_annotation(self, base_key: Hashable, rank: Optional[int] = None) -> int:
        return 1

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def conjoin(self, left: int, right: int) -> int:
        return left * right

    def disjoin(self, left: int, right: int) -> int:
        return left + right

    def remove_base(self, annotation: int, base_keys: Iterable[Hashable]) -> int:
        """Counting cannot selectively remove a base tuple from a count.

        Counting-based maintenance handles deletions by propagating
        *negative* deltas through the plan, so at the annotation level this
        is the identity.
        """
        return annotation

    def is_zero(self, annotation: int) -> bool:
        return annotation <= 0

    def size_bytes(self, annotation: int) -> int:
        return 4

    def describe(self, annotation: int) -> str:
        return f"{annotation} derivation(s)"
