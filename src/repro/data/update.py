"""Insert/delete updates — the unit of stream processing.

The paper's execution model processes *update streams* rather than tuple
streams: every element is either an insertion (INS) or a deletion (DEL) of a
tuple, optionally annotated with provenance (the ``pv`` field in Algorithms
1-4).  Updates also carry the simulated timestamp at which they were injected
so that soft-state windows can expire them.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.data.tuples import Tuple


class UpdateType(enum.Enum):
    """Kind of update: insertion or deletion."""

    INS = "INS"
    DEL = "DEL"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Update:
    """A single stream element: ``(type, tuple, pv)`` plus bookkeeping fields.

    ``provenance`` is intentionally untyped at this layer: depending on the
    maintenance strategy it is a BDD (absorption), a set of derivation edges
    (relative provenance), ``None`` (DRed / set semantics), or an integer
    (counting).  The provenance trackers in :mod:`repro.provenance` interpret
    it.

    A plain ``__slots__`` class rather than a frozen dataclass: updates are
    constructed once per emitted delta on every operator path, and the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field) was a
    measurable cost there.  ``is_insert`` is stored by the constructor, since
    every operator branches on it per update.  Treat instances as immutable.
    """

    __slots__ = ("type", "tuple", "provenance", "timestamp", "origin_node", "is_insert")

    def __init__(
        self,
        type: UpdateType,
        tuple: Tuple,
        provenance: Any = None,
        timestamp: float = 0.0,
        origin_node: Optional[int] = None,
    ) -> None:
        self.type = type
        self.tuple = tuple
        self.provenance = provenance
        self.timestamp = timestamp
        self.origin_node = origin_node
        #: True for INS updates.
        self.is_insert = type is UpdateType.INS

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Update):
            return NotImplemented
        return (
            self.type is other.type
            and self.tuple == other.tuple
            and self.provenance == other.provenance
            and self.timestamp == other.timestamp
            and self.origin_node == other.origin_node
        )

    def __hash__(self) -> int:
        # Provenance is excluded (it may be any annotation type); equal
        # updates still hash equal, which is all the contract requires.
        return hash((self.type, self.tuple, self.timestamp, self.origin_node))

    def __getstate__(self):
        return (self.type, self.tuple, self.provenance, self.timestamp, self.origin_node)

    def __setstate__(self, state):
        self.__init__(*state)

    @property
    def is_delete(self) -> bool:
        """True for DEL updates."""
        return self.type is UpdateType.DEL

    @property
    def relation(self) -> str:
        """Relation name of the payload tuple."""
        return self.tuple.relation

    def with_provenance(self, provenance: Any) -> "Update":
        """Copy of the update with a different provenance annotation.

        Hand-rolled constructor calls (rather than ``dataclasses.replace``):
        these copies run once per emitted delta on the hot operator paths.
        """
        return Update(self.type, self.tuple, provenance, self.timestamp, self.origin_node)

    def with_timestamp(self, timestamp: float) -> "Update":
        """Copy of the update stamped at ``timestamp``."""
        return Update(self.type, self.tuple, self.provenance, timestamp, self.origin_node)

    def inverted(self) -> "Update":
        """The opposite operation on the same tuple (used by DRed rederivation)."""
        opposite = UpdateType.DEL if self.is_insert else UpdateType.INS
        return Update(opposite, self.tuple, self.provenance, self.timestamp, self.origin_node)

    def size_bytes(self, provenance_bytes: int = 0) -> int:
        """Wire size: 1 byte tag + tuple payload + provenance annotation."""
        return 1 + self.tuple.size_bytes() + provenance_bytes

    def __repr__(self) -> str:
        return f"{self.type.value} {self.tuple!r}"


def insert(tuple_: Tuple, provenance: Any = None, timestamp: float = 0.0) -> Update:
    """Shorthand for an insertion update."""
    return Update(UpdateType.INS, tuple_, provenance, timestamp)


def delete(tuple_: Tuple, provenance: Any = None, timestamp: float = 0.0) -> Update:
    """Shorthand for a deletion update."""
    return Update(UpdateType.DEL, tuple_, provenance, timestamp)
