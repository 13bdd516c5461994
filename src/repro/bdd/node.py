"""Node storage for the ROBDD manager.

Nodes are stored in flat parallel arrays inside :class:`NodeTable` and are
referenced by integer ids.  Two ids are reserved:

* ``0`` — the ``FALSE`` terminal
* ``1`` — the ``TRUE`` terminal

Every other id refers to a decision node ``(var, low, high)`` where ``low`` is
the cofactor for ``var = 0`` and ``high`` the cofactor for ``var = 1``.  The
table enforces the two ROBDD invariants:

* *No redundant tests*: a node with ``low == high`` is never created; the
  shared child id is returned instead.
* *Uniqueness*: the ``(var, low, high)`` triple is hash-consed, so structurally
  equal functions share the same id and equality checks are O(1).

The unique table is a two-level dictionary — variable index to a sub-dict
keyed by the packed ``(low << 32) | high`` integer — so the hot hash-consing
path allocates no key tuples.  (Node ids fit comfortably in 32 bits: a
4-billion-node table is far beyond what a pure-Python process can hold.)

The table is **compactable**: :meth:`NodeTable.compact` drops every node the
manager's mark phase did not reach and renumbers the survivors, preserving
the children-before-parents id order that the manager's iterative kernels
rely on.  Node ids are therefore only stable *between* collections; all
id-keyed caches are owned by the manager, which drops them on compaction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Reserved node id for the constant ``False`` function.
FALSE = 0
#: Reserved node id for the constant ``True`` function.
TRUE = 1

#: Variable index used by the terminal nodes; larger than any real variable so
#: that the "top variable" of a pair of nodes is always well defined.
TERMINAL_VAR = 1 << 60


class NodeTable:
    """Hash-consed storage for BDD nodes.

    The table only creates canonical nodes; callers (the manager) are
    responsible for variable ordering being respected, which it is by
    construction of the Shannon expansion in ``BDDManager._apply``.
    """

    __slots__ = ("_var", "_low", "_high", "_unique")

    def __init__(self) -> None:
        # Slot 0 is FALSE, slot 1 is TRUE.
        self._var: List[int] = [TERMINAL_VAR, TERMINAL_VAR]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        #: var index -> ((low << 32) | high) -> node id.
        self._unique: Dict[int, Dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self._var)

    def var_of(self, node: int) -> int:
        """Return the decision variable of ``node`` (``TERMINAL_VAR`` for terminals)."""
        return self._var[node]

    def low_of(self, node: int) -> int:
        """Return the ``var = 0`` cofactor of ``node``."""
        return self._low[node]

    def high_of(self, node: int) -> int:
        """Return the ``var = 1`` cofactor of ``node``."""
        return self._high[node]

    def make(self, var: int, low: int, high: int) -> int:
        """Return the canonical node id for ``(var, low, high)``.

        Applies the reduction rules: merges redundant tests and reuses
        existing isomorphic nodes.
        """
        if low == high:
            return low
        bucket = self._unique.get(var)
        if bucket is None:
            bucket = self._unique[var] = {}
        key = (low << 32) | high
        found = bucket.get(key)
        if found is not None:
            return found
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        bucket[key] = node
        return node

    def triple(self, node: int) -> Tuple[int, int, int]:
        """Return ``(var, low, high)`` of ``node`` (terminals included)."""
        return self._var[node], self._low[node], self._high[node]

    def compact(self, marked: bytearray) -> List[int]:
        """Drop every unmarked node, renumber survivors, rebuild the unique table.

        ``marked`` is one byte per current node id (terminals must be marked).
        Survivors keep their relative order, so children still precede their
        parents.  Returns the old-id -> new-id remap list; entries for dead
        nodes are meaningless and must not be consulted.
        """
        old_var, old_low, old_high = self._var, self._low, self._high
        size = len(old_var)
        remap = [0] * size
        remap[TRUE] = TRUE
        new_var: List[int] = [TERMINAL_VAR, TERMINAL_VAR]
        new_low: List[int] = [FALSE, TRUE]
        new_high: List[int] = [FALSE, TRUE]
        unique: Dict[int, Dict[int, int]] = {}
        for node in range(2, size):
            if not marked[node]:
                continue
            var = old_var[node]
            low = remap[old_low[node]]
            high = remap[old_high[node]]
            new_id = len(new_var)
            remap[node] = new_id
            new_var.append(var)
            new_low.append(low)
            new_high.append(high)
            bucket = unique.get(var)
            if bucket is None:
                bucket = unique[var] = {}
            bucket[(low << 32) | high] = new_id
        self._var, self._low, self._high = new_var, new_low, new_high
        self._unique = unique
        return remap
