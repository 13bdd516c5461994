"""A reduced ordered BDD manager with an iterative, garbage-collected kernel.

The manager owns a :class:`~repro.bdd.node.NodeTable` plus memoisation caches
for the binary ``apply`` operations, negation, restriction, support and
node-count computation.  :class:`BDD` objects are thin immutable handles
(manager + node id) with operator overloading, which is how the provenance
layer and operators manipulate absorption provenance::

    mgr = BDDManager()
    p1, p2, p3 = mgr.variables("p1", "p2", "p3")
    pv = (p1 & p2) | (p1 & p2 & p3)     # absorption collapses this to p1 & p2
    assert pv == (p1 & p2)
    assert pv.restrict({"p1": False}).is_false()

**Iterative kernel.**  The hot operations — ``_apply`` (AND/OR/XOR/DIFF),
``implies``, ``_negate``, ``_restrict`` and ``_support`` — run as
explicit-stack loops over the node table's flat arrays, with the arrays
bound to locals and the hash-consing inlined.  There is no Python recursion
on these paths, so provenance depth is bounded by memory, not by the
interpreter's recursion limit, and there is no per-step function-call
overhead.

**Garbage collection.**  The node table is *compacting*: when the dead
fraction of the table crosses ``gc_threshold``, a mark-and-sweep pass drops
unreachable nodes, renumbers the survivors and rebuilds the unique table.
Roots are discovered automatically — every live :class:`BDD` handle registers
itself in a weak set at construction and is renumbered in place — and
subsystems that hold annotations in bulk (the runtime's per-port operator
state, the checkpoint codec, placement migration) additionally enroll through
:meth:`BDDManager.add_root_source` / :meth:`BDDManager.defer_gc`.  Collections
only ever run at the *end* of a public operation (never while a kernel loop
holds raw node ids), so callers never observe a dangling id.  The id-keyed
memo caches are *remapped* through the renumbering, so warm sub-results
survive a compaction.

All memo caches are **bounded**: when a cache reaches ``cache_limit`` entries
it is dropped wholesale (the classic BDD-package "cache reset" policy — the
node table itself, and therefore canonicity, is unaffected; subsequent
operations simply recompute).  Hit/miss/eviction counters for every cache are
surfaced through :meth:`BDDManager.cache_stats`, and GC/pause/peak-size
telemetry through :meth:`BDDManager.gc_stats`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.bdd.node import FALSE, TERMINAL_VAR, TRUE, NodeTable

#: Estimated in-memory bytes per BDD node: variable index, low and high
#: pointers plus hash-table overhead.  Used for the "per-tuple provenance
#: overhead (B)" metric; JavaBDD nodes cost roughly the same.
BYTES_PER_NODE = 16

_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
#: ``left AND NOT right`` — the ``deltaPv`` operation of Algorithm 1, run as a
#: single cache-keyed binary op instead of a negate followed by a conjoin.
_OP_DIFF = 3

#: Default bound on each memo cache (entries); reaching it drops the cache.
DEFAULT_CACHE_LIMIT = 1 << 20

#: Default dead-node fraction of the table that triggers a compaction.
DEFAULT_GC_THRESHOLD = 0.25

#: Default minimum table size before automatic GC is considered at all (and
#: the floor for the post-collection re-trigger size).
DEFAULT_GC_MIN_TABLE = 8192

#: Default table-growth factor between collections: after a compaction the
#: next pass triggers at ``live * gc_growth`` nodes.  Larger values trade a
#: proportionally higher bounded peak for fewer collection pauses.
DEFAULT_GC_GROWTH = 3.0

#: Handle-registry length at which dead weakrefs are swept out.
DEFAULT_HANDLE_PRUNE = 1 << 16

_weakref = weakref.ref


@dataclass
class CacheCounters:
    """Hit/miss/eviction counters for one memo cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self, size: int) -> Dict[str, int]:
        """A plain-dict view including the cache's current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": size,
        }


@dataclass
class BDDOperationStats:
    """Work counters for one manager: apply/restrict invocations and caches.

    ``apply_calls`` counts every step of the Shannon expansion in ``_apply``
    (and every operand pair ``implies`` visits: work moved from an apply to
    the read-only walk stays counted) and ``restrict_calls`` every step of
    ``_restrict`` — the two numbers the batch-throughput benchmark compares
    between batched and tuple-at-a-time execution.
    """

    apply_calls: int = 0
    restrict_calls: int = 0
    apply: CacheCounters = field(default_factory=CacheCounters)
    negate: CacheCounters = field(default_factory=CacheCounters)
    restrict: CacheCounters = field(default_factory=CacheCounters)
    support: CacheCounters = field(default_factory=CacheCounters)
    size: CacheCounters = field(default_factory=CacheCounters)


@dataclass
class BDDGCStats:
    """Telemetry for the compacting garbage collector.

    ``passes`` counts every mark phase; a pass either ends in a
    ``compaction`` (table rebuilt, ids renumbered) or is ``skipped`` when the
    dead fraction was below the threshold (the trigger size backs off
    instead).  Pause times cover the whole pass, mark included.
    """

    passes: int = 0
    compactions: int = 0
    skipped: int = 0
    nodes_reclaimed: int = 0
    pause_seconds: float = 0.0
    max_pause_seconds: float = 0.0
    peak_table_size: int = 2


class BDDError(Exception):
    """Raised on misuse of the BDD layer (unknown variables, mixed managers)."""


class BDD:
    """An immutable handle to a Boolean function owned by a :class:`BDDManager`.

    Handles are weakly tracked by their manager: every live handle is a GC
    root, and a table compaction rewrites ``node`` in place — so the identity
    ``same function iff same (manager, node)`` keeps holding across
    collections, but raw ``node`` ids must never be stored outside a handle.
    """

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: "BDDManager", node: int) -> None:
        self.manager = manager
        self.node = node
        # Identity-tracked (a plain list of weakrefs, not a WeakSet: handles
        # of the same node compare equal, and a set would silently drop the
        # duplicates — every handle object must be renumbered on compaction).
        manager._handles.append(_weakref(self))

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BDD):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        # The manager's identity hash is cached at manager construction; a
        # node id is a small int, so this is a single xor with no tuple
        # allocation or id() call on the hot dictionary paths.
        #
        # CAVEAT: a GC compaction rewrites ``node`` in place, so the hash of
        # a live handle can change across a collection.  Hash containers
        # keyed by handles must either be short-lived relative to GC (drop
        # them on staleness) or key by ``id(handle)`` instead; entries
        # inserted before a compaction degrade to cache misses, never to
        # wrong equality (``__eq__`` always compares current ids).
        return self.manager._id ^ self.node

    def __bool__(self) -> bool:
        raise TypeError(
            "BDD truth value is ambiguous; use .is_true() / .is_false() / .is_satisfiable()"
        )

    def __repr__(self) -> str:
        if self.is_false():
            return "BDD(False)"
        if self.is_true():
            return "BDD(True)"
        return f"BDD(node={self.node}, vars={sorted(self.support_names())})"

    # -- constants ---------------------------------------------------------
    def is_false(self) -> bool:
        """True iff this is the constant-false function (tuple not derivable)."""
        return self.node == FALSE

    def is_true(self) -> bool:
        """True iff this is the constant-true function."""
        return self.node == TRUE

    def is_satisfiable(self) -> bool:
        """True iff some assignment makes the function true.

        Because ROBDDs are canonical, any non-FALSE node is satisfiable.
        """
        return self.node != FALSE

    # -- boolean algebra ----------------------------------------------------
    def __and__(self, other: "BDD") -> "BDD":
        return self.manager.apply_and(self, other)

    def __or__(self, other: "BDD") -> "BDD":
        return self.manager.apply_or(self, other)

    def __xor__(self, other: "BDD") -> "BDD":
        return self.manager.apply_xor(self, other)

    def __invert__(self) -> "BDD":
        return self.manager.negate(self)

    def implies(self, other: "BDD") -> bool:
        """Return True iff ``self -> other`` is a tautology."""
        return self.manager.implies(self, other)

    def equivalent(self, other: "BDD") -> bool:
        """Canonical equality: same manager node id."""
        return self == other

    # -- cofactors / restriction --------------------------------------------
    def restrict(self, assignment: Mapping[Hashable, bool]) -> "BDD":
        """Substitute constants for variables (by *name*) and simplify.

        This is the operation the paper calls ``restrict(oldPv, NOT u.pv)``
        for single-variable deletions: setting a deleted base tuple's variable
        to ``False`` everywhere.
        """
        return self.manager.restrict(self, assignment)

    def without(self, names: Iterable[Hashable]) -> "BDD":
        """Set every variable in ``names`` to False (deletion of base tuples)."""
        return self.manager.restrict(self, {name: False for name in names})

    def exist(self, names: Iterable[Hashable]) -> "BDD":
        """Existentially quantify the given variables out of the function."""
        return self.manager.exist(self, names)

    # -- structure / metrics -------------------------------------------------
    def node_count(self) -> int:
        """Number of decision nodes in this BDD (terminals excluded)."""
        return self.manager.node_count(self)

    def size_bytes(self) -> int:
        """Estimated encoded size of this provenance annotation in bytes."""
        return self.manager.size_bytes(self)

    def support(self) -> FrozenSet[int]:
        """Variable *indices* the function depends on."""
        return self.manager.support(self)

    def support_names(self) -> FrozenSet[Hashable]:
        """Variable *names* the function depends on."""
        return frozenset(self.manager.name_of(idx) for idx in self.support())

    def sat_count(self) -> int:
        """Number of satisfying assignments over the manager's declared variables."""
        return self.manager.sat_count(self)

    def any_sat(self) -> Optional[Dict[Hashable, bool]]:
        """Return one satisfying assignment (partial, by name) or None."""
        return self.manager.any_sat(self)

    def iter_products(self) -> Iterator[FrozenSet[Hashable]]:
        """Iterate over the positive-literal products of a monotone function.

        For absorption provenance (which is monotone in base tuples) this
        enumerates the minimal "witness" sets of base tuples, i.e. the
        prime implicants restricted to positive literals.  Useful for
        debugging and for the relative-provenance comparison.
        """
        return self.manager.iter_products(self)

    def evaluate(self, assignment: Mapping[Hashable, bool]) -> bool:
        """Evaluate under a *total* assignment of the support variables."""
        return self.manager.evaluate(self, assignment)


class BDDManager:
    """Creates variables and performs hash-consed BDD operations.

    Variables are identified by arbitrary hashable *names* (the provenance
    layer uses base-tuple keys).  Each sits at a *level*, an int below
    ``TERMINAL_VAR`` that the kernel compares with ``<``.  Levels are sparse:
    a variable declared with a ``rank`` takes the rank as its level, so
    managers that agree on ranks agree on the relative order of every
    variable they share, in whatever order they learn them, and a variable
    declared later at a lower rank slots in between existing levels without
    invalidating any node.  A variable declared without a rank is appended
    below every existing level.

    ``gc_threshold`` is the dead-node fraction of the table that triggers a
    compaction once the table holds at least ``gc_min_table`` nodes; ``0``
    disables automatic collection (explicit :meth:`collect` still works).
    """

    def __init__(
        self,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        gc_threshold: float = DEFAULT_GC_THRESHOLD,
        gc_min_table: int = DEFAULT_GC_MIN_TABLE,
        gc_growth: float = DEFAULT_GC_GROWTH,
    ) -> None:
        if cache_limit <= 0:
            raise ValueError("cache_limit must be positive")
        if gc_threshold < 0 or gc_threshold > 1:
            raise ValueError("gc_threshold must be within [0, 1]")
        if gc_min_table < 2:
            raise ValueError("gc_min_table must be at least 2")
        if gc_growth < 1.0:
            raise ValueError("gc_growth must be at least 1.0")
        self.gc_growth = gc_growth
        self._table = NodeTable()
        self.cache_limit = cache_limit
        self.stats = BDDOperationStats()
        self.gc_threshold = gc_threshold
        self.gc_min_table = gc_min_table
        self.gc = BDDGCStats()
        #: Identity hash cached for :meth:`BDD.__hash__` (avoids per-hash id()).
        self._id = id(self)
        #: Weak references to every live handle into this manager (GC roots,
        #: renumbered in place).  Dead entries are pruned during collections
        #: and whenever the list outgrows ``_handle_prune_size``.
        self._handles: List["weakref.ref[BDD]"] = []
        self._handle_prune_size = DEFAULT_HANDLE_PRUNE
        #: Extra root providers: zero-arg callables yielding BDD handles.
        self._root_sources: List = []
        #: Table size at which the next automatic collection is considered.
        self._gc_trigger_size = gc_min_table
        #: Nesting depth of :meth:`defer_gc` sections (0 = GC allowed).
        self._gc_defer = 0
        #: Wall seconds spent inside the kernel loops (apply/negate/restrict).
        self._kernel_seconds = 0.0
        self._apply_cache: Dict[int, int] = {}
        self._not_cache: Dict[int, int] = {}
        self._restrict_cache: Dict[Tuple[int, Tuple[Tuple[int, bool], ...]], int] = {}
        self._support_cache: Dict[int, FrozenSet[int]] = {}
        #: node id -> number of decision nodes reachable from it.  Node ids
        #: are stable between collections; compaction drops this memo along
        #: with every other id-keyed cache.
        self._size_cache: Dict[int, int] = {}
        self._index_by_name: Dict[Hashable, int] = {}
        self._name_by_index: Dict[int, Hashable] = {}
        #: The level an unranked :meth:`variable` declaration takes.
        self._next_level = 0
        #: Canonical handles for the terminals and variables.  Terminal ids
        #: never move; variable handles are registered like any other handle,
        #: so compaction renumbers them in place.  Caching avoids a handle
        #: allocation per ``true``/``false``/``variable`` call on hot paths
        #: (at the cost of keeping each declared variable's node live).
        self._true_handle = BDD(self, TRUE)
        self._false_handle = BDD(self, FALSE)
        self._variable_handles: Dict[Hashable, BDD] = {}

    def _bound(self, cache: Dict, counters: CacheCounters) -> None:
        """Drop ``cache`` wholesale when it reaches the configured limit."""
        if len(cache) >= self.cache_limit:
            cache.clear()
            counters.evictions += 1

    def cache_stats(self) -> Dict[str, object]:
        """Work and cache counters (hits, misses, evictions, live entries)."""
        stats = self.stats
        return {
            "apply_calls": stats.apply_calls,
            "restrict_calls": stats.restrict_calls,
            "cache_limit": self.cache_limit,
            "apply": stats.apply.snapshot(len(self._apply_cache)),
            "negate": stats.negate.snapshot(len(self._not_cache)),
            "restrict": stats.restrict.snapshot(len(self._restrict_cache)),
            "support": stats.support.snapshot(len(self._support_cache)),
            "size": stats.size.snapshot(len(self._size_cache)),
        }

    # -- variable management ------------------------------------------------
    def variable(self, name: Hashable, rank: Optional[int] = None) -> BDD:
        """Return (creating if needed) the BDD for the single variable ``name``.

        A new variable takes ``rank`` as its level, or the level below every
        existing one when ``rank`` is ``None``.  A declared variable keeps its
        level whatever ``rank`` a later call passes.
        """
        handle = self._variable_handles.get(name)
        if handle is not None:
            return handle
        if rank is None:
            rank = self._next_level
        if not 0 <= rank < TERMINAL_VAR:
            raise BDDError(f"variable rank {rank} is outside [0, 2**60)")
        if rank in self._name_by_index:
            raise BDDError(
                f"cannot declare {name!r} at rank {rank}: "
                f"{self._name_by_index[rank]!r} holds it"
            )
        self._index_by_name[name] = rank
        self._name_by_index[rank] = name
        if rank >= self._next_level:
            self._next_level = rank + 1
        handle = BDD(self, self._table.make(rank, FALSE, TRUE))
        self._variable_handles[name] = handle
        return handle

    def variables(self, *names: Hashable) -> Tuple[BDD, ...]:
        """Create several variables at once, in order."""
        return tuple(self.variable(name) for name in names)

    def has_variable(self, name: Hashable) -> bool:
        """True if ``name`` has been declared as a variable."""
        return name in self._index_by_name

    def name_of(self, index: int) -> Hashable:
        """Map a variable level back to its name."""
        return self._name_by_index[index]

    def index_of(self, name: Hashable) -> int:
        """Map a variable name to its level (raises BDDError if unknown)."""
        try:
            return self._index_by_name[name]
        except KeyError as exc:
            raise BDDError(f"unknown BDD variable: {name!r}") from exc

    @property
    def variable_count(self) -> int:
        """Number of declared variables."""
        return len(self._name_by_index)

    @property
    def table_size(self) -> int:
        """Current number of nodes in the table (terminals included)."""
        return len(self._table)

    # -- constants ------------------------------------------------------------
    @property
    def true(self) -> BDD:
        """The constant-true function."""
        return self._true_handle

    @property
    def false(self) -> BDD:
        """The constant-false function."""
        return self._false_handle

    # -- core apply -----------------------------------------------------------
    def _check(self, *operands: BDD) -> None:
        for operand in operands:
            if operand.manager is not self:
                raise BDDError("cannot combine BDDs from different managers")

    def apply_and(self, left: BDD, right: BDD) -> BDD:
        """Conjunction (used when operators join tuples).

        Returns the *operand handle itself* when the result is one of the
        operands (absorption makes that the common case), avoiding a handle
        allocation and registry entry per suppressed delta.
        """
        if left.manager is not self or right.manager is not self:
            raise BDDError("cannot combine BDDs from different managers")
        node = self._apply(_OP_AND, left.node, right.node)
        if node == left.node:
            return left
        if node == right.node:
            return right
        result = BDD(self, node)
        self._maybe_collect()
        return result

    def apply_or(self, left: BDD, right: BDD) -> BDD:
        """Disjunction (used when a tuple gains an alternative derivation)."""
        if left.manager is not self or right.manager is not self:
            raise BDDError("cannot combine BDDs from different managers")
        node = self._apply(_OP_OR, left.node, right.node)
        if node == left.node:
            return left
        if node == right.node:
            return right
        result = BDD(self, node)
        self._maybe_collect()
        return result

    def apply_xor(self, left: BDD, right: BDD) -> BDD:
        """Exclusive-or (used by tests to compare functions)."""
        if left.manager is not self or right.manager is not self:
            raise BDDError("cannot combine BDDs from different managers")
        result = BDD(self, self._apply(_OP_XOR, left.node, right.node))
        self._maybe_collect()
        return result

    def diff(self, left: BDD, right: BDD) -> BDD:
        """``left AND NOT right`` as a single kernel operation.

        This is the ``deltaPv = newPv AND NOT oldPv`` step of Algorithm 1; a
        dedicated op avoids materialising the negation of ``right``.
        """
        if left.manager is not self or right.manager is not self:
            raise BDDError("cannot combine BDDs from different managers")
        node = self._apply(_OP_DIFF, left.node, right.node)
        if node == left.node:
            return left
        result = BDD(self, node)
        self._maybe_collect()
        return result

    def implies(self, left: BDD, right: BDD) -> bool:
        """True iff ``left -> right`` is a tautology (``left OR right == right``).

        The absorption test of Algorithm 3 without the disjunction: a
        read-only walk over operand pairs on an explicit stack that stops at
        the first counter-example.  It builds no node and allocates no
        handle, so it can never trigger a collection.  Every pair visited
        counts as one step of ``stats.apply_calls`` and the walk's time
        bills to ``kernel_time_s``, like any apply.
        """
        if left.manager is not self or right.manager is not self:
            raise BDDError("cannot combine BDDs from different managers")
        t0 = _perf_counter()
        table = self._table
        var_arr = table._var
        low_arr = table._low
        high_arr = table._high
        #: Pairs already expanded.  The walk leaves at the first pair that
        #: fails, so every pair seen twice is one that holds.
        seen: Set[int] = set()
        stack = [left.node, right.node]
        push = stack.append
        pop = stack.pop
        calls = 0
        holds = True
        while stack:
            b = pop()
            a = pop()
            calls += 1
            if a == 0 or b == 1 or a == b:
                continue
            if b == 0 or a == 1:
                # ``a`` is satisfiable where ``b`` is false (canonicity: any
                # non-terminal node is neither constant).
                holds = False
                break
            key = (a << 32) | b
            if key in seen:
                continue
            seen.add(key)
            avar = var_arr[a]
            bvar = var_arr[b]
            if avar < bvar:
                push(high_arr[a])
                push(b)
                push(low_arr[a])
                push(b)
            elif bvar < avar:
                push(a)
                push(high_arr[b])
                push(a)
                push(low_arr[b])
            else:
                push(high_arr[a])
                push(high_arr[b])
                push(low_arr[a])
                push(low_arr[b])
        self.stats.apply_calls += calls
        self._kernel_seconds += _perf_counter() - t0
        return holds

    def negate(self, operand: BDD) -> BDD:
        """Logical negation."""
        self._check(operand)
        result = BDD(self, self._negate(operand.node))
        self._maybe_collect()
        return result

    def conjoin(self, operands: Iterable[BDD]) -> BDD:
        """AND a collection of BDDs together, left to right (empty -> True)."""
        result = TRUE
        for operand in operands:
            self._check(operand)
            result = self._apply(_OP_AND, result, operand.node)
            if result == FALSE:
                break
        wrapped = BDD(self, result)
        self._maybe_collect()
        return wrapped

    def disjoin(self, operands: Iterable[BDD]) -> BDD:
        """OR a collection of BDDs together, left to right (empty -> False)."""
        result = FALSE
        for operand in operands:
            self._check(operand)
            result = self._apply(_OP_OR, result, operand.node)
            if result == TRUE:
                break
        wrapped = BDD(self, result)
        self._maybe_collect()
        return wrapped

    def conjoin_many(self, operands: Iterable[BDD]) -> BDD:
        """AND many BDDs with balanced-tree reduction (empty -> True).

        Pairwise reduction keeps the intermediate results small and the apply
        cache hot: a chain of ``k`` operands performs ``k - 1`` applies at
        depth ``log k`` instead of a depth-``k`` ladder whose left operand
        keeps regrowing.  The result is canonical, so it is bit-identical to
        the chained :meth:`conjoin`.
        """
        nodes: List[int] = []
        last = None
        for operand in operands:
            if operand.manager is not self:
                raise BDDError("cannot combine BDDs from different managers")
            node = operand.node
            if node == FALSE:
                return self._false_handle
            if node != TRUE:
                nodes.append(node)
                last = operand
        if not nodes:
            return self._true_handle
        if len(nodes) == 1:
            return last
        result = self._reduce_balanced(_OP_AND, nodes, TRUE, FALSE)
        if result == FALSE:
            return self._false_handle
        wrapped = BDD(self, result)
        self._maybe_collect()
        return wrapped

    def disjoin_many(self, operands: Iterable[BDD]) -> BDD:
        """OR many BDDs with balanced-tree reduction (empty -> False)."""
        nodes: List[int] = []
        last = None
        for operand in operands:
            if operand.manager is not self:
                raise BDDError("cannot combine BDDs from different managers")
            node = operand.node
            if node == TRUE:
                return self._true_handle
            if node != FALSE:
                nodes.append(node)
                last = operand
        if not nodes:
            return self._false_handle
        if len(nodes) == 1:
            return last
        result = self._reduce_balanced(_OP_OR, nodes, FALSE, TRUE)
        if result == TRUE:
            return self._true_handle
        wrapped = BDD(self, result)
        self._maybe_collect()
        return wrapped

    def _reduce_balanced(self, op: int, nodes: List[int], unit: int, absorbing: int) -> int:
        """Pairwise-reduce ``nodes`` under ``op`` (raw ids; no GC inside)."""
        if not nodes:
            return unit
        apply_ = self._apply
        while len(nodes) > 1:
            merged: List[int] = []
            for index in range(0, len(nodes) - 1, 2):
                result = apply_(op, nodes[index], nodes[index + 1])
                if result == absorbing:
                    return absorbing
                merged.append(result)
            if len(nodes) & 1:
                merged.append(nodes[-1])
            nodes = merged
        return nodes[0]

    def ite(self, cond: BDD, then: BDD, otherwise: BDD) -> BDD:
        """If-then-else composition: ``(cond AND then) OR (NOT cond AND otherwise)``."""
        self._check(cond, then, otherwise)
        positive = self._apply(_OP_AND, cond.node, then.node)
        negative = self._apply(_OP_AND, self._negate(cond.node), otherwise.node)
        result = BDD(self, self._apply(_OP_OR, positive, negative))
        self._maybe_collect()
        return result

    def _terminal_apply(self, op: int, left: int, right: int) -> Optional[int]:
        """Terminal-rule result of ``op`` on ``(left, right)``, or None.

        Kept as a helper for the *entry* fast path only; the kernel loop
        inlines the same rules per step.
        """
        if op == _OP_AND:
            if left == 0 or right == 0:
                return 0
            if left == 1:
                return right
            if right == 1 or left == right:
                return left
        elif op == _OP_OR:
            if left == 1 or right == 1:
                return 1
            if left == 0:
                return right
            if right == 0 or left == right:
                return left
        elif op == _OP_XOR:
            if left == right:
                return 0
            if left == 0:
                return right
            if right == 0:
                return left
        else:  # DIFF: left AND NOT right
            if left == 0 or right == 1 or left == right:
                return 0
            if right == 0:
                return left
        return None

    def _apply(self, op: int, left: int, right: int) -> int:
        """Iterative Shannon expansion for the binary ops (no Python recursion).

        The entry fast path resolves terminal rules and root cache hits
        without touching the loop machinery (the overwhelmingly common case
        for absorption workloads, where most public ops are small deltas
        against already-seen operands).  Frames on the explicit stack are
        ``(False, left, right)`` expansions and ``(True, cache_key, var)``
        combinations; completed sub-results flow through ``results`` in
        post-order.  The node-table arrays and the unique table are bound to
        locals and the hash-consing is inlined, so a step costs
        dictionary/list operations only.
        """
        t0 = _perf_counter()
        stats = self.stats
        # -- entry fast path: terminal rule or root cache hit ----------------
        terminal = self._terminal_apply(op, left, right)
        if terminal is not None:
            stats.apply_calls += 1
            self._kernel_seconds += _perf_counter() - t0
            return terminal
        is_diff = op == _OP_DIFF
        if not is_diff and left > right:
            # Canonicalise commutative operand order for cache hit rates.
            left, right = right, left
        cache = self._apply_cache
        cache_get = cache.get
        root_key = (((left << 32) | right) << 2) | op
        cached = cache_get(root_key)
        if cached is not None:
            stats.apply_calls += 1
            stats.apply.hits += 1
            self._kernel_seconds += _perf_counter() - t0
            return cached
        # -- slow path: explicit-stack expansion -----------------------------
        counters = stats.apply
        table = self._table
        var_arr = table._var
        low_arr = table._low
        high_arr = table._high
        unique = table._unique
        unique_get = unique.get
        #: Remaining cache inserts before the bounded cache resets; computed
        #: once per kernel call instead of a len() per insert.
        room = self.cache_limit - len(cache)

        calls = 1
        hits = 0
        misses = 1
        results: List[int] = []
        push_result = results.append
        lvar = var_arr[left]
        rvar = var_arr[right]
        if lvar < rvar:
            var = lvar
            stack = [
                (True, root_key, var),
                (False, high_arr[left], right),
                (False, low_arr[left], right),
            ]
        elif rvar < lvar:
            var = rvar
            stack = [
                (True, root_key, var),
                (False, left, high_arr[right]),
                (False, left, low_arr[right]),
            ]
        else:
            var = lvar
            stack = [
                (True, root_key, var),
                (False, high_arr[left], high_arr[right]),
                (False, low_arr[left], low_arr[right]),
            ]
        push = stack.append
        pop = stack.pop
        while stack:
            combine, a, b = pop()
            if combine:
                # a = cache key, b = decision variable.
                high = results.pop()
                low = results[-1]
                if low == high:
                    node = low
                else:
                    bucket = unique_get(b)
                    if bucket is None:
                        bucket = unique[b] = {}
                    ukey = (low << 32) | high
                    node = bucket.get(ukey)
                    if node is None:
                        node = len(var_arr)
                        var_arr.append(b)
                        low_arr.append(low)
                        high_arr.append(high)
                        bucket[ukey] = node
                if room <= 0:
                    cache.clear()
                    counters.evictions += 1
                    room = self.cache_limit
                cache[a] = node
                room -= 1
                results[-1] = node
                continue
            calls += 1
            # Terminal rules, inlined per op (a = left, b = right).
            if op == _OP_AND:
                if a == 0 or b == 0:
                    push_result(0)
                    continue
                if a == 1:
                    push_result(b)
                    continue
                if b == 1 or a == b:
                    push_result(a)
                    continue
            elif op == _OP_OR:
                if a == 1 or b == 1:
                    push_result(1)
                    continue
                if a == 0:
                    push_result(b)
                    continue
                if b == 0 or a == b:
                    push_result(a)
                    continue
            elif op == _OP_XOR:
                if a == b:
                    push_result(0)
                    continue
                if a == 0:
                    push_result(b)
                    continue
                if b == 0:
                    push_result(a)
                    continue
            else:  # DIFF: a AND NOT b
                if a == 0 or b == 1 or a == b:
                    push_result(0)
                    continue
                if b == 0:
                    push_result(a)
                    continue
                # a == 1 falls through: DIFF(1, b) expands into the negation
                # of b through the same cache (terminal cofactors handle it).
            if not is_diff and a > b:
                a, b = b, a
            key = (((a << 32) | b) << 2) | op
            cached = cache_get(key)
            if cached is not None:
                hits += 1
                push_result(cached)
                continue
            misses += 1
            lvar = var_arr[a]
            rvar = var_arr[b]
            if lvar < rvar:
                push((True, key, lvar))
                push((False, high_arr[a], b))
                push((False, low_arr[a], b))
            elif rvar < lvar:
                push((True, key, rvar))
                push((False, a, high_arr[b]))
                push((False, a, low_arr[b]))
            else:
                push((True, key, lvar))
                push((False, high_arr[a], high_arr[b]))
                push((False, low_arr[a], low_arr[b]))
        stats.apply_calls += calls
        counters.hits += hits
        counters.misses += misses
        self._kernel_seconds += _perf_counter() - t0
        return results[0]

    def _negate(self, node: int) -> int:
        """Iterative negation (explicit stack, memoised per node)."""
        if node <= TRUE:
            return 1 - node
        t0 = _perf_counter()
        counters = self.stats.negate
        cache = self._not_cache
        cache_get = cache.get
        cached = cache_get(node)
        if cached is not None:
            counters.hits += 1
            self._kernel_seconds += _perf_counter() - t0
            return cached
        table = self._table
        var_arr = table._var
        low_arr = table._low
        high_arr = table._high
        make = table.make
        room = self.cache_limit - len(cache)

        hits = 0
        misses = 1
        results: List[int] = []
        push_result = results.append
        stack: List[Tuple[bool, int]] = [
            (True, node),
            (False, high_arr[node]),
            (False, low_arr[node]),
        ]
        push = stack.append
        pop = stack.pop
        while stack:
            combine, n = pop()
            if combine:
                high = results.pop()
                low = results[-1]
                result = make(var_arr[n], low, high)
                if room <= 0:
                    cache.clear()
                    counters.evictions += 1
                    room = self.cache_limit
                cache[n] = result
                room -= 1
                results[-1] = result
                continue
            if n <= TRUE:
                push_result(1 - n)
                continue
            cached = cache_get(n)
            if cached is not None:
                hits += 1
                push_result(cached)
                continue
            misses += 1
            push((True, n))
            push((False, high_arr[n]))
            push((False, low_arr[n]))
        counters.hits += hits
        counters.misses += misses
        self._kernel_seconds += _perf_counter() - t0
        return results[0]

    # -- restriction / quantification -----------------------------------------
    def restrict(self, operand: BDD, assignment: Mapping[Hashable, bool]) -> BDD:
        """Substitute constants for named variables.

        Unknown variable names are ignored (they cannot occur in the function),
        which lets callers blindly zero out deleted base tuples.  The common
        single-variable case skips the sort and mapping rebuild entirely.
        """
        self._check(operand)
        index_by_name = self._index_by_name
        if len(assignment) == 1:
            ((name, value),) = assignment.items()
            index = index_by_name.get(name)
            if index is None:
                return operand
            value = bool(value)
            node = self._restrict(operand.node, {index: value}, ((index, value),))
            result = BDD(self, node)
            self._maybe_collect()
            return result
        indexed: List[Tuple[int, bool]] = []
        for name, value in assignment.items():
            index = index_by_name.get(name)
            if index is not None:
                indexed.append((index, bool(value)))
        if not indexed:
            return operand
        indexed.sort()
        key_suffix = tuple(indexed)
        mapping = dict(indexed)
        node = self._restrict(operand.node, mapping, key_suffix)
        result = BDD(self, node)
        self._maybe_collect()
        return result

    def _restrict(
        self,
        node: int,
        mapping: Dict[int, bool],
        key_suffix: Tuple[Tuple[int, bool], ...],
    ) -> int:
        """Iterative restriction (explicit stack; no Python recursion).

        Frame tags: ``0`` expand, ``1`` combine two child results, ``2`` cache
        a passthrough result (the node's variable was assigned a constant).
        """
        if node <= TRUE:
            return node
        t0 = _perf_counter()
        stats = self.stats
        cache = self._restrict_cache
        cache_get = cache.get
        cached = cache_get((node, key_suffix))
        if cached is not None:
            stats.restrict_calls += 1
            stats.restrict.hits += 1
            self._kernel_seconds += _perf_counter() - t0
            return cached
        counters = stats.restrict
        table = self._table
        var_arr = table._var
        low_arr = table._low
        high_arr = table._high
        make = table.make
        get_assigned = mapping.get
        room = self.cache_limit - len(cache)

        calls = 1
        hits = 0
        misses = 1
        results: List[int] = []
        push_result = results.append
        assigned = get_assigned(var_arr[node])
        if assigned is None:
            stack = [(1, node), (0, high_arr[node]), (0, low_arr[node])]
        else:
            stack = [(2, node), (0, high_arr[node] if assigned else low_arr[node])]
        push = stack.append
        pop = stack.pop
        while stack:
            tag, n = pop()
            if tag == 0:
                if n <= TRUE:
                    push_result(n)
                    continue
                calls += 1
                cached = cache_get((n, key_suffix))
                if cached is not None:
                    hits += 1
                    push_result(cached)
                    continue
                misses += 1
                assigned = get_assigned(var_arr[n])
                if assigned is None:
                    push((1, n))
                    push((0, high_arr[n]))
                    push((0, low_arr[n]))
                else:
                    push((2, n))
                    push((0, high_arr[n] if assigned else low_arr[n]))
            elif tag == 1:
                high = results.pop()
                low = results[-1]
                result = make(var_arr[n], low, high)
                if room <= 0:
                    cache.clear()
                    counters.evictions += 1
                    room = self.cache_limit
                cache[(n, key_suffix)] = result
                room -= 1
                results[-1] = result
            else:
                if room <= 0:
                    cache.clear()
                    counters.evictions += 1
                    room = self.cache_limit
                cache[(n, key_suffix)] = results[-1]
                room -= 1
        stats.restrict_calls += calls
        counters.hits += hits
        counters.misses += misses
        self._kernel_seconds += _perf_counter() - t0
        return results[0]

    def exist(self, operand: BDD, names: Iterable[Hashable]) -> BDD:
        """Existential quantification over the named variables."""
        self._check(operand)
        result = operand
        for name in names:
            if name not in self._index_by_name:
                continue
            low = self.restrict(result, {name: False})
            high = self.restrict(result, {name: True})
            result = self.apply_or(low, high)
        return result

    # -- garbage collection ------------------------------------------------------
    def add_root_source(self, provider) -> None:
        """Enroll an extra GC root provider.

        ``provider`` is a zero-argument callable returning an iterable of
        :class:`BDD` handles (raw node ids are also accepted for marking, but
        only handles are renumbered — always yield handles), or ``None`` to
        signal that its owner is gone, which deregisters the provider at the
        next collection (so node rebuilds under fault/elastic churn cannot
        accumulate dead providers).  Live handles are tracked automatically;
        sources exist for subsystems that hold annotations in bulk (operator
        state tables, codecs, migration) to make their enrollment in the
        root protocol explicit and robust.
        """
        self._root_sources.append(provider)

    @contextmanager
    def defer_gc(self):
        """Context manager: suspend automatic collection within the block.

        Used by codec paths (serialize/deserialize, checkpoint capture and
        restore, migration slices) that interleave many small kernel calls:
        deferral batches what would be several small collections into at most
        one at block exit.
        """
        self._gc_defer += 1
        try:
            yield self
        finally:
            self._gc_defer -= 1
            if not self._gc_defer:
                self._maybe_collect()

    def _maybe_collect(self) -> None:
        """Run a collection pass when the table has outgrown the trigger size."""
        if (
            len(self._table._var) >= self._gc_trigger_size
            and self.gc_threshold > 0.0
            and not self._gc_defer
        ):
            self.collect()
        elif len(self._handles) >= self._handle_prune_size:
            self._prune_handles()

    def _prune_handles(self) -> None:
        """Sweep dead weakrefs out of the handle registry."""
        self._handles = [ref for ref in self._handles if ref() is not None]
        self._handle_prune_size = max(2 * len(self._handles), DEFAULT_HANDLE_PRUNE)

    def collect(self, force: bool = False) -> Dict[str, object]:
        """Mark-and-sweep the node table; compact and renumber when worthwhile.

        Roots are every live :class:`BDD` handle plus anything yielded by the
        enrolled root sources.  When the dead fraction reaches
        ``gc_threshold`` (or ``force`` is true) the table is compacted, every
        live handle's node id is rewritten in place, and the id-keyed memo
        caches are remapped through the renumbering; otherwise the pass only
        backs off the trigger size.  Returns a summary of the pass.
        """
        # The kernel is the lowest layer and imports nothing above it at
        # module load (``repro.obs`` imports the provenance layer, which
        # imports this module).  GC runs are rare and already pay a full
        # table scan, so resolving the global tracer here (instead of
        # plumbing one through every manager owner) costs nothing measurable.
        from repro.obs.trace import GC_TID, KERNEL_PID, current_tracer

        tracer = current_tracer()
        span = None
        if tracer.enabled:
            # The node-context pid attributes passes triggered inside a
            # delivery to that node's track; passes outside any handler land
            # on the shared ``bdd-kernel`` track.
            span = tracer.begin(
                tracer.context_pid(KERNEL_PID),
                "gc-pass",
                "gc",
                tid=GC_TID,
                args={"forced": force},
            )
        t0 = _perf_counter()
        gc = self.gc
        table = self._table
        low_arr = table._low
        high_arr = table._high
        size = len(low_arr)
        if size > gc.peak_table_size:
            gc.peak_table_size = size

        marked = bytearray(size)
        marked[FALSE] = 1
        marked[TRUE] = 1
        stack: List[int] = []
        push = stack.append
        # Strong-ref the live handles for the duration of the pass (they are
        # both the root set and the renumbering targets) and prune dead refs.
        handles: List[BDD] = []
        live_refs: List["weakref.ref[BDD]"] = []
        for ref in self._handles:
            handle = ref()
            if handle is None:
                continue
            handles.append(handle)
            live_refs.append(ref)
            n = handle.node
            if not marked[n]:
                marked[n] = 1
                push(n)
        self._handles = live_refs
        self._handle_prune_size = max(2 * len(live_refs), DEFAULT_HANDLE_PRUNE)
        live_sources = []
        for source in self._root_sources:
            roots = source()
            if roots is None:
                continue  # owner gone: deregister by omission
            live_sources.append(source)
            for item in roots:
                n = item.node if isinstance(item, BDD) else item
                if not marked[n]:
                    marked[n] = 1
                    push(n)
        self._root_sources = live_sources
        pop = stack.pop
        while stack:
            n = pop()
            child = low_arr[n]
            if not marked[child]:
                marked[child] = 1
                push(child)
            child = high_arr[n]
            if not marked[child]:
                marked[child] = 1
                push(child)

        live = sum(marked)
        dead = size - live
        gc.passes += 1
        compacted = force or (size > 0 and dead >= size * self.gc_threshold)
        if compacted:
            remap = table.compact(marked)
            for handle in handles:
                handle.node = remap[handle.node]
            self._remap_caches(marked, remap)
            gc.compactions += 1
            gc.nodes_reclaimed += dead
            self._gc_trigger_size = max(int(live * self.gc_growth), self.gc_min_table)
        else:
            gc.skipped += 1
            self._gc_trigger_size = max(int(size * self.gc_growth), self.gc_min_table)
        pause = _perf_counter() - t0
        gc.pause_seconds += pause
        if pause > gc.max_pause_seconds:
            gc.max_pause_seconds = pause
        summary = {
            "compacted": compacted,
            "live_nodes": live,
            "dead_nodes": dead,
            "reclaimed": dead if compacted else 0,
            "pause_s": pause,
        }
        if span is not None:
            tracer.end(span, args=summary)
        return summary

    def _remap_caches(self, marked: bytearray, remap: List[int]) -> None:
        """Renumber the memo caches through ``remap`` instead of dropping them.

        Every cached sub-result over surviving nodes stays warm across the
        compaction (recomputing them is far costlier than one dict rebuild);
        entries touching reclaimed nodes are dropped.  Memoised *values*
        (node counts, support sets) are id-independent and survive verbatim.
        """
        apply_cache = self._apply_cache
        rebuilt: Dict[int, int] = {}
        for key, value in apply_cache.items():
            if not marked[value]:
                continue
            operands = key >> 2
            a = operands >> 32
            b = operands & 0xFFFFFFFF
            if marked[a] and marked[b]:
                rebuilt[(((remap[a] << 32) | remap[b]) << 2) | (key & 3)] = remap[value]
        self._apply_cache = rebuilt
        self._not_cache = {
            remap[node]: remap[value]
            for node, value in self._not_cache.items()
            if marked[node] and marked[value]
        }
        self._restrict_cache = {
            (remap[node], suffix): remap[value]
            for (node, suffix), value in self._restrict_cache.items()
            if marked[node] and marked[value]
        }
        self._support_cache = {
            remap[node]: value
            for node, value in self._support_cache.items()
            if marked[node]
        }
        self._size_cache = {
            remap[node]: value
            for node, value in self._size_cache.items()
            if marked[node]
        }

    @property
    def kernel_seconds(self) -> float:
        """Cumulative wall seconds spent inside the kernel loops (monotonic).

        The tracer diffs this around each delivery to synthesise per-node
        kernel-time spans; ``gc_stats`` reports it as ``kernel_time_s``.
        """
        return self._kernel_seconds

    def gc_stats(self) -> Dict[str, object]:
        """Kernel telemetry: table sizes, reclamation counters, pauses, time.

        ``kernel_time_s`` is the cumulative wall time spent inside the
        iterative kernel loops (apply/negate/restrict); GC pauses are counted
        separately.
        """
        gc = self.gc
        size = len(self._table)
        if size > gc.peak_table_size:
            gc.peak_table_size = size
        return {
            "table_size": size,
            "peak_table_size": gc.peak_table_size,
            "nodes_reclaimed": gc.nodes_reclaimed,
            "gc_passes": gc.passes,
            "gc_compactions": gc.compactions,
            "gc_skipped": gc.skipped,
            "gc_pause_s": gc.pause_seconds,
            "gc_max_pause_s": gc.max_pause_seconds,
            "gc_threshold": self.gc_threshold,
            "gc_trigger_size": self._gc_trigger_size,
            "kernel_time_s": self._kernel_seconds,
        }

    # -- structural queries -----------------------------------------------------
    def node_count(self, operand: BDD) -> int:
        """Count decision nodes reachable from ``operand`` (terminals excluded).

        Memoised per canonical root node: annotations are re-measured on
        every send (the per-tuple provenance metric) and on every state-bytes
        probe.  Node ids are stable between collections, and the memo is
        dropped on compaction, so the count can never go stale.
        """
        self._check(operand)
        root = operand.node
        if root <= TRUE:
            return 0
        cached = self._size_cache.get(root)
        if cached is not None:
            self.stats.size.hits += 1
            return cached
        self.stats.size.misses += 1
        table = self._table
        low_arr = table._low
        high_arr = table._high
        seen: Set[int] = {root}
        add = seen.add
        stack = [root]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            child = low_arr[node]
            if child > TRUE and child not in seen:
                add(child)
                push(child)
            child = high_arr[node]
            if child > TRUE and child not in seen:
                add(child)
                push(child)
        self._bound(self._size_cache, self.stats.size)
        self._size_cache[root] = len(seen)
        return len(seen)

    def size_bytes(self, operand: BDD) -> int:
        """Approximate wire/memory size of the annotation in bytes.

        Terminals (True/False annotations) still cost a small constant, which
        matches the paper's observation that set-semantics execution (DRed)
        has a small but non-zero per-tuple overhead.
        """
        count = self.node_count(operand)
        return max(count, 1) * BYTES_PER_NODE

    def support(self, operand: BDD) -> FrozenSet[int]:
        """Set of variable indices the function depends on."""
        self._check(operand)
        return self._support(operand.node)

    def _support(self, node: int) -> FrozenSet[int]:
        """Iterative support computation, memoised per root node.

        The traversal consults the memo for every *sub*-node as well: under
        hash-consing, annotations share subgraphs heavily, so a scan over a
        provenance table (the purge fast path) pays only for nodes no earlier
        support query has reached.  The walk is a kernel loop over the node
        table, so its time bills to ``kernel_time_s`` like apply/restrict.
        """
        if node <= TRUE:
            return frozenset()
        cache = self._support_cache
        cached = cache.get(node)
        if cached is not None:
            self.stats.support.hits += 1
            return cached
        self.stats.support.misses += 1
        t0 = _perf_counter()
        table = self._table
        var_arr = table._var
        low_arr = table._low
        high_arr = table._high
        variables: Set[int] = set()
        seen: Set[int] = {node}
        stack = [node]
        while stack:
            n = stack.pop()
            variables.add(var_arr[n])
            for child in (low_arr[n], high_arr[n]):
                if child > TRUE and child not in seen:
                    seen.add(child)
                    known = cache.get(child)
                    if known is not None:
                        variables.update(known)
                    else:
                        stack.append(child)
        result = frozenset(variables)
        self._bound(cache, self.stats.support)
        cache[node] = result
        self._kernel_seconds += _perf_counter() - t0
        return result

    def sat_count(self, operand: BDD) -> int:
        """Number of satisfying assignments over all declared variables.

        Levels are sparse, so the count runs over each level's *position*
        among the declared levels: every position a path skips is a free
        variable and doubles the count.
        """
        self._check(operand)
        position = {level: index for index, level in enumerate(sorted(self._name_by_index))}
        position[TERMINAL_VAR] = len(self._name_by_index)
        table = self._table
        var_of = table.var_of
        cache: Dict[int, int] = {}

        def count(node: int) -> int:
            # Solutions over the variables at or below the node's position.
            if node <= TRUE:
                return node
            if node in cache:
                return cache[node]
            var, low, high = table.triple(node)
            below = position[var] + 1
            result = (count(low) << (position[var_of(low)] - below)) + (
                count(high) << (position[var_of(high)] - below)
            )
            cache[node] = result
            return result

        root = operand.node
        return count(root) << position[var_of(root)]

    def any_sat(self, operand: BDD) -> Optional[Dict[Hashable, bool]]:
        """Return one (partial) satisfying assignment keyed by variable name."""
        self._check(operand)
        node = operand.node
        if node == FALSE:
            return None
        assignment: Dict[Hashable, bool] = {}
        table = self._table
        while node > TRUE:
            var, low, high = table.triple(node)
            if high != FALSE:
                assignment[self._name_by_index[var]] = True
                node = high
            else:
                assignment[self._name_by_index[var]] = False
                node = low
        return assignment

    def evaluate(self, operand: BDD, assignment: Mapping[Hashable, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        self._check(operand)
        node = operand.node
        table = self._table
        while node > TRUE:
            var = table.var_of(node)
            name = self._name_by_index[var]
            if name not in assignment:
                raise BDDError(f"assignment missing variable {name!r}")
            node = table.high_of(node) if assignment[name] else table.low_of(node)
        return node == TRUE

    def iter_products(self, operand: BDD) -> Iterator[FrozenSet[Hashable]]:
        """Enumerate positive-literal products of a monotone function.

        Each yielded frozenset of variable names, when all set to True (and all
        other variables False), satisfies the function.  For monotone functions
        (absorption provenance) these are exactly the minimal support sets of
        derivations that survive absorption.
        """
        self._check(operand)
        table = self._table
        seen: Set[FrozenSet[Hashable]] = set()

        def walk(node: int, acc: Tuple[Hashable, ...]) -> Iterator[FrozenSet[Hashable]]:
            if node == FALSE:
                return
            if node == TRUE:
                product = frozenset(acc)
                if product not in seen:
                    seen.add(product)
                    yield product
                return
            var, low, high = table.triple(node)
            name = self._name_by_index[var]
            yield from walk(low, acc)
            yield from walk(high, acc + (name,))

        yield from walk(operand.node, ())

    # -- conversion -------------------------------------------------------------
    def from_products(self, products: Iterable[Iterable[Hashable]]) -> BDD:
        """Build the disjunction of conjunctions of the named variables.

        ``from_products([["p1", "p2"], ["p3"]])`` is ``(p1 & p2) | p3``.
        """
        terms = [
            self.conjoin_many([self.variable(name) for name in product])
            for product in products
        ]
        return self.disjoin_many(terms)

    def clear_caches(self) -> None:
        """Drop operation caches (the node table itself is kept).

        Counters survive the clear — they describe cumulative work, not the
        current cache contents.  The node-count memo is also dropped; it will
        repopulate with identical values (node ids are stable between
        collections).
        """
        self._apply_cache.clear()
        self._not_cache.clear()
        self._restrict_cache.clear()
        self._support_cache.clear()
        self._size_cache.clear()
