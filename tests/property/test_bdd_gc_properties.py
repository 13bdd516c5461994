"""Property-based tests for the BDD kernel's compacting garbage collector.

Two managers execute the *same* random operation sequence; one of them is
additionally interrupted by ``collect()`` calls (including forced
compactions, which renumber every node id) at random points.  Because
handles are renumbered in place and the serialized form is name-based and
canonical, the GC run must be observationally identical to the GC-free run:
same evaluation results, equal ``serialize_bdd`` output, and
hash-consing (``make`` canonicity) must keep holding after every compaction.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.bdd.serialize import serialize_bdd

VARIABLES = ["p1", "p2", "p3", "p4", "p5"]

#: One step of a random op sequence: (op, operand index/name payloads).
_OPS = ("and", "or", "xor", "not", "diff", "restrict", "without", "disjoin_many")


def _op_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(_OPS),
            st.integers(min_value=0, max_value=999),
            st.integers(min_value=0, max_value=999),
            st.sampled_from(VARIABLES),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )


def _run_sequence(manager, steps, collect_points=()):
    """Apply ``steps`` over a growing pool of functions; return the pool.

    ``collect_points`` is a set of step indices after which ``collect`` runs
    (forced on every other occurrence, so both the skip path and the
    compaction/renumbering path are exercised).
    """
    pool = list(manager.variables(*VARIABLES)) + [manager.true, manager.false]
    forced = True
    for index, (op, i, j, name, value) in enumerate(steps):
        left = pool[i % len(pool)]
        right = pool[j % len(pool)]
        if op == "and":
            pool.append(left & right)
        elif op == "or":
            pool.append(left | right)
        elif op == "xor":
            pool.append(left ^ right)
        elif op == "not":
            pool.append(~left)
        elif op == "diff":
            pool.append(manager.diff(left, right))
        elif op == "restrict":
            pool.append(left.restrict({name: value}))
        elif op == "without":
            pool.append(left.without([name]))
        else:  # disjoin_many over a slice of the pool
            lo, hi = sorted((i % len(pool), j % len(pool)))
            pool.append(manager.disjoin_many(pool[lo : hi + 1]))
        if index in collect_points:
            manager.collect(force=forced)
            forced = not forced
    return pool


def _all_assignments():
    for values in itertools.product([False, True], repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, values))


@settings(max_examples=50, deadline=None)
@given(_op_steps(), st.sets(st.integers(min_value=0, max_value=39)))
def test_interleaved_collect_preserves_functions_bit_identically(steps, points):
    plain = BDDManager(gc_threshold=0.0)  # never collects
    collected = BDDManager(gc_threshold=0.0)
    pool_plain = _run_sequence(plain, steps)
    pool_gc = _run_sequence(collected, steps, collect_points=points)
    assert len(pool_plain) == len(pool_gc)
    for reference, survivor in zip(pool_plain, pool_gc):
        # Name-based canonical serialization must agree node for node (and,
        # being canonical, equal serializations mean identical functions).
        assert serialize_bdd(reference) == serialize_bdd(survivor)
    # Spot-check semantics on the final (most-derived) entry as well.
    reference, survivor = pool_plain[-1], pool_gc[-1]
    if reference.node > 1:
        for assignment in _all_assignments():
            assert reference.evaluate(assignment) == survivor.evaluate(assignment)


@settings(max_examples=50, deadline=None)
@given(_op_steps(), st.sets(st.integers(min_value=0, max_value=39)))
def test_automatic_gc_matches_gc_free_run(steps, points):
    """A tiny trigger size forces frequent automatic collections mid-sequence."""
    plain = BDDManager(gc_threshold=0.0)
    auto = BDDManager(gc_threshold=0.25, gc_min_table=8)
    pool_plain = _run_sequence(plain, steps)
    pool_auto = _run_sequence(auto, steps, collect_points=points)
    for reference, survivor in zip(pool_plain, pool_auto):
        assert serialize_bdd(reference) == serialize_bdd(survivor)


@settings(max_examples=50, deadline=None)
@given(_op_steps())
def test_canonicity_holds_after_compaction(steps):
    """``make`` dedup: the rebuilt unique table still hash-conses every node."""
    manager = BDDManager(gc_threshold=0.0)
    pool = _run_sequence(manager, steps)
    manager.collect(force=True)
    # Re-making every surviving triple must dedup onto the existing id and
    # allocate nothing new.
    table = manager._table
    size_before = len(table)
    for node in range(2, size_before):
        assert table.make(table.var_of(node), table.low_of(node), table.high_of(node)) == node
    assert len(table) == size_before
    # Re-deriving a surviving function through fresh applies re-interns to
    # the very same (renumbered) node id.
    for handle in pool:
        assert (handle | handle.manager.false).node == handle.node
        assert (handle & handle.manager.true).node == handle.node
