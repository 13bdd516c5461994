"""Property-based tests: the BDD manager against an independent Boolean oracle.

Random Boolean expressions are generated as syntax trees, then evaluated both
through the BDD manager and through direct Python evaluation over every
assignment of their (small) variable set.  Canonicity means two expressions
are semantically equal iff their BDD nodes coincide.
"""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.bdd.expr import BoolExpr
from repro.bdd.manager import BDDError
from repro.bdd.serialize import deserialize_bdd, serialize_bdd

VARIABLES = ["p1", "p2", "p3", "p4"]


# -- random expression trees --------------------------------------------------------

def _expressions():
    leaves = st.sampled_from(VARIABLES).map(lambda name: ("var", name)) | st.sampled_from(
        [("const", True), ("const", False)]
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _to_bdd(tree, manager: BDDManager):
    kind = tree[0]
    if kind == "var":
        return manager.variable(tree[1])
    if kind == "const":
        return manager.true if tree[1] else manager.false
    if kind == "not":
        return ~_to_bdd(tree[1], manager)
    left = _to_bdd(tree[1], manager)
    right = _to_bdd(tree[2], manager)
    return (left & right) if kind == "and" else (left | right)


def _evaluate(tree, assignment):
    kind = tree[0]
    if kind == "var":
        return assignment[tree[1]]
    if kind == "const":
        return tree[1]
    if kind == "not":
        return not _evaluate(tree[1], assignment)
    left = _evaluate(tree[1], assignment)
    right = _evaluate(tree[2], assignment)
    return (left and right) if kind == "and" else (left or right)


def _all_assignments():
    for values in itertools.product([False, True], repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, values))


@settings(max_examples=120, deadline=None)
@given(_expressions())
def test_bdd_agrees_with_direct_evaluation(tree):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = _to_bdd(tree, manager)
    for assignment in _all_assignments():
        assert bdd.evaluate(assignment) == _evaluate(tree, assignment)


@settings(max_examples=120, deadline=None)
@given(_expressions(), _expressions())
def test_canonicity_equivalence_iff_same_node(left_tree, right_tree):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    left = _to_bdd(left_tree, manager)
    right = _to_bdd(right_tree, manager)
    semantically_equal = all(
        _evaluate(left_tree, assignment) == _evaluate(right_tree, assignment)
        for assignment in _all_assignments()
    )
    assert (left.node == right.node) == semantically_equal


@settings(max_examples=200, deadline=None)
@given(_expressions(), _expressions())
def test_implies_is_the_disjunction_test_and_builds_nothing(left_tree, right_tree):
    # A collector that fires at every opportunity: the ORs below do trigger
    # passes, so "implies triggered none" is a statement about implies.
    manager = BDDManager(gc_min_table=2)
    manager.variables(*VARIABLES)
    left = _to_bdd(left_tree, manager)
    right = _to_bdd(right_tree, manager)
    gained = manager.diff(left, right)  # non-monotone even for monotone inputs
    operands = [left, right, gained, left | right, manager.true, manager.false]
    for f, g in itertools.product(operands, repeat=2):
        expected = (f | g) == g
        steps = manager.stats.apply_calls
        before = (manager.table_size, len(manager._handles), manager.gc.passes)
        assert manager.implies(f, g) is expected
        assert f.implies(g) is expected
        assert (manager.table_size, len(manager._handles), manager.gc.passes) == before
        # Two walks, at least one step each, billed as kernel expansion steps.
        assert manager.stats.apply_calls >= steps + 2


@settings(max_examples=120, deadline=None)
@given(_expressions(), st.sampled_from(VARIABLES), st.booleans())
def test_restrict_matches_semantics(tree, variable, value):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = _to_bdd(tree, manager)
    restricted = bdd.restrict({variable: value})
    for assignment in _all_assignments():
        forced = dict(assignment)
        forced[variable] = value
        assert restricted.evaluate(assignment) == _evaluate(tree, forced)


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_negation_involution_and_complement(tree):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = _to_bdd(tree, manager)
    assert ~~bdd == bdd
    assert (bdd | ~bdd).is_true()
    assert (bdd & ~bdd).is_false()


@settings(max_examples=100, deadline=None)
@given(_expressions())
def test_sat_count_matches_enumeration(tree):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = _to_bdd(tree, manager)
    expected = sum(1 for assignment in _all_assignments() if _evaluate(tree, assignment))
    assert bdd.sat_count() == expected


# -- serialization: round-trips preserve semantics ------------------------------------

def _ranks():
    """Distinct sparse ranks for ``VARIABLES``, anywhere below the terminal level."""
    return st.lists(
        st.integers(min_value=0, max_value=(1 << 60) - 1),
        min_size=len(VARIABLES),
        max_size=len(VARIABLES),
        unique=True,
    )


@settings(max_examples=120, deadline=None)
@given(_expressions())
def test_serialize_round_trip_same_manager_is_identity(tree):
    """Within one manager, deserialize(serialize(f)) is the very same node."""
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = _to_bdd(tree, manager)
    serialized = serialize_bdd(bdd)
    assert deserialize_bdd(serialized, manager) == bdd
    assert deserialize_bdd(pickle.loads(pickle.dumps(serialized)), manager) == bdd


@settings(max_examples=200, deadline=None)
@given(
    _expressions(),
    _ranks(),
    st.permutations(range(len(VARIABLES))),
    st.integers(min_value=0, max_value=len(VARIABLES)),
)
def test_decode_into_a_ranked_subset_is_a_relabel(tree, ranks, order, declared):
    """Across managers — even one that already declared some of the names at
    their ranks, in any order — decoding rebuilds the source function node
    for node, and runs no apply."""
    source = BDDManager()
    for name, rank in zip(VARIABLES, ranks):
        source.variable(name, rank)
    bdd = _to_bdd(tree, source)
    serialized = pickle.loads(pickle.dumps(serialize_bdd(bdd)))
    target = BDDManager()
    for index in order[:declared]:
        target.variable(VARIABLES[index], ranks[index])
    applies = target.stats.apply_calls
    restored = deserialize_bdd(serialized, target)
    assert target.stats.apply_calls == applies
    assert serialize_bdd(restored) == serialized
    for assignment in _all_assignments():
        expected = _evaluate(tree, assignment)
        if restored.node <= 1:
            assert restored.is_true() == expected
        else:
            assert restored.evaluate(assignment) == expected


def test_decode_rejects_a_rank_conflict():
    source = BDDManager()
    p, q = source.variable("p", 10), source.variable("q", 20)
    serialized = serialize_bdd(p & q)
    moved = BDDManager()
    moved.variable("p", 30)  # a known name at another level
    with pytest.raises(BDDError):
        deserialize_bdd(serialized, moved)
    taken = BDDManager()
    taken.variable("r", 20)  # q's rank already holds another name
    with pytest.raises(BDDError):
        deserialize_bdd(serialized, taken)


@settings(max_examples=100, deadline=None)
@given(_expressions(), _expressions())
def test_serialized_equivalence_matches_canonical_equality(left_tree, right_tree):
    """Serialize→deserialize keeps canonicity: equal functions re-intern to the
    same node of the target manager, unequal functions to different nodes."""
    source = BDDManager()
    source.variables(*VARIABLES)
    left = _to_bdd(left_tree, source)
    right = _to_bdd(right_tree, source)
    target = BDDManager()
    target.variables(*VARIABLES)
    left_restored = deserialize_bdd(serialize_bdd(left), target)
    right_restored = deserialize_bdd(serialize_bdd(right), target)
    assert (left_restored == right_restored) == (left == right)


# -- monotone expressions: BDD vs the sum-of-products oracle --------------------------

def _products():
    return st.lists(
        st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3).map(frozenset),
        min_size=0,
        max_size=5,
    )


@settings(max_examples=150, deadline=None)
@given(_products())
def test_monotone_bdd_matches_boolexpr(products):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = manager.from_products(products)
    expr = BoolExpr.from_products(products)
    for assignment in _all_assignments():
        assert bdd.evaluate(assignment) == expr.evaluate(assignment)


@settings(max_examples=150, deadline=None)
@given(_products(), st.sets(st.sampled_from(VARIABLES)))
def test_deleting_base_tuples_commutes_with_encoding(products, deleted):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    bdd = manager.from_products(products).without(deleted)
    expr = BoolExpr.from_products(products).without(deleted)
    assert bdd.is_false() == expr.is_false()
    for assignment in _all_assignments():
        assert bdd.evaluate(assignment) == expr.evaluate(assignment)


@settings(max_examples=150, deadline=None)
@given(_products(), _products())
def test_absorption_idempotent_algebra(left_products, right_products):
    manager = BDDManager()
    manager.variables(*VARIABLES)
    left = manager.from_products(left_products)
    right = manager.from_products(right_products)
    assert (left | (left & right)) == left
    assert (left & (left | right)) == left
