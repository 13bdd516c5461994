"""Deep-provenance regression tests for the iterative BDD kernel.

The pre-iterative kernel ran ``_apply``/``_negate``/``_restrict`` as Python
recursion, one interpreter frame per Shannon-expansion step, so any
provenance chain deeper than the interpreter's recursion limit (1000 by
default) died with ``RecursionError``.  These tests drive chains of ≥5000
variables through the public operations **without touching
``sys.setrecursionlimit``** — they pass only because the kernel is iterative.
"""

import pickle
import sys

import pytest

from repro.bdd import BDDManager
from repro.bdd.serialize import deserialize_bdd, serialize_bdd

#: Deeper than any default recursion limit by a wide margin.
DEPTH = 5000


@pytest.fixture()
def mgr():
    return BDDManager()


def _conjunction_chain(manager, names):
    """Fold a conjunction bottom-up (each apply is O(1) work, depth grows).

    Variables are declared in list order first, so the fold prepends each
    variable *above* the accumulated chain (one new node per step) instead of
    rebuilding the chain underneath it.
    """
    variables = [manager.variable(name) for name in names]
    acc = manager.true
    for variable in reversed(variables):
        acc = variable & acc
    return acc


class TestDeepChains:
    def test_recursion_limit_untouched(self):
        # The suite must not pass because someone raised the limit.
        assert sys.getrecursionlimit() <= 10_000

    def test_deep_conjunction_apply_and_node_count(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        assert chain.node_count() == DEPTH
        assert chain.is_satisfiable()
        assert chain.evaluate({name: True for name in names})

    def test_deep_negate_is_involutive(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        negated = ~chain
        assert negated != chain
        assert ~negated == chain

    def test_deep_restrict_single_variable(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        # Zeroing one variable in the middle kills the whole conjunction.
        assert chain.restrict({f"x{DEPTH // 2}": False}).is_false()
        # Setting it true peels exactly one node off the chain.
        assert chain.restrict({f"x{DEPTH // 2}": True}).node_count() == DEPTH - 1

    def test_deep_apply_or_of_two_chains(self, mgr):
        evens = [f"x{i}" for i in range(0, 2 * DEPTH, 2)]
        odds = [f"x{i}" for i in range(1, 2 * DEPTH, 2)]
        # Declare in interleaved order so the chains interleave in the order.
        for i in range(2 * DEPTH):
            mgr.variable(f"x{i}")
        both = _conjunction_chain(mgr, evens) | _conjunction_chain(mgr, odds)
        assert both.is_satisfiable()
        all_true = {f"x{i}": True for i in range(2 * DEPTH)}
        assert both.evaluate(all_true)
        only_evens = dict(all_true)
        only_evens.update({name: False for name in odds})
        assert both.evaluate(only_evens)
        only_evens[evens[-1]] = False
        assert not both.evaluate(only_evens)

    def test_deep_implies_walks_the_whole_chain(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        for name in names:
            mgr.variable(name)
        everything = _conjunction_chain(mgr, names)
        # Every other variable, the last one included: the walk can only
        # finish (or find its counter-example) at the bottom of the chain.
        sparse = _conjunction_chain(mgr, names[1::2])
        steps_before = mgr.stats.apply_calls
        assert mgr.implies(everything, sparse)
        assert mgr.stats.apply_calls - steps_before >= DEPTH
        assert not mgr.implies(sparse, everything)

    def test_deep_without_and_support(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        assert len(chain.support()) == DEPTH
        assert chain.without([names[0]]).is_false()

    def test_deep_serialize_round_trip(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        serialized = serialize_bdd(chain)
        shipped = pickle.loads(pickle.dumps(serialized))
        assert shipped == serialized
        fresh = BDDManager()
        restored = deserialize_bdd(shipped, fresh)
        assert restored.node_count() == DEPTH
        assert serialize_bdd(restored) == serialized
        assert restored.evaluate({name: True for name in names})

    def test_deep_chain_survives_forced_gc(self, mgr):
        names = [f"x{i}" for i in range(DEPTH)]
        chain = _conjunction_chain(mgr, names)
        before = serialize_bdd(chain)
        # Build and drop a same-depth negation: DEPTH dead nodes.
        negated = ~chain
        del negated
        summary = mgr.collect(force=True)
        assert summary["compacted"]
        assert summary["reclaimed"] >= DEPTH
        assert chain.node_count() == DEPTH
        assert serialize_bdd(chain) == before
