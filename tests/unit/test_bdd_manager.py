"""Unit tests for the ROBDD manager (repro.bdd.manager)."""

import pytest

from repro.bdd import BDD, BDDManager
from repro.bdd.manager import BDDError


@pytest.fixture()
def mgr():
    return BDDManager()


class TestConstants:
    def test_true_false_distinct(self, mgr):
        assert mgr.true != mgr.false

    def test_true_is_true(self, mgr):
        assert mgr.true.is_true()
        assert not mgr.true.is_false()

    def test_false_is_false(self, mgr):
        assert mgr.false.is_false()
        assert not mgr.false.is_satisfiable()

    def test_bool_raises(self, mgr):
        with pytest.raises(TypeError):
            bool(mgr.true)


class TestVariables:
    def test_variable_is_satisfiable(self, mgr):
        p = mgr.variable("p")
        assert p.is_satisfiable()
        assert not p.is_true()
        assert not p.is_false()

    def test_same_name_same_node(self, mgr):
        assert mgr.variable("p") == mgr.variable("p")

    def test_different_names_different_nodes(self, mgr):
        assert mgr.variable("p") != mgr.variable("q")

    def test_variables_helper(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        assert p != q != r

    def test_variable_count(self, mgr):
        mgr.variables("a", "b", "c")
        mgr.variable("a")
        assert mgr.variable_count == 3

    def test_has_variable(self, mgr):
        mgr.variable("x")
        assert mgr.has_variable("x")
        assert not mgr.has_variable("y")

    def test_index_of_unknown_raises(self, mgr):
        with pytest.raises(BDDError):
            mgr.index_of("missing")

    def test_ranked_variable_slots_between_existing_levels(self, mgr):
        p, r = mgr.variable("p", 10), mgr.variable("r", 30)
        both = p & r
        q = mgr.variable("q", 20)
        assert (p & r) == both  # no existing node moved
        assert [mgr.name_of(level) for level in sorted((p & q & r).support())] == ["p", "q", "r"]
        assert mgr.variable("s").support() == frozenset({31})  # unranked: appended
        assert p.sat_count() == 8

    def test_rank_conflicts_raise(self, mgr):
        mgr.variable("p", 7)
        assert mgr.variable("p", 8) == mgr.variable("p")  # a known name keeps its level
        assert mgr.index_of("p") == 7
        with pytest.raises(BDDError):
            mgr.variable("q", 7)
        with pytest.raises(BDDError):
            mgr.variable("q", 1 << 60)

    def test_hashable_non_string_names(self, mgr):
        key = ("link", "A", "B")
        var = mgr.variable(key)
        assert var.support_names() == frozenset({key})


class TestBooleanAlgebra:
    def test_and_identity(self, mgr):
        p = mgr.variable("p")
        assert (p & mgr.true) == p
        assert (p & mgr.false).is_false()

    def test_or_identity(self, mgr):
        p = mgr.variable("p")
        assert (p | mgr.false) == p
        assert (p | mgr.true).is_true()

    def test_idempotence(self, mgr):
        p = mgr.variable("p")
        assert (p & p) == p
        assert (p | p) == p

    def test_commutativity(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q) == (q & p)
        assert (p | q) == (q | p)

    def test_associativity(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        assert ((p & q) & r) == (p & (q & r))
        assert ((p | q) | r) == (p | (q | r))

    def test_distributivity(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        assert (p & (q | r)) == ((p & q) | (p & r))

    def test_de_morgan(self, mgr):
        p, q = mgr.variables("p", "q")
        assert ~(p & q) == (~p | ~q)
        assert ~(p | q) == (~p & ~q)

    def test_double_negation(self, mgr):
        p = mgr.variable("p")
        assert ~~p == p

    def test_excluded_middle(self, mgr):
        p = mgr.variable("p")
        assert (p | ~p).is_true()
        assert (p & ~p).is_false()

    def test_absorption_law(self, mgr):
        """The law that gives absorption provenance its name."""
        p, q = mgr.variables("p", "q")
        assert (p & (p | q)) == p
        assert (p | (p & q)) == p

    def test_absorption_across_derivations(self, mgr):
        p1, p2, p3 = mgr.variables("p1", "p2", "p3")
        redundant = (p1 & p2) | (p1 & p2 & p3)
        assert redundant == (p1 & p2)

    def test_xor(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p ^ p).is_false()
        assert (p ^ mgr.false) == p
        assert (p ^ q) == ((p & ~q) | (~p & q))

    def test_implies(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q).implies(p)
        assert not p.implies(p & q)

    def test_ite(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        assert mgr.ite(p, q, r) == ((p & q) | (~p & r))

    def test_conjoin_disjoin_collections(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        assert mgr.conjoin([p, q, r]) == (p & q & r)
        assert mgr.disjoin([p, q, r]) == (p | q | r)
        assert mgr.conjoin([]).is_true()
        assert mgr.disjoin([]).is_false()

    def test_mixed_managers_raise(self, mgr):
        other = BDDManager()
        with pytest.raises(BDDError):
            mgr.variable("p") & other.variable("p")


class TestRestrict:
    def test_restrict_to_true(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q).restrict({"p": True}) == q

    def test_restrict_to_false_kills_conjunction(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q).restrict({"p": False}).is_false()

    def test_restrict_unknown_variable_is_noop(self, mgr):
        p = mgr.variable("p")
        assert p.restrict({"zzz": False}) == p

    def test_without_deletes_base_tuples(self, mgr):
        p1, p2, p3 = mgr.variables("p1", "p2", "p3")
        pv = (p1 & p2) | p3
        assert pv.without(["p3"]) == (p1 & p2)
        assert pv.without(["p1", "p3"]).is_false()

    def test_paper_example_deletion(self, mgr):
        """Figure 2: reachable(C,B) has pv = p4 | (p1 & p3); deleting p4 keeps it alive."""
        p1, p2, p3, p4 = mgr.variables("p1", "p2", "p3", "p4")
        pv = p4 | (p1 & p3)
        after = pv.without(["p4"])
        assert not after.is_false()
        assert after == (p1 & p3)

    def test_exist_quantification(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q).exist(["q"]) == p
        assert (p & ~p).exist(["p"]).is_false()
        assert (p | q).exist(["p", "q"]).is_true()


class TestStructuralQueries:
    def test_node_count_terminal(self, mgr):
        assert mgr.true.node_count() == 0
        assert mgr.false.node_count() == 0

    def test_node_count_variable(self, mgr):
        assert mgr.variable("p").node_count() == 1

    def test_size_bytes_monotone_in_nodes(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        small = p
        large = (p & q) | (q & r) | (p & r)
        assert large.size_bytes() >= small.size_bytes()

    def test_support(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        expr = (p & q) | (q & r)
        assert expr.support_names() == frozenset({"p", "q", "r"})
        assert (p & ~p).support() == frozenset()

    def test_sat_count(self, mgr):
        p, q = mgr.variables("p", "q")
        assert (p & q).sat_count() == 1
        assert (p | q).sat_count() == 3
        assert mgr.true.sat_count() == 4
        assert mgr.false.sat_count() == 0

    def test_sat_count_with_free_variable(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        # p alone: q and r free -> 4 assignments
        assert p.sat_count() == 4

    def test_any_sat(self, mgr):
        p, q = mgr.variables("p", "q")
        assignment = (p & ~q).any_sat()
        assert assignment == {"p": True, "q": False}
        assert mgr.false.any_sat() is None

    def test_evaluate(self, mgr):
        p, q = mgr.variables("p", "q")
        expr = p & ~q
        assert expr.evaluate({"p": True, "q": False})
        assert not expr.evaluate({"p": True, "q": True})

    def test_evaluate_missing_variable_raises(self, mgr):
        p, q = mgr.variables("p", "q")
        with pytest.raises(BDDError):
            (p & q).evaluate({"p": True})

    def test_iter_products_monotone(self, mgr):
        p1, p2, p3 = mgr.variables("p1", "p2", "p3")
        pv = (p1 & p2) | p3
        products = set(pv.iter_products())
        # p3 alone is a product; p1&p2 is a product (possibly with p3 absent).
        assert frozenset({"p3"}) in products
        assert any(prod >= {"p1", "p2"} for prod in products)

    def test_from_products_roundtrip(self, mgr):
        pv = mgr.from_products([["p1", "p2"], ["p3"]])
        p1, p2, p3 = mgr.variable("p1"), mgr.variable("p2"), mgr.variable("p3")
        assert pv == ((p1 & p2) | p3)

    def test_clear_caches_preserves_semantics(self, mgr):
        p, q = mgr.variables("p", "q")
        expr = p | q
        mgr.clear_caches()
        assert (expr & p) == p


class TestCanonicity:
    def test_equivalent_expressions_share_node(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        left = ~(~p & ~q)
        right = p | q
        assert left.node == right.node

    def test_repr_smoke(self, mgr):
        p = mgr.variable("p")
        assert "BDD" in repr(p)
        assert "True" in repr(mgr.true)
        assert "False" in repr(mgr.false)


class TestCacheBoundsAndCounters:
    def test_apply_cache_counts_hits_and_misses(self, mgr):
        p, q = mgr.variables("p", "q")
        _ = p & q
        first = mgr.cache_stats()
        assert first["apply_calls"] > 0
        assert first["apply"]["misses"] > 0
        _ = p & q  # identical operation: memoised
        second = mgr.cache_stats()
        assert second["apply"]["hits"] > first["apply"]["hits"]

    def test_size_memo_hits_on_repeated_measurement(self, mgr):
        p, q, r = mgr.variables("p", "q", "r")
        pv = (p & q) | r
        assert pv.node_count() == pv.node_count()
        stats = mgr.cache_stats()
        assert stats["size"]["hits"] >= 1
        assert stats["size"]["misses"] >= 1
        # Memoised sizes agree with a cold recount.
        mgr.clear_caches()
        assert pv.node_count() == pv.size_bytes() // 16

    def test_caches_are_bounded_and_evict_wholesale(self):
        tiny = BDDManager(cache_limit=4)
        variables = tiny.variables(*[f"v{i}" for i in range(12)])
        acc = tiny.false
        for var in variables:
            acc = acc | var
        stats = tiny.cache_stats()
        assert stats["apply"]["entries"] < 4 + 1
        assert stats["apply"]["evictions"] >= 1
        # Semantics survive evictions (the node table is untouched): the
        # disjunction dies exactly when every variable is zeroed out.
        assert acc.is_satisfiable()
        names = [f"v{i}" for i in range(12)]
        assert acc.without(names[:-1]) == variables[-1]
        assert acc.without(names).is_false()

    def test_bounded_restrict_still_correct(self):
        tiny = BDDManager(cache_limit=2)
        p, q, r, s = tiny.variables("p", "q", "r", "s")
        pv = (p & q) | (r & s)
        assert pv.without(["p", "r"]).is_false()
        assert pv.without(["p"]) == (r & s)
        assert tiny.cache_stats()["restrict"]["misses"] > 0

    def test_cache_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BDDManager(cache_limit=0)

    def test_clear_caches_keeps_counters(self, mgr):
        p, q = mgr.variables("p", "q")
        _ = p & q
        before = mgr.cache_stats()["apply"]["misses"]
        mgr.clear_caches()
        after = mgr.cache_stats()
        assert after["apply"]["misses"] == before
        assert after["apply"]["entries"] == 0
