"""Unit tests for the centralized Datalog substrate."""

import pytest

from repro.datalog import (
    Atom,
    Condition,
    DatalogSyntaxError,
    Program,
    Rule,
    SemiNaiveEvaluator,
    StratificationError,
    parse_program,
    parse_rule,
    stratify,
)
from repro.datalog.ast import Constant, Variable, atom
from repro.datalog.stratify import dependency_graph, recursive_predicates
from repro.provenance.semiring import BooleanSemiring, WhySemiring

REACHABLE_PROGRAM = """
reachable(x, y) :- link(x, y).
reachable(x, y) :- link(x, z), reachable(z, y).
"""

TRIANGLE_EDB = {"link": {("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")}}


class TestAst:
    def test_atom_helper_strings_are_variables(self):
        a = atom("link", "x", "y")
        assert all(isinstance(t, Variable) for t in a.terms)

    def test_atom_helper_non_strings_are_constants(self):
        a = atom("link", "x", 5)
        assert isinstance(a.terms[1], Constant)

    def test_atom_match_extends_binding(self):
        a = atom("link", "x", "y")
        assert a.match(("a", "b"), {}) == {"x": "a", "y": "b"}
        assert a.match(("a", "b"), {"x": "z"}) is None
        assert a.match(("a",), {}) is None

    def test_atom_bind_requires_full_binding(self):
        a = atom("link", "x", "y")
        assert a.bind({"x": 1, "y": 2}) == (1, 2)
        with pytest.raises(KeyError):
            a.bind({"x": 1})

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ValueError):
            Rule(head=atom("out", "x", "w"), body=(atom("in", "x", "y"),))

    def test_negated_head_rejected(self):
        with pytest.raises(ValueError):
            Rule(head=atom("out", "x", negated=True), body=(atom("in", "x"),))

    def test_condition_guard_and_assignment(self):
        guard = Condition(lambda b: b["x"] > 1, description="x > 1", requires=frozenset({"x"}))
        assert guard.apply({"x": 2}) == {"x": 2}
        assert guard.apply({"x": 0}) is None
        assign = Condition(
            lambda b: {"y": b["x"] + 1}, description="y = x+1",
            requires=frozenset({"x"}), provides=frozenset({"y"}),
        )
        assert assign.apply({"x": 1}) == {"x": 1, "y": 2}


class TestParser:
    def test_parse_single_rule(self):
        rule = parse_rule("reachable(x, y) :- link(x, y).")
        assert rule.head.predicate == "reachable"
        assert rule.body[0].predicate == "link"

    def test_parse_program_counts_rules(self):
        program = parse_program(REACHABLE_PROGRAM)
        assert len(program) == 2
        assert program.idb_predicates == {"reachable"}
        assert program.edb_predicates == {"link"}

    def test_parse_constants(self):
        rule = parse_rule('seed(x) :- sensor(x, "north"), threshold(x, 5).')
        assert rule.body[0].terms[1] == Constant("north")
        assert rule.body[1].terms[1] == Constant(5)

    def test_parse_comparison_condition(self):
        rule = parse_rule("cheap(x) :- link(x, y, c), c < 10.")
        assert len(rule.conditions) == 1
        assert rule.conditions[0].apply({"c": 5}) is not None
        assert rule.conditions[0].apply({"c": 50}) is None

    def test_parse_negation(self):
        rule = parse_rule("unreachable(x, y) :- node(x), node(y), not reachable(x, y).")
        assert rule.negative_body()[0].predicate == "reachable"

    def test_parse_comments_and_whitespace(self):
        program = parse_program(
            """
            % transitive closure
            reachable(x, y) :- link(x, y).
            """
        )
        assert len(program) == 1

    def test_syntax_errors(self):
        with pytest.raises(DatalogSyntaxError):
            parse_rule("reachable(x, y :- link(x, y).")
        with pytest.raises(DatalogSyntaxError):
            parse_rule("reachable(x, y)")
        with pytest.raises(DatalogSyntaxError):
            parse_program("reachable(x, y) :- link(x, y). @@@")


class TestStratification:
    def test_reachable_is_recursive_single_stratum(self):
        program = parse_program(REACHABLE_PROGRAM)
        assert program.is_recursive()
        assert stratify(program) == [frozenset({"reachable"})]

    def test_negation_creates_higher_stratum(self):
        program = parse_program(
            """
            reachable(x, y) :- link(x, y).
            reachable(x, y) :- link(x, z), reachable(z, y).
            unreachable(x, y) :- node(x), node(y), not reachable(x, y).
            """
        )
        strata = stratify(program)
        assert strata.index(frozenset({"reachable"})) < strata.index(frozenset({"unreachable"}))

    def test_negation_through_recursion_rejected(self):
        program = parse_program(
            """
            p(x) :- base(x), not q(x).
            q(x) :- base(x), not p(x).
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_recursive_predicates_detection(self):
        program = parse_program(REACHABLE_PROGRAM)
        graph = dependency_graph(program)
        assert recursive_predicates(graph) == {"reachable"}


class TestSemiNaive:
    def test_transitive_closure(self):
        evaluator = SemiNaiveEvaluator(parse_program(REACHABLE_PROGRAM))
        database = evaluator.evaluate(TRIANGLE_EDB)
        nodes = {"a", "b", "c"}
        assert database["reachable"] == {(x, y) for x in nodes for y in nodes}

    def test_matches_naive_evaluation(self):
        program = parse_program(REACHABLE_PROGRAM)
        evaluator = SemiNaiveEvaluator(program)
        edb = {"link": {("a", "b"), ("b", "c"), ("c", "d")}}
        assert evaluator.evaluate(edb)["reachable"] == evaluator.evaluate_naive(edb)["reachable"]

    def test_conditions_filter_derivations(self):
        program = parse_program(
            """
            shortHop(x, y) :- link(x, y, c), c < 10.
            """
        )
        evaluator = SemiNaiveEvaluator(program)
        database = evaluator.evaluate({"link": {("a", "b", 5), ("b", "c", 50)}})
        assert database["shortHop"] == {("a", "b")}

    def test_negation_in_higher_stratum(self):
        program = parse_program(
            """
            reachable(x, y) :- link(x, y).
            reachable(x, y) :- link(x, z), reachable(z, y).
            node(x) :- link(x, y).
            node(y) :- link(x, y).
            unreachable(x, y) :- node(x), node(y), not reachable(x, y).
            """
        )
        evaluator = SemiNaiveEvaluator(program)
        database = evaluator.evaluate({"link": {("a", "b"), ("b", "c")}})
        assert ("c", "a") in database["unreachable"]
        assert ("a", "c") not in database["unreachable"]

    def test_provenance_evaluation_posbool(self):
        program = parse_program(REACHABLE_PROGRAM)
        evaluator = SemiNaiveEvaluator(program)
        annotations = evaluator.evaluate_with_provenance(TRIANGLE_EDB, BooleanSemiring)
        cb = annotations["reachable"][("c", "b")]
        # reachable(c,b) is derivable directly via link(c,b) or via link(c,a), link(a,b).
        assert cb.evaluate({("link", "c", "b"): True})
        assert cb.evaluate({("link", "c", "a"): True, ("link", "a", "b"): True})
        assert not cb.evaluate({("link", "c", "a"): True})

    def test_provenance_evaluation_why(self):
        program = parse_program(REACHABLE_PROGRAM)
        evaluator = SemiNaiveEvaluator(program)
        annotations = evaluator.evaluate_with_provenance(
            {"link": {("a", "b"), ("b", "c")}}, WhySemiring
        )
        ac = annotations["reachable"][("a", "c")]
        assert frozenset({("link", "a", "b"), ("link", "b", "c")}) in ac

    def test_facts_with_empty_body(self):
        program = Program([Rule(head=atom("alwaysOn", Constant("s1")), body=())])
        evaluator = SemiNaiveEvaluator(program)
        assert evaluator.evaluate({})["alwaysOn"] == {("s1",)}
