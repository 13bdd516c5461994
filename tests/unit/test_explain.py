"""Unit tests for the explain engine: parsing, products, rendering, injection."""

import json

import pytest

from repro.engine.strategy import ExecutionStrategy
from repro.obs.export import (
    validate_chrome_trace,
    validate_flow_balance,
    validate_track_monotonicity,
)
from repro.obs.explain import inject_explain_flows, parse_view_tuple
from repro.obs.trace import Tracer, install_tracer
from repro.provenance.tracker import format_base_key
from repro.queries import build_executor, reachability_plan

#: A 4-node string chain a -> b -> c -> d plus the shortcut a -> c, so
#: reachable(a, c) has exactly two minimal derivation products.
CHAIN_LINKS = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]


def _chain_executor(strategy=None, node_count=4):
    plan = reachability_plan()
    executor = build_executor(
        plan, strategy or ExecutionStrategy.absorption_lazy(), node_count=node_count
    )
    executor.insert_edges([plan.edge_schema.tuple(s, d) for s, d in CHAIN_LINKS])
    return executor


class TestParseViewTuple:
    def test_parses_relation_and_values(self):
        plan = reachability_plan()
        t = parse_view_tuple(plan, "reachable(a, b)")
        assert t.relation == "reachable" and t.values == ("a", "b")

    def test_strips_quotes_and_coerces_ints(self):
        plan = reachability_plan()
        assert parse_view_tuple(plan, "reachable('a', \"b\")").values == ("a", "b")
        assert parse_view_tuple(plan, "reachable(1, 2)").values == (1, 2)

    def test_tuple_passes_through(self):
        plan = reachability_plan()
        t = plan.result_schema.tuple("a", "b")
        assert parse_view_tuple(plan, t) is t

    def test_wrong_relation_rejected(self):
        with pytest.raises(ValueError, match="not 'link'"):
            parse_view_tuple(reachability_plan(), "link(a, b)")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="expects 2 values"):
            parse_view_tuple(reachability_plan(), "reachable(a)")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_view_tuple(reachability_plan(), "not a tuple at all")


class TestExplainAbsorption:
    def test_products_are_the_minimal_derivations(self):
        executor = _chain_executor()
        explanation = executor.explain("reachable(a, c)")
        assert explanation.found
        products = [
            frozenset(tuple(ref["values"]) for ref in product)
            for product in explanation.products
        ]
        # Absorption keeps exactly the two minimal supports: the direct link
        # and the two-hop path; the three-hop detours are absorbed away.
        assert frozenset({("a", "c")}) in products
        assert frozenset({("a", "b"), ("b", "c")}) in products
        assert len(products) == 2

    def test_owners_resolve_via_partitioner(self):
        executor = _chain_executor()
        explanation = executor.explain("reachable(a, c)")
        for product in explanation.products:
            for ref in product:
                origin = executor.plan.edge_schema.tuple(*ref["values"])
                assert ref["owner"] == executor.partitioner.node_for(
                    origin.partition_value
                )
        assert explanation.owner == executor.partitioner.node_for(
            executor.plan.result_partition_value(
                executor.plan.result_schema.tuple("a", "c")
            )
        )

    def test_json_is_stable_and_serialisable(self):
        first = _chain_executor().explain("reachable(a, d)").as_json()
        second = _chain_executor().explain("reachable(a, d)").as_json()
        assert first == second
        assert json.loads(json.dumps(first, sort_keys=True)) == first

    def test_missing_tuple_reports_not_found(self):
        executor = _chain_executor()
        explanation = executor.explain("reachable(d, a)")
        assert not explanation.found
        assert explanation.products is None
        assert "NOT in the view" in explanation.render_text()

    def test_render_text_names_every_base_edge(self):
        executor = _chain_executor()
        text = executor.explain("reachable(a, c)").render_text()
        assert "derivable" in text
        assert "link(a, c)" in text and "link(a, b)" in text and "link(b, c)" in text


class TestExplainOtherSchemes:
    def test_dred_is_membership_only(self):
        executor = _chain_executor(ExecutionStrategy.dred())
        explanation = executor.explain("reachable(a, c)")
        assert explanation.found
        assert explanation.products is None
        assert "membership only" in explanation.render_text()

    def test_relative_products_match_absorption_minimal_products(self):
        relative = _chain_executor(ExecutionStrategy.relative_lazy()).explain(
            "reachable(a, c)"
        )
        absorption = _chain_executor().explain("reachable(a, c)")
        as_sets = lambda e: {
            frozenset(ref["label"] for ref in product) for product in e.products
        }
        # Relative provenance is not absorbed in-store; the engine applies the
        # antichain reduction, so both schemes explain identically.
        assert as_sets(relative) == as_sets(absorption)


class TestDescribe:
    def test_describe_is_deterministic_and_readable(self):
        executor = _chain_executor()
        annotation = executor.nodes[
            executor.explain("reachable(a, c)").owner
        ].view_annotation(executor.plan.result_schema.tuple("a", "c"))
        described = executor.store.describe(annotation)
        assert described == "(link(a, c)) | (link(a, b) & link(b, c))"
        assert executor.store.describe(annotation) == described

    def test_format_base_key_shapes(self):
        assert format_base_key((("link", "a", "b"), 0)) == "link(a, b)"
        assert format_base_key((("link", "a", "b"), 2)) == "link(a, b)#2"
        assert format_base_key("p1") == "p1"  # non-engine keys fall back to str


class TestTraceIntegration:
    def test_traced_run_explains_with_message_path(self):
        tracer = Tracer()
        install_tracer(tracer)
        try:
            executor = _chain_executor()
            explanation = executor.explain("reachable(a, d)")
        finally:
            install_tracer(None)
        assert explanation.found
        # Every reconstructed hop connects two involved nodes.
        involved = set(explanation.base_owners()) | {explanation.owner}
        for hop in explanation.message_path:
            assert hop["src"] in involved and hop["dst"] in involved
            assert hop["src"] != hop["dst"]

    def test_inject_explain_flows_keeps_trace_valid(self, tmp_path):
        from repro.obs.export import load_trace_events

        tracer = Tracer()
        install_tracer(tracer)
        try:
            executor = _chain_executor()
            explanation = executor.explain("reachable(a, c)")
        finally:
            install_tracer(None)
        path = tmp_path / "trace.json"
        tracer.write(path)
        injected = inject_explain_flows(explanation, path)
        # One instant plus an s/f pair per base ref across both products.
        assert injected == 1 + 2 * sum(len(p) for p in explanation.products)
        validate_chrome_trace(path)
        events = load_trace_events(path)
        assert any(
            event.get("cat") == "explain" and event.get("ph") == "i"
            for event in events
        )
        assert validate_flow_balance(events) == []
        assert validate_track_monotonicity(events) == []

    def test_inject_into_jsonl(self, tmp_path):
        from repro.obs.export import load_trace_events

        tracer = Tracer()
        install_tracer(tracer)
        try:
            executor = _chain_executor()
            explanation = executor.explain("reachable(a, b)")
        finally:
            install_tracer(None)
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        before = len(load_trace_events(path))
        injected = inject_explain_flows(explanation, path)
        assert injected > 0
        assert len(load_trace_events(path)) == before + injected
