"""Unit tests for the bounded (flight-recorder) store: rings, dumps, failure hooks.

The recording surface both stores share is tested once, over both, in
``test_obs.py``; this file covers what only a ring does.
"""

from collections import Counter

import pytest

from repro.engine.strategy import ExecutionStrategy
from repro.net.simulator import SimulationBudgetExceeded
from repro.obs.export import (
    load_trace_events,
    validate_chrome_trace,
    validate_flow_balance,
    validate_span_nesting,
    validate_track_monotonicity,
)
from repro.obs.trace import (
    DEFAULT_RING_CAPACITY,
    KERNEL_PID,
    Tracer,
    install_tracer,
    maybe_dump_flight,
)
from repro.queries import build_executor, reachability_plan
from repro.workloads import TransitStubConfig, generate_topology


@pytest.fixture
def recorder():
    rec = Tracer(DEFAULT_RING_CAPACITY)
    install_tracer(rec)
    yield rec
    install_tracer(None)


class TestRing:
    def test_ring_bounds_retention(self):
        rec = Tracer(capacity=8)
        for i in range(50):
            rec.instant(0, f"i{i}", "test")
        assert rec.retained_records() == 8
        assert rec.evicted_records() == 42
        names = [e["name"] for e in rec.events()]
        assert names == [f"i{i}" for i in range(42, 50)]  # oldest-first tail

    def test_rings_are_per_pid(self):
        rec = Tracer(capacity=4)
        for pid in (0, 1, 2):
            for i in range(10):
                rec.instant(pid, f"p{pid}-{i}", "test")
        assert rec.retained_records() == 12
        assert rec.evicted_records() == 18
        assert max(Counter(e["pid"] for e in rec.events()).values()) == 4

    def test_unbounded_store_never_evicts(self):
        rec = Tracer()
        for i in range(50):
            rec.instant(0, f"i{i}", "test")
        assert rec.retained_records() == 50 and rec.evicted_records() == 0

    def test_ring_renders_in_timestamp_order_across_pids(self):
        rec = Tracer(capacity=4)
        for i in range(6):
            rec.instant(i % 2, f"i{i}", "test")
        stamps = [e["ts"] for e in rec.events()]
        assert stamps == sorted(stamps)
        assert validate_track_monotonicity(rec.events()) == []


class TestDump:
    def test_dump_is_a_valid_chrome_trace(self, tmp_path, recorder):
        executor = build_executor(
            reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
        )
        topology = generate_topology(
            TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, dense=True, seed=5)
        )
        executor.insert_edges(topology.link_tuples())
        path = recorder.dump(tmp_path / "dump.json", reason="test")
        summary = validate_chrome_trace(path)
        assert summary["spans"] > 0 and summary["node_pids"]
        events = load_trace_events(path)
        assert validate_span_nesting(events) == []
        assert validate_track_monotonicity(events) == []
        assert validate_flow_balance(events) == []
        dump_marks = [e for e in events if e.get("name") == "flight-dump"]
        assert len(dump_marks) == 1
        assert dump_marks[0]["args"]["reason"] == "test"
        assert dump_marks[0]["args"]["ring_capacity"] == DEFAULT_RING_CAPACITY

    def test_dump_jsonl(self, tmp_path):
        rec = Tracer(DEFAULT_RING_CAPACITY)
        rec.end(rec.begin(0, "x", "net"))
        path = rec.dump(tmp_path / "dump.jsonl", reason="jsonl")
        events = load_trace_events(path)
        assert any(e.get("ph") == "X" for e in events)

    def test_dump_keeps_span_and_instant_args(self, tmp_path):
        rec = Tracer(capacity=8)
        span = rec.begin(KERNEL_PID, "gc-pass", "gc", args={"forced": False})
        rec.end(span, args={"reclaimed": 12, "compacted": True})
        rec.instant(
            3, "degraded", "chaos", sim_ts=0.5,
            args={"stale_as_of_phase": "insert", "reason": "retry budget exhausted"},
        )
        events = load_trace_events(rec.dump(tmp_path / "dump.json", reason="args"))
        by_name = {e["name"]: e for e in events if e.get("ph") in ("X", "i")}
        assert by_name["gc-pass"]["args"] == {
            "forced": False, "reclaimed": 12, "compacted": True
        }
        assert by_name["degraded"]["args"] == {
            "stale_as_of_phase": "insert", "reason": "retry budget exhausted", "sim": 0.5
        }

    def test_dump_keeps_only_flows_with_both_halves(self, tmp_path):
        """Each pid's ring evicts on its own schedule, so one half of a flow can
        outlive the other; a dump drops every half whose partner is gone."""
        rec = Tracer(capacity=4)
        # The receiver's ring evicts finishes its sender still holds starts for.
        sent = [rec.flow_start(0) for _ in range(4)]
        for flow_id in sent:
            rec.flow_finish(flow_id, 1)
            rec.instant(1, "handled", "net")
        # The sender's ring evicts a start whose finish the receiver holds.
        orphan = rec.flow_start(2)
        for _ in range(4):
            rec.instant(2, "busy", "net")
        rec.flow_finish(orphan, 3)
        events = load_trace_events(rec.dump(tmp_path / "dump.json", reason="flows"))
        assert validate_flow_balance(events) == []
        assert {e["id"] for e in events if e.get("ph") == "s"} == set(sent[2:])
        assert {e["id"] for e in events if e.get("ph") == "f"} == set(sent[2:])

    def test_maybe_dump_requires_a_tracer_with_a_path(self, tmp_path):
        install_tracer(None)
        assert maybe_dump_flight("no tracer") is None
        rec = Tracer(DEFAULT_RING_CAPACITY)  # no dump_path
        install_tracer(rec)
        try:
            assert maybe_dump_flight("nowhere to dump") is None
            explicit = tmp_path / "explicit.json"
            assert maybe_dump_flight("explicit path", path=explicit) == str(explicit)
        finally:
            install_tracer(None)


class TestFailureHooks:
    def test_budget_overrun_dumps_via_executor(self, tmp_path):
        dump = tmp_path / "overrun.json"
        rec = Tracer(DEFAULT_RING_CAPACITY, dump_path=dump)
        install_tracer(rec)
        try:
            executor = build_executor(
                reachability_plan(),
                ExecutionStrategy.absorption_lazy(),
                node_count=4,
                max_events=50,
            )
            topology = generate_topology(
                TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, dense=True, seed=5)
            )
            with pytest.raises(SimulationBudgetExceeded):
                executor.insert_edges(topology.link_tuples())
        finally:
            install_tracer(None)
        assert dump.exists()
        events = load_trace_events(dump)
        assert validate_flow_balance(events) == []
        marks = [e for e in events if e.get("name") == "flight-dump"]
        assert len(marks) == 1 and "SimulationBudgetExceeded" in marks[0]["args"]["reason"]

    def test_successful_run_never_dumps(self, tmp_path):
        dump = tmp_path / "never.json"
        rec = Tracer(DEFAULT_RING_CAPACITY, dump_path=dump)
        install_tracer(rec)
        try:
            executor = build_executor(
                reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
            )
            plan = executor.plan
            executor.insert_edges(
                [plan.edge_schema.tuple("a", "b"), plan.edge_schema.tuple("b", "c")]
            )
        finally:
            install_tracer(None)
        assert not dump.exists()
        assert rec.retained_records() > 0  # it did record, it just had no reason to dump
