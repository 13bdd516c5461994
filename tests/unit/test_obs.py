"""Unit tests for the observability layer: tracer, metrics registry, export."""

import json

import pytest

from repro.engine.strategy import ExecutionStrategy
from repro.obs.export import (
    load_trace_events,
    trace_summary,
    validate_chrome_trace,
    validate_flow_balance,
    validate_span_nesting,
    validate_track_monotonicity,
    write_metrics_json,
)
from repro.obs.metrics import (
    Histogram,
    MetricsLog,
    MetricsRegistry,
    current_metrics_log,
    install_metrics_log,
)
from repro.obs.trace import (
    CONTROL_PID,
    GC_TID,
    HARNESS_PID,
    KERNEL_TID,
    Tracer,
    current_tracer,
    install_tracer,
)
from repro.queries import build_executor, reachability_plan
from repro.workloads import TransitStubConfig, generate_topology

TINY_TOPOLOGY = generate_topology(
    TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, dense=True, seed=5)
)


@pytest.fixture
def tracer():
    t = Tracer()
    previous = install_tracer(t)
    yield t
    install_tracer(previous)


#: Both stores: unbounded (``--trace``) and a ring roomy enough for each test.
STORES = pytest.mark.parametrize("capacity", [None, 64], ids=["unbounded", "ring"])


class TestInstall:
    def test_tracing_is_off_by_default(self):
        assert current_tracer() is None

    def test_install_and_restore(self):
        t = Tracer()
        previous = install_tracer(t)
        try:
            assert current_tracer() is t
        finally:
            install_tracer(None)
        assert current_tracer() is None
        assert previous is None


@STORES
class TestRecordingSurface:
    """The surface the instrumented engine calls, identical on both stores."""

    def test_span_records_duration_and_args(self, capacity):
        t = Tracer(capacity)
        span = t.begin(3, "work", "operator", sim_ts=1.5, args={"n": 7})
        t.end(span, args={"out": 2}, sim_ts=2.0)
        t.instant(3, "mark", "chaos", sim_ts=2.5, args={"reason": "why"})
        work, mark = t.events()
        assert work["ph"] == "X" and work["dur"] >= 0
        assert work["args"] == {"n": 7, "sim": 1.5, "out": 2, "sim_end": 2.0}
        assert mark["ph"] == "i" and mark["args"] == {"reason": "why", "sim": 2.5}
        assert t.open_span_count() == 0

    def test_nested_spans_balance(self, capacity):
        t = Tracer(capacity)
        outer = t.begin(0, "outer", "net")
        inner = t.begin(0, "inner", "routing")
        assert t.open_span_count() == 2
        t.end(inner)
        t.end(outer)
        assert t.open_span_count() == 0
        assert validate_span_nesting(t.events()) == []

    def test_out_of_order_close(self, capacity):
        t = Tracer(capacity)
        first = t.begin(0, "first", "net")
        second = t.begin(1, "second", "net")
        t.end(first)
        assert t.open_span_count() == 1
        t.end(second)
        assert t.open_span_count() == 0

    def test_finish_closes_dangling_spans(self, capacity):
        t = Tracer(capacity)
        t.begin(0, "left-open", "net")
        t.begin(0, "also-open", "net")
        t.finish()
        assert t.open_span_count() == 0
        assert all(e["dur"] >= 0 for e in t.events())

    def test_open_spans_render_ending_now_without_closing(self, capacity):
        t = Tracer(capacity)
        t.begin(3, "interrupted", "phase")
        events = t.events()
        assert [e["name"] for e in events] == ["interrupted"]
        assert events[0]["dur"] >= 0
        assert t.open_span_count() == 1  # rendering did not disturb recording

    def test_flow_ids_increment_and_land(self, capacity):
        t = Tracer(capacity)
        first = t.flow_start(0, sim_ts=0.1)
        second = t.flow_start(1)
        assert second == first + 1
        t.flow_finish(first, 2)
        t.flow_finish(second, 2)
        t.flow_finish(None, 2)  # ignored
        events = t.events()
        assert [e["ph"] for e in events].count("s") == 2
        assert [e["ph"] for e in events].count("f") == 2
        assert validate_flow_balance(events) == []

    def test_kernel_slice_ends_now(self, capacity):
        t = Tracer(capacity)
        t.kernel_slice(4, 0.001, sim_ts=0.5)
        t.kernel_slice(4, 0.0)  # zero seconds -> skipped
        t.kernel_slice(4, -1.0)  # negative -> skipped
        slices = [e for e in t.events() if e["tid"] == KERNEL_TID]
        assert len(slices) == 1
        event = slices[0]
        assert event["cat"] == "kernel"
        assert event["dur"] == pytest.approx(1000.0)
        assert event["ts"] + event["dur"] <= t._now_us() + 1.0

    def test_node_context_attribution(self, capacity):
        t = Tracer(capacity)
        assert t.context_pid(99) == 99
        t.set_node_context(3)
        assert t.context_pid(99) == 3
        t.clear_node_context()
        assert t.context_pid(99) == 99

    def test_chrome_events_include_track_metadata(self, capacity):
        t = Tracer(capacity)
        t.end(t.begin(2, "x", "net"))
        t.instant(CONTROL_PID, "rebalance", "control")
        events = t.chrome_events()
        metadata = [e for e in events if e["ph"] == "M"]
        names = {
            e["args"]["name"] for e in metadata if e["name"] == "process_name"
        }
        assert "node 2" in names and "cluster-control" in names


class TestValidation:
    def test_partial_overlap_is_reported(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "name": "a", "cat": "x", "ts": 0.0, "dur": 10.0},
            {"ph": "X", "pid": 0, "tid": 1, "name": "b", "cat": "x", "ts": 5.0, "dur": 10.0},
        ]
        errors = validate_span_nesting(events)
        assert len(errors) == 1 and "overlaps" in errors[0]

    def test_proper_nesting_and_siblings_pass(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "name": "a", "cat": "x", "ts": 0.0, "dur": 10.0},
            {"ph": "X", "pid": 0, "tid": 1, "name": "b", "cat": "x", "ts": 1.0, "dur": 4.0},
            {"ph": "X", "pid": 0, "tid": 1, "name": "c", "cat": "x", "ts": 6.0, "dur": 4.0},
            {"ph": "X", "pid": 0, "tid": 1, "name": "d", "cat": "x", "ts": 20.0, "dur": 1.0},
        ]
        assert validate_span_nesting(events) == []

    def test_negative_duration_is_reported(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "name": "bad", "cat": "x", "ts": 0.0, "dur": -1.0}
        ]
        assert any("dur" in e for e in validate_span_nesting(events))


@STORES
class TestAbsorb:
    """Merging worker traces must keep pids, flow ids and clocks collision-free."""

    @staticmethod
    def _worker_tracer(capacity, t0_offset):
        """A 'worker' tracer whose pids and flow ids overlap every other worker's."""
        worker = Tracer(capacity)
        worker._t0 -= t0_offset  # pretend it started earlier
        span = worker.begin(0, "deliver:edge", "net", sim_ts=0.1)
        worker.end(span)
        flow = worker.flow_start(0, sim_ts=0.2)
        worker.flow_finish(flow, 1)
        worker.kernel_slice(CONTROL_PID + 1, 0.0005)
        return worker

    def test_overlapping_workers_remap_cleanly(self, capacity):
        coordinator = Tracer(capacity)
        for wid in range(2):
            worker = self._worker_tracer(capacity, t0_offset=0.5 * (wid + 1))
            coordinator.absorb(
                worker.take_records(),
                worker._t0,
                pid_offset=(wid + 1) * 8,
                label=f"worker {wid}, pid {1000 + wid}",
            )
        events = coordinator.chrome_events()
        # Both workers started identical flow ids; the merge must keep them apart.
        assert validate_flow_balance(events) == []
        assert validate_track_monotonicity(events) == []
        starts = [e["id"] for e in events if e.get("ph") == "s"]
        assert len(starts) == len(set(starts)) == 2
        # Synthetic pids were remapped per worker; node pids were not.
        kernel_pids = {e["pid"] for e in events if e.get("cat") == "kernel"}
        assert len(kernel_pids) == 2
        assert all(pid >= CONTROL_PID for pid in kernel_pids)
        assert {e["pid"] for e in events if e.get("ph") == "s"} == {0}

    def test_unremapped_merge_is_detected(self, capacity):
        """Without the flow-id remap two workers' flows collide — the validator sees it."""
        coordinator = Tracer(capacity)
        for wid in range(2):
            worker = self._worker_tracer(capacity, t0_offset=0.1)
            coordinator.absorb(worker.take_records(), worker._t0, pid_offset=0)
        errors = validate_flow_balance(coordinator.events())
        assert errors and any("started twice" in error for error in errors)

    def test_take_records_drains_unbounded_and_snapshots_ring(self, capacity):
        worker = self._worker_tracer(capacity, t0_offset=0.0)
        first = worker.take_records()
        assert len(first) == 4
        assert len(worker.take_records()) == (0 if capacity is None else 4)


class TestFlowAndMonotonicValidators:
    def test_flow_finish_without_start(self):
        events = [{"ph": "f", "id": 7, "pid": 0, "tid": 1, "ts": 1.0}]
        errors = validate_flow_balance(events)
        assert errors and "finished without a start" in errors[0]

    def test_dangling_starts_counted(self):
        events = [
            {"ph": "s", "id": 1, "pid": 0, "tid": 1, "ts": 1.0},
            {"ph": "s", "id": 2, "pid": 0, "tid": 1, "ts": 2.0},
        ]
        errors = validate_flow_balance(events)
        assert errors and "2" in errors[0]

    def test_finish_before_start_timestamp(self):
        events = [
            {"ph": "s", "id": 1, "pid": 0, "tid": 1, "ts": 10.0},
            {"ph": "f", "id": 1, "pid": 1, "tid": 1, "ts": 2.0},
        ]
        errors = validate_flow_balance(events)
        assert errors and "before" in errors[0]

    def test_balanced_flows_pass(self):
        events = [
            {"ph": "s", "id": 1, "pid": 0, "tid": 1, "ts": 1.0},
            {"ph": "f", "id": 1, "pid": 1, "tid": 1, "ts": 2.0},
        ]
        assert validate_flow_balance(events) == []

    def test_backwards_track_is_detected(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "ts": 100.0, "dur": 1.0, "name": "a"},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 10.0, "dur": 1.0, "name": "b"},
        ]
        errors = validate_track_monotonicity(events)
        assert len(errors) == 1 and "runs backwards" in errors[0]

    def test_one_error_per_track(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "ts": 100.0, "dur": 1.0, "name": "a"},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 10.0, "dur": 1.0, "name": "b"},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 5.0, "dur": 1.0, "name": "c"},
        ]
        assert len(validate_track_monotonicity(events)) == 1

    def test_metadata_and_other_tracks_ignored(self):
        events = [
            {"ph": "M", "pid": 0, "tid": 1, "name": "process_name"},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 5.0, "dur": 1.0, "name": "a"},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 1.0, "dur": 1.0, "name": "b"},
        ]
        assert validate_track_monotonicity(events) == []


class TestExport:
    def test_json_round_trip(self, tmp_path):
        t = Tracer()
        t.end(t.begin(1, "x", "net"))
        path = tmp_path / "trace.json"
        assert t.write(path) == str(path)
        events = load_trace_events(path)
        spans = [e for e in events if e.get("ph") == "X"]
        assert len(spans) == 1 and spans[0]["name"] == "x"
        data = json.loads(path.read_text())
        assert "traceEvents" in data and data["displayTimeUnit"] == "ms"

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        t.end(t.begin(1, "x", "net"))
        t.instant(1, "mark", "inject")
        path = tmp_path / "trace.jsonl"
        t.write(path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert all(json.loads(line) for line in lines)
        events = load_trace_events(path)
        assert trace_summary(events)["spans"] == 1

    def test_export_renders_open_spans_ending_now(self, tmp_path):
        t = Tracer()
        t.begin(0, "open", "net")
        path = tmp_path / "trace.json"
        t.write(path)
        spans = [e for e in load_trace_events(path) if e.get("ph") == "X"]
        assert len(spans) == 1 and spans[0]["dur"] >= 0
        assert t.open_span_count() == 1

    def test_validate_chrome_trace_missing_category(self, tmp_path):
        t = Tracer()
        t.end(t.begin(1, "x", "net"))
        path = tmp_path / "trace.json"
        t.write(path)
        with pytest.raises(ValueError, match="missing span categories"):
            validate_chrome_trace(path, require_categories=["kernel"])

    def test_validate_chrome_trace_requires_node_tracks(self, tmp_path):
        t = Tracer()
        t.end(t.begin(HARNESS_PID, "only-synthetic", "harness"))
        path = tmp_path / "trace.json"
        t.write(path)
        with pytest.raises(ValueError, match="per-node tracks"):
            validate_chrome_trace(path, require_node_tracks=1)

    def test_write_metrics_json(self, tmp_path):
        log = MetricsLog()
        log.record({"phase": "insert"}, {"a": 1})
        path = tmp_path / "metrics.json"
        write_metrics_json(log, path)
        data = json.loads(path.read_text())
        assert data["snapshots"][0]["phase"] == "insert"
        assert data["snapshots"][0]["metrics"] == {"a": 1}


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(4)
        value = {"x": 7}
        registry.gauge("depth", lambda: value["x"])
        snapshot = registry.snapshot()
        assert snapshot["events"] == 5
        assert snapshot["depth"] == 7
        value["x"] = 9
        assert registry.snapshot()["depth"] == 9

    def test_histogram_buckets_by_power_of_two(self):
        h = Histogram("sizes")
        for v in (0, 1, 2, 3, 4, 1000):
            h.observe(v)
        assert h.count == 6 and h.total == 1010 and h.max == 1000
        flat = h.as_flat()
        assert flat["sizes_count"] == 6
        assert flat["sizes_p2_0"] == 1  # the single 0
        assert flat["sizes_p2_1"] == 1  # 1
        assert flat["sizes_p2_2"] == 2  # 2, 3
        assert flat["sizes_p2_10"] == 1  # 1000

    def test_histogram_merge(self):
        a, b = Histogram("x"), Histogram("x")
        a.observe(4)
        b.observe(4)
        b.observe(70)
        a.merge(b)
        assert a.count == 3 and a.max == 70

    def test_probe_prefixing_and_delta(self):
        registry = MetricsRegistry()
        state = {"n": 10}
        registry.register_probe("net", lambda: {"messages": state["n"]})
        before = registry.snapshot()
        state["n"] = 25
        after = registry.snapshot()
        assert before["net.messages"] == 10
        delta = MetricsRegistry.delta(before, after)
        assert delta["net.messages"] == 15

    def test_metrics_log_install(self):
        assert current_metrics_log() is None
        log = MetricsLog()
        install_metrics_log(log)
        try:
            assert current_metrics_log() is log
        finally:
            install_metrics_log(None)
        assert current_metrics_log() is None


class TestTracedExecutor:
    """End-to-end: a traced run emits the full batch lifecycle."""

    @pytest.fixture
    def traced_run(self, tracer):
        executor = build_executor(
            reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
        )
        executor.insert_edges(TINY_TOPOLOGY.link_tuples())
        tracer.finish()
        return executor, tracer

    def test_all_phase_buckets_present(self, traced_run):
        _, t = traced_run
        categories = {e.get("cat") for e in t.events() if e.get("ph") == "X"}
        assert {"net", "routing", "operator", "kernel", "gc", "phase"} <= categories

    def test_per_node_tracks(self, traced_run):
        executor, t = traced_run
        summary = trace_summary(t.events())
        assert set(summary["node_pids"]) == set(range(len(executor.nodes)))

    def test_nesting_is_valid(self, traced_run):
        _, t = traced_run
        assert validate_span_nesting(t.events()) == []

    def test_flows_balance(self, traced_run):
        _, t = traced_run
        summary = trace_summary(t.events())
        assert summary["flow_starts"] > 0
        assert summary["flow_finishes"] == summary["flow_starts"]

    def test_failed_phase_closes_its_span(self, tracer):
        """A phase the harness survives (a budget cut) must not leave its span
        open past the experiment span enclosing it."""
        from repro.net.simulator import SimulationBudgetExceeded

        experiment = tracer.begin(HARNESS_PID, "experiment:cut", "harness")
        executor = build_executor(
            reachability_plan(),
            ExecutionStrategy.absorption_lazy(),
            node_count=4,
            max_events=50,
        )
        with pytest.raises(SimulationBudgetExceeded):
            executor.insert_edges(TINY_TOPOLOGY.link_tuples())
        tracer.end(experiment)
        assert tracer.open_span_count() == 0
        assert validate_span_nesting(tracer.events()) == []

    def test_untraced_executor_has_no_tracer_on_hot_path(self):
        install_tracer(None)
        executor = build_executor(
            reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
        )
        assert executor.network._tracer is None
        assert all(node._tracer is None for node in executor.nodes)
        assert all(node.router.tracer is None for node in executor.nodes)

    def test_metrics_registry_snapshot_covers_subsystems(self):
        executor = build_executor(
            reachability_plan(), ExecutionStrategy.absorption_lazy(), node_count=4
        )
        executor.insert_edges(TINY_TOPOLOGY.link_tuples())
        snapshot = executor.metrics_registry.snapshot()
        assert snapshot["net.messages"] > 0
        assert snapshot["queue_depth.total"] == 0
        assert snapshot["routing.bulk_lookups"] > 0
        assert snapshot["kernel.kernel_time_s"] >= 0
        assert snapshot["fixpoint.round_delta_size_count"] > 0


class TestCliObservability:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.harness.cli import main

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        exit_code = main(
            [
                "--quick",
                "--trace",
                str(trace_path),
                "--metrics-json",
                str(metrics_path),
                "ablation-encoding",
            ]
        )
        assert exit_code == 0
        assert current_tracer() is None
        assert current_metrics_log() is None
        summary = validate_chrome_trace(
            trace_path,
            require_categories=["net", "routing", "operator", "kernel", "gc"],
        )
        assert summary["node_pids"]
        data = json.loads(metrics_path.read_text())
        assert data["snapshots"]
        output = capsys.readouterr().out
        assert "wrote trace" in output and "wrote metrics" in output

    def test_harness_error_dumps_the_flight_recorder(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        def failing_run(name, config):
            current_tracer().instant(0, "before-failure", "harness", args={"why": "test"})
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.harness.cli.run", failing_run)
        dump = tmp_path / "fd.json"
        with pytest.raises(RuntimeError, match="boom"):
            main(["--quick", "--flight-dump", str(dump), "fig11"])
        assert current_tracer() is None
        events = load_trace_events(dump)
        marks = [e for e in events if e.get("name") == "flight-dump"]
        assert len(marks) == 1 and "RuntimeError: boom" in marks[0]["args"]["reason"]
        by_name = {e.get("name"): e for e in events}
        assert by_name["before-failure"]["args"] == {"why": "test"}
        assert by_name["experiment:figure11"]["ph"] == "X"

    def test_fig_alias(self, monkeypatch, capsys):
        from repro.harness.cli import main

        called = []

        def fake_run(name, config):
            called.append(name)
            return [{"figure": "11"}]

        monkeypatch.setattr("repro.harness.cli.run", fake_run)
        assert main(["--quick", "fig11"]) == 0
        assert called == ["figure11"]

    def test_fig_alias_does_not_shadow_unknown(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["--quick", "fig99"])
