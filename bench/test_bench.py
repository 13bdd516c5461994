"""Self-test of the benchmark at ``--quick`` size.

    python -m pytest bench -q

Not part of tier-1 (``pyproject.toml`` collects ``tests`` and ``benchmarks``).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from child import EXACT  # noqa: E402  (inputs-only numbers: equal across runs)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
SIM_WORKLOADS = [name for name, workload in WORKLOADS.items() if workload.backend == "sim"]


def _benchmark_pids():
    """Pids of anything the benchmark starts: children and pool workers."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "bench/child.py" in cmdline or "multiprocessing" in cmdline:
            found.add(int(entry))
    return found


@pytest.fixture(autouse=True)
def clean_process_table():
    before = _benchmark_pids()
    yield
    assert _benchmark_pids() - before == set()


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick", "--reps", "1", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def _child(workload, hash_seed):
    """One quick repetition straight from ``child.py`` under a chosen hash seed."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--reps", "1", "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name] for name in EXACT}


@pytest.fixture(scope="module")
def traced_run():
    done = _run("--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_named_metric_is_reported_with_its_unit(traced_run):
    assert traced_run["correct"] and traced_run["failed"] == 0
    assert list(traced_run["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, metrics in traced_run["workloads"].items():
        for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert metrics[spec["name"]]["unit"] == spec["unit"], (name, spec["name"])
        for spec in SPEC["end_to_end"]:
            assert metrics[spec["name"]]["value"] > 0, (name, spec["name"])


def test_single_workload_result_obeys_the_contract():
    for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        done = _run("--workload", "reach-dred-bulk", "--seed", "3", "--seconds", "1",
                    "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["attempted"] >= 1
        assert list(result["metrics"]) == [spec["name"] for spec in wanted]
        assert all(sorted(entry) == ["unit", "value"] for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_deterministic_metrics_ignore_the_hash_seed(workload):
    first = _child(workload, 1)
    assert first == _child(workload, 1)
    assert first == _child(workload, 2)


def test_another_seed_gives_other_inputs_and_still_passes(traced_run):
    for workload in WORKLOADS.values():
        phases_7 = [phase.changes for phase in workload.build(7, True).timed]
        phases_8 = [phase.changes for phase in workload.build(8, True).timed]
        assert phases_7 != phases_8, workload.name
        assert phases_7 == [phase.changes for phase in workload.build(7, True).timed]
    done = _run("--seed", "8")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_spans_nest_and_cover_the_phases(traced_run):
    for name in WORKLOADS:
        with open(os.path.join(BENCH_DIR, "out", f"trace-{name}.json")) as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans and any(n.startswith("phase:") for n in trace["names"])
        for _, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                _, parent_start, parent_end, _ = spans[parent]
                assert parent_start <= start and end <= parent_end
    for name in SIM_WORKLOADS:
        share = traced_run["workloads"][name]["trace.unattributed_share"]["value"]
        assert share < 0.10, (name, share)


def test_a_failing_phase_fails_the_run_and_leaves_no_process():
    done = _run("--workload", "reach-lazy-proc2", "--inject-failure", "reinsert1")
    assert done.returncode != 0
    assert "injected phase failure" in done.stderr


def test_sigterm_mid_run_leaves_no_process():
    driver = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "reach-lazy-proc2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    try:
        deadline = time.monotonic() + 60
        while len(_benchmark_pids()) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)  # child + at least two pool workers are up
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        driver.kill()
        driver.communicate()
