"""Benchmark driver: one child interpreter per workload, a clean process table after.

    python3 bench/run.py                         # all five workloads
    python3 bench/run.py --workload reach-dred-bulk --seed 3 --seconds 10 --trace 1
    python3 bench/run.py --aa 4                  # A/A check against the bounds

Every workload runs in ``child.py`` in its own session with
``PYTHONHASHSEED=0``.  On every exit path — success, exception, per-workload
timeout, SIGTERM/SIGINT to this driver — the session is killed, orphans are
reaped and ``/proc`` is scanned; a surviving process is a failed operation.
The last line of standard output is one JSON object (see ``README.md``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: A workload (set-up, repetitions, oracle, trace) must end well inside the
#: 180 s the benchmark contract allows one invocation.
DEFAULT_TIMEOUT_S = 150.0
_PR_SET_CHILD_SUBREAPER = 36


def _session_members(sid: int) -> List[int]:
    """Pids still in session ``sid``: live ones, and zombies that are ours to reap."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid pgrp session ..." — comm may hold spaces.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited between listdir and open
        state, parent, session = fields[0], int(fields[1]), int(fields[3])
        if session == sid and (state != "Z" or parent == os.getpid()):
            members.append(int(entry))
    return members


def _end_session(child: subprocess.Popen, grace_s: float = 5.0) -> List[int]:
    """Kill the child's whole session, reap what we can, return any survivors."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    try:
        deadline = time.monotonic() + grace_s
        while True:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            # Workers orphaned by the child's death are re-parented to this
            # driver (it is a sub-reaper): collect them so none stays a zombie.
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            members = _session_members(child.pid)
            if not members or time.monotonic() > deadline:
                return members
            time.sleep(0.02)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


def run_workload(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a child session; ``None`` when it produced no result."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--reps", str(args.reps), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.quick:
        command.append("--quick")
    if args.inject_failure:
        command += ["--inject-failure", args.inject_failure]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    output = ""
    try:
        output, _ = child.communicate(timeout=args.timeout)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {args.timeout:.0f} s", file=sys.stderr)
    finally:
        survivors = _end_session(child)
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        print(f"{name}: child exited {child.returncode} without a result", file=sys.stderr)
        return None
    result["attempted"] += 1  # the process-table check itself
    if survivors:
        result["failed"] += 1
        result["errors"].append(f"processes survived the run: {survivors}")
    for error in result["errors"]:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    return result


def _print_metrics(name: str, result: dict, units: Dict[str, str]) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {name}  ({result['reps']} reps)  failed_ops_share {share:.4f} ratio")
    for metric, value in result["metrics"].items():
        digits = 0 if units[metric] == "count" else 6
        line = f"{name}  {metric:36s} {value:>16.{digits}f} {units[metric]}"
        low, high = result["ranges"].get(metric, (value, value))
        if low != high:
            line += f"   [{low:.{digits}f} .. {high:.{digits}f}]"
        print(line)


def _contract_result(result: dict, wanted: List[dict]) -> dict:
    """The benchmark contract's result object: exactly these four keys."""
    metrics = {}
    for spec in wanted:
        value = result["metrics"][spec["name"]]
        if spec["unit"] == "count":
            value = int(value)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _aa_check(args: argparse.Namespace, spec: dict, workloads: List[str]) -> int:
    """Run the benchmark 2 x K times, alternating sets A and B; compare medians."""
    samples: Dict[tuple, List[List[float]]] = {}
    for run in range(2 * args.aa):
        for name in workloads:
            result = run_workload(name, args)
            if result is None or result["failed"]:
                return 1
            for metric in spec["end_to_end"]:
                sets = samples.setdefault((name, metric["name"]), [[], []])
                sets[run % 2].append(result["metrics"][metric["name"]])
        print(f"a/a run {run + 1}/{2 * args.aa} done", file=sys.stderr)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    exceeded = 0
    print(f"{'workload':22s} {'metric':18s} {'median A':>14s} {'median B':>14s} {'gap':>8s} {'bound':>6s}")
    for (name, metric), (set_a, set_b) in samples.items():
        median_a, median_b = statistics.median(set_a), statistics.median(set_b)
        gap = abs(median_b - median_a) / median_a
        verdict = "" if gap <= bounds[metric] else "  EXCEEDED"
        exceeded += bool(verdict)
        print(
            f"{name:22s} {metric:18s} {median_a:14.6f} {median_b:14.6f} "
            f"{gap:8.4f} {bounds[metric]:6.3f}{verdict}"
        )
    return 1 if exceeded else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many repetitions instead of filling --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add the traced pass; a single workload then reports per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny inputs (bench/test_bench.py)")
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="A/A check: 2 x K runs in alternating sets, gaps against the bounds")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="seconds one workload may take before its session is killed")
    parser.add_argument("--inject-failure", default=None, metavar="PHASE",
                        help="testing aid: make the phase with this label raise")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no engine to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(known)})")
    workloads = [args.workload] if args.workload else known

    # Orphaned grandchildren (pool workers whose parent was killed) re-parent
    # to this process instead of init, so it can reap them itself.
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.aa:
        return _aa_check(args, spec, workloads)

    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    for name in workloads:
        result = run_workload(name, args)
        if result is None or not result["metrics"]:
            return 1
        _print_metrics(name, result, units)
        results[name] = result
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload:
        final = _contract_result(results[args.workload], wanted)
    else:
        both = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
        final = {
            "correct": all(result["failed"] == 0 for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "workloads": {
                name: _contract_result(result, both)["metrics"]
                for name, result in results.items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
