"""Declarative, seeded chaos plans.

A :class:`ChaosPlan` is a frozen description of *everything adversarial* that
happens during a run: per-link message drop/duplication/extra-delay, node
crash/recover storms, real worker SIGKILLs on the process backend, and
injected recovery/respawn failures that exercise the supervisor.  Every
decision the plan makes is a **pure function** of ``(seed, stream tag,
identifiers)`` via a splitmix64-style mixer — no hidden RNG state, no
process-salted string hashing — so the same plan replays bit-identically
across runs, strategies, and backends, and two subsystems consuming the plan
concurrently can never perturb each other's random streams.

Fault *semantics* live elsewhere: the link specs drive the
:class:`~repro.chaos.interposer.ChaosInterposer` in the simulator send path,
storms become :class:`~repro.workloads.churn.ChurnScenario` schedules, kill
schedules become coordinator-side SIGKILLs, and the recovery/respawn failure
streams are consumed by the supervised recovery paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple as PyTuple

from repro.data.relation import stable_hash
from repro.workloads.churn import ChurnScenario, generate_churn

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Stream tags: each chaos decision family draws from its own stream so that
#: e.g. adding a duplication spec can never shift which messages get dropped.
TAG_DROP = "chaos/drop"
TAG_DELAY = "chaos/delay"
TAG_JITTER = "chaos/jitter"
TAG_DUP = "chaos/dup"
TAG_DUP_DELAY = "chaos/dup-delay"
TAG_STORM = "chaos/storm"
TAG_KILL_TIME = "chaos/kill-time"
TAG_KILL_TARGET = "chaos/kill-target"
TAG_RECOVERY_GATE = "chaos/recovery-gate"
TAG_RECOVERY_COUNT = "chaos/recovery-count"
TAG_RESPAWN_GATE = "chaos/respawn-gate"
TAG_RESPAWN_COUNT = "chaos/respawn-count"


def mix64(*parts) -> int:
    """Mix arbitrary identifiers into a 64-bit value, deterministically.

    Strings go through :func:`~repro.data.relation.stable_hash` (FNV-1a, not
    the per-process-salted builtin); integers are folded directly.  The
    finalizer is the splitmix64 output permutation, the same family the
    placement ring uses.
    """
    acc = 0x8A5CD789635D2DFF
    for part in parts:
        if isinstance(part, str):
            part = stable_hash(part)
        acc = (acc + _GOLDEN + (part & _MASK64)) & _MASK64
        acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
    return acc


def unit(*parts) -> float:
    """A deterministic float in ``[0, 1)`` derived from ``mix64``."""
    return mix64(*parts) / 2.0**64


@dataclass(frozen=True)
class LinkChaosSpec:
    """Per-link message faults, masked by the reliable in-order transport.

    The simulator models the paper's reliable FIFO channels, so link faults
    surface as *time*, never as lost state: a dropped wire copy costs one
    retransmit timeout (geometric, bounded by ``max_retransmits``), a
    duplicated copy is a ghost delivery the receiver's sequence-number dedup
    suppresses, and delay jitter reorders traffic *across* channels while the
    per-channel FIFO clamp keeps each channel in order.  That is exactly why
    a chaos run must still converge bit-identical to the fault-free run.
    """

    drop_prob: float = 0.0
    max_retransmits: int = 3
    retransmit_timeout: float = 0.004
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    max_extra_delay: float = 0.003

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        if self.retransmit_timeout < 0.0 or self.max_extra_delay < 0.0:
            raise ValueError("chaos delays must be non-negative")

    @property
    def active(self) -> bool:
        return self.drop_prob > 0.0 or self.dup_prob > 0.0 or self.delay_prob > 0.0


@dataclass(frozen=True)
class CrashStormSpec:
    """Node crash/recover cycles over a unit-interval window of the run."""

    cycles: int = 2
    downtime: float = 0.25
    window: PyTuple[float, float] = (0.15, 0.85)


@dataclass(frozen=True)
class WorkerKillSpec:
    """Real SIGKILLs of worker processes at virtual-time points (process backend)."""

    kills: int = 1
    window: PyTuple[float, float] = (0.25, 0.75)


@dataclass(frozen=True)
class RecoveryFaultSpec:
    """Injected failures of recovery (or respawn) attempts.

    A gated node/worker fails its first ``1 + mix % max_failures`` attempts;
    whether it is gated at all is a per-identity coin weighted by
    ``failure_prob``.  Plans meant to *pass* the parity gate keep the forced
    failure count under the supervisor's retry budget; the ``degraded``
    profile deliberately exceeds it to exercise graceful degradation.
    """

    failure_prob: float = 0.0
    max_failures: int = 0


@dataclass(frozen=True)
class ScalingStormSpec:
    """Elastic placement churn: grow, optionally shrink, optionally rebalance."""

    add_nodes: int = 0
    remove_added: bool = False
    rebalance: bool = False
    window: PyTuple[float, float] = (0.1, 0.8)


@dataclass(frozen=True)
class ChaosPlan:
    """The complete seeded fault schedule for one run."""

    seed: int = 0
    name: str = "custom"
    link: Optional[LinkChaosSpec] = None
    storm: Optional[CrashStormSpec] = None
    kills: Optional[WorkerKillSpec] = None
    recovery: Optional[RecoveryFaultSpec] = None
    respawn: Optional[RecoveryFaultSpec] = None
    scaling: Optional[ScalingStormSpec] = None

    # -- decision streams ------------------------------------------------------
    def unit(self, tag: str, *parts) -> float:
        """A plan-seeded deterministic float in ``[0, 1)`` for one decision."""
        return unit(self.seed, tag, *parts)

    def storm_scenario(self, node_count: int) -> Optional[ChurnScenario]:
        """The crash/recover schedule over the unit interval, or ``None``."""
        spec = self.storm
        if spec is None or spec.cycles <= 0:
            return None
        lo, hi = spec.window
        return generate_churn(
            node_count,
            cycles=spec.cycles,
            downtime=spec.downtime,
            start=lo,
            end=hi,
            seed=mix64(self.seed, TAG_STORM) % (2**31),
        )

    def kill_schedule(self, workers: int) -> PyTuple[PyTuple[float, int], ...]:
        """``(unit_time, worker_id)`` SIGKILL points, sorted by time."""
        spec = self.kills
        if spec is None or spec.kills <= 0 or workers <= 0:
            return ()
        lo, hi = spec.window
        events = []
        for index in range(spec.kills):
            frac = lo + (hi - lo) * unit(self.seed, TAG_KILL_TIME, index)
            wid = mix64(self.seed, TAG_KILL_TARGET, index) % workers
            events.append((frac, wid))
        return tuple(sorted(events))

    def _forced_failures(self, spec, gate_tag, count_tag, identity) -> int:
        if spec is None or spec.failure_prob <= 0.0 or spec.max_failures <= 0:
            return 0
        if unit(self.seed, gate_tag, identity) >= spec.failure_prob:
            return 0
        return 1 + mix64(self.seed, count_tag, identity) % spec.max_failures

    def forced_recovery_failures(self, node: int) -> int:
        """How many leading recovery attempts for ``node`` are doomed."""
        return self._forced_failures(
            self.recovery, TAG_RECOVERY_GATE, TAG_RECOVERY_COUNT, node
        )

    def forced_respawn_failures(self, wid: int) -> int:
        """How many leading respawn attempts for worker ``wid`` are doomed."""
        return self._forced_failures(
            self.respawn, TAG_RESPAWN_GATE, TAG_RESPAWN_COUNT, wid
        )

    def respawn_attempt_fails(self, wid: int, attempt: int) -> bool:
        """Whether respawn ``attempt`` (1-based) for worker ``wid`` is doomed."""
        return attempt <= self.forced_respawn_failures(wid)

    # -- profiles --------------------------------------------------------------
    @classmethod
    def profile(cls, name: str, seed: int = 0) -> "ChaosPlan":
        """A named, ready-made plan: ``none``, ``link``, ``storm``, ``full``,
        ``degraded`` or ``kill`` (see :data:`PROFILES`)."""
        try:
            build = PROFILES[name]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(f"unknown chaos profile {name!r} (known: {known})")
        return build(seed)


#: Named profiles.  All but ``degraded`` keep injected recovery failures
#: within the default supervisor budget, so they are parity-safe.
PROFILES = {
    "none": lambda seed: ChaosPlan(seed=seed, name="none"),
    "link": lambda seed: ChaosPlan(
        seed=seed,
        name="link",
        link=LinkChaosSpec(drop_prob=0.08, dup_prob=0.06, delay_prob=0.2),
    ),
    "storm": lambda seed: ChaosPlan(
        seed=seed,
        name="storm",
        link=LinkChaosSpec(drop_prob=0.04, dup_prob=0.03, delay_prob=0.1),
        storm=CrashStormSpec(cycles=2, downtime=0.25),
    ),
    "full": lambda seed: ChaosPlan(
        seed=seed,
        name="full",
        link=LinkChaosSpec(drop_prob=0.06, dup_prob=0.05, delay_prob=0.15),
        storm=CrashStormSpec(cycles=2, downtime=0.2),
        recovery=RecoveryFaultSpec(failure_prob=0.6, max_failures=2),
        scaling=ScalingStormSpec(add_nodes=2, remove_added=True, rebalance=True),
    ),
    "degraded": lambda seed: ChaosPlan(
        seed=seed,
        name="degraded",
        storm=CrashStormSpec(cycles=1, downtime=0.3, window=(0.3, 0.8)),
        recovery=RecoveryFaultSpec(failure_prob=1.0, max_failures=1_000_000),
    ),
    "kill": lambda seed: ChaosPlan(
        seed=seed,
        name="kill",
        link=LinkChaosSpec(drop_prob=0.04, dup_prob=0.03, delay_prob=0.1),
        kills=WorkerKillSpec(kills=2),
    ),
}
