"""Unified observability: span tracing, metrics registry, Perfetto export.

See :mod:`repro.obs.trace` for the tracer (an unbounded store for ``--trace``,
a bounded ring per pid for the always-on flight recorder) and its track model,
:mod:`repro.obs.metrics` for the counter/gauge/histogram registry and probe
API, :mod:`repro.obs.export` for trace loading and validators and the metrics
writer, and :mod:`repro.obs.explain` for the provenance-native explain engine.
"""

from repro.obs.explain import (
    ExplainEngine,
    Explanation,
    inject_explain_flows,
    parse_view_tuple,
)
from repro.obs.metrics import (
    MetricsLog,
    MetricsRegistry,
    current_metrics_log,
    install_metrics_log,
)
from repro.obs.trace import (
    CONTROL_PID,
    DEFAULT_RING_CAPACITY,
    HARNESS_PID,
    KERNEL_PID,
    Tracer,
    current_tracer,
    install_tracer,
    maybe_dump_flight,
)

__all__ = [
    "CONTROL_PID",
    "DEFAULT_RING_CAPACITY",
    "HARNESS_PID",
    "KERNEL_PID",
    "ExplainEngine",
    "Explanation",
    "MetricsLog",
    "MetricsRegistry",
    "Tracer",
    "current_metrics_log",
    "current_tracer",
    "inject_explain_flows",
    "install_metrics_log",
    "install_tracer",
    "maybe_dump_flight",
    "parse_view_tuple",
]
