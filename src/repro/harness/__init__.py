"""Experiment harness: the paper's evaluation (Section 7) as one table and one runner.

* :mod:`repro.harness.config` — scaled-down default experiment sizes (the
  simulator is pure Python; EXPERIMENTS.md records the scaling);
* :mod:`repro.harness.experiments` — :data:`EXPERIMENTS`, one entry per
  figure, ablation and fault experiment, and :func:`run` (``run("figure7",
  config)`` returns the figure's result rows);
* :mod:`repro.harness.runner` — the one runner behind :func:`run`: the table's
  entry types and the executor constructor that applies every config knob;
* :mod:`repro.harness.report` — table formatting matching the figures' series.
"""

from repro.harness.config import ExperimentConfig, DEFAULT_CONFIG, QUICK_CONFIG
from repro.harness.experiments import EXPERIMENTS, run
from repro.harness.report import format_rows, rows_to_csv

__all__ = [
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "QUICK_CONFIG",
    "EXPERIMENTS",
    "run",
    "format_rows",
    "rows_to_csv",
]
