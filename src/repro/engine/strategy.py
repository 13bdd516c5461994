"""Execution strategies: which maintenance scheme and shipping policy to run.

The experiments of Section 7 compare five schemes; each is a combination of a
provenance model and a shipping policy:

==================  ===================  =============
scheme              provenance           shipping
==================  ===================  =============
DRed                none (set semantics) eager (plain Ship)
Relative Eager      relative             eager
Relative Lazy       relative             lazy
Absorption Eager    absorption (BDD)     eager
Absorption Lazy     absorption (BDD)     lazy
==================  ===================  =============
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.operators.ship import ShipMode
from repro.provenance.tracker import ProvenanceStore, provenance_store_for


@dataclass(frozen=True)
class ExecutionStrategy:
    """A named combination of provenance model and shipping policy."""

    provenance_kind: str
    ship_mode: ShipMode = ShipMode.LAZY
    #: Batch size ``W`` for MinShip's periodic flush in eager mode.
    ship_batch_size: int = 25
    #: Extra keyword arguments forwarded to the provenance-store factory.
    store_options: Dict[str, Any] = field(default_factory=dict)

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def dred() -> "ExecutionStrategy":
        """Set-semantics execution with DRed deletion handling."""
        return ExecutionStrategy(provenance_kind="none", ship_mode=ShipMode.EAGER)

    @staticmethod
    def absorption_eager(batch_size: int = 25) -> "ExecutionStrategy":
        """Absorption provenance with eager (periodic) propagation of derivations."""
        return ExecutionStrategy(
            provenance_kind="absorption", ship_mode=ShipMode.EAGER, ship_batch_size=batch_size
        )

    @staticmethod
    def absorption_lazy() -> "ExecutionStrategy":
        """Absorption provenance with lazy propagation (the paper's best scheme)."""
        return ExecutionStrategy(provenance_kind="absorption", ship_mode=ShipMode.LAZY)

    @staticmethod
    def relative_eager(batch_size: int = 25) -> "ExecutionStrategy":
        """Relative (derivation) provenance, eagerly propagated."""
        return ExecutionStrategy(
            provenance_kind="relative", ship_mode=ShipMode.EAGER, ship_batch_size=batch_size
        )

    @staticmethod
    def relative_lazy() -> "ExecutionStrategy":
        """Relative (derivation) provenance with lazy propagation."""
        return ExecutionStrategy(provenance_kind="relative", ship_mode=ShipMode.LAZY)

    @staticmethod
    def by_name(name: str) -> "ExecutionStrategy":
        """Look up a strategy by the label used in the paper's figures."""
        normalised = name.strip().lower().replace("-", " ").replace("_", " ")
        table = {
            "dred": ExecutionStrategy.dred,
            "absorption eager": ExecutionStrategy.absorption_eager,
            "absorption lazy": ExecutionStrategy.absorption_lazy,
            "relative eager": ExecutionStrategy.relative_eager,
            "relative lazy": ExecutionStrategy.relative_lazy,
        }
        if normalised not in table:
            raise ValueError(f"unknown strategy name: {name!r}")
        return table[normalised]()

    # -- behaviour ------------------------------------------------------------
    @property
    def uses_provenance(self) -> bool:
        """True when tuples carry provenance annotations (not DRed)."""
        return self.provenance_kind not in ("none", "set", "dred")

    @property
    def uses_dred(self) -> bool:
        """True when deletions require DRed's over-delete / re-derive phases."""
        return not self.uses_provenance

    @property
    def label(self) -> str:
        """The name used in the paper's figures."""
        if not self.uses_provenance:
            return "DRed"
        kind = self.provenance_kind.capitalize()
        mode = "Eager" if self.ship_mode is ShipMode.EAGER else "Lazy"
        return f"{kind} {mode}"

    def with_kernel_options(self, gc_threshold: Optional[float] = None) -> "ExecutionStrategy":
        """Forward BDD-kernel knobs to an absorption strategy's store options.

        A no-op for strategies whose store has no annotation kernel, and for
        ``None`` knobs; explicit per-strategy ``store_options`` win over the
        forwarded defaults.  The harness reaches every kernel knob through
        here, so a new one only needs wiring in this method.
        """
        if gc_threshold is None or self.provenance_kind != "absorption":
            return self
        options = dict(self.store_options)
        options.setdefault("gc_threshold", gc_threshold)
        return replace(self, store_options=options)

    def create_store(self) -> ProvenanceStore:
        """Instantiate the provenance store this strategy runs with."""
        return provenance_store_for(self.provenance_kind, **self.store_options)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label
