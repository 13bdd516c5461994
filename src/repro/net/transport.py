"""The transport surface processor nodes program against.

:class:`repro.engine.runtime.ProcessorNode` historically took the concrete
:class:`repro.net.simulator.SimulatedNetwork`; the process backend introduces
a second implementation (the per-worker :class:`repro.parallel.worker.WorkerNetwork`
stub that turns ``send`` into outbox entries shipped back to the coordinator).
``Transport`` names exactly the surface a node actually uses, so both engines
satisfy it and neither imports the other.

Kept a :class:`typing.Protocol` (structural) rather than an ABC: the simulator
predates this module and should not need to inherit from anything to qualify.

The chaos plane (:mod:`repro.chaos`) sits *below* this surface, at the link
layer: its interposer perturbs arrivals inside the implementations' send
paths, masked by the reliable FIFO channels.  Nodes programming against
``Transport`` never observe a dropped, duplicated or delayed wire copy —
only time passing differently — which is what keeps chaos runs bit-identical
to their fault-free references.
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, runtime_checkable


@runtime_checkable
class Transport(Protocol):
    """What a processor node needs from the layer that moves its batches.

    * ``send`` — ship a batch of updates to a peer's input port;
    * ``active_nodes`` — the current cluster membership (purge multicast);
    * ``stats`` — a :class:`repro.net.stats.NetworkStats`-shaped accumulator
      (``record_message`` / ``record_provenance``);
    * ``tracer`` — the span tracer deliveries should record against, or
      ``None`` when tracing is off;
    * ``current_epoch`` — the placement epoch stamped onto messages;
    * ``variable_rank`` — the global rank of the next BDD variable the
      handled event declares.
    """

    stats: Any
    tracer: Any
    current_epoch: int

    def send(
        self,
        source: int,
        destination: int,
        port: str,
        updates: Sequence[Any],
        size_bytes: int,
        at_time: float,
    ) -> None:
        ...

    def active_nodes(self) -> List[int]:
        ...

    def variable_rank(self) -> int:
        ...
