"""Messages exchanged between simulated query-processor nodes."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.data.update import Update

_message_ids = itertools.count()


class Message:
    """A batch of updates shipped from ``src`` to ``dst`` addressed to ``port``.

    ``port`` names the receiving operator on the destination node (for
    example ``"fixpoint"`` or ``"join.link"``), mirroring how the paper's
    query plan wires the base scan / MinShip outputs to remote operators.

    ``size_bytes`` is the wire size computed by the sender: tuple payloads
    plus the encoded provenance annotations.  It is what the communication-
    overhead metric aggregates.

    ``epoch`` is the placement epoch the sender routed under (see
    :mod:`repro.placement`).  A message delivered after the placement map
    moved on carries a *stale* epoch; the receiving node re-checks ownership
    of each update and bounces misrouted ones to the current owner.  Static
    clusters never change placement, so the epoch stays 0 for them.

    A ``__slots__`` class, not a dataclass: one Message is allocated per
    ``send``/``inject`` on the simulator hot path, and slot storage skips the
    per-instance ``__dict__`` (the same treatment Tuple and Update received).

    ``trace_flow`` is the flow-event id linking this message's send span to
    its delivery span when tracing is enabled (see :mod:`repro.obs.trace`);
    ``None`` — the untraced default — costs one slot write per message.
    """

    __slots__ = (
        "src",
        "dst",
        "port",
        "updates",
        "size_bytes",
        "sent_at",
        "epoch",
        "message_id",
        "trace_flow",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        port: str,
        updates: Sequence[Update],
        size_bytes: int,
        sent_at: float,
        epoch: int = 0,
        message_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.port = port
        self.updates = updates
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.epoch = epoch
        self.message_id = next(_message_ids) if message_id is None else message_id
        self.trace_flow: Optional[int] = None

    @property
    def is_local(self) -> bool:
        """True when the message never leaves the node (not counted as traffic)."""
        return self.src == self.dst

    @property
    def update_count(self) -> int:
        """Number of updates carried."""
        return len(self.updates)

    def __repr__(self) -> str:
        return (
            f"Message(#{self.message_id} {self.src}->{self.dst} port={self.port!r} "
            f"{self.update_count} updates, {self.size_bytes}B)"
        )
