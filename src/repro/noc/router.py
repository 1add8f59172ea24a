"""Router model: per-output-link serialisation in call order, with configurable latencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.noc.packet import Packet
from repro.noc.topology import NodeId


@dataclass
class Router:
    """A single mesh router.

    The model works at packet granularity: forwarding a packet over an output
    link occupies that link for ``routing_delay + size_flits * flit_delay``
    time units, and packets competing for the same output link are served in
    the order :meth:`forward` is called for them, not in arrival order: each
    waits for the one forwarded before it, even one that arrives later
    (``Packet.priority`` is not read).  This captures the two effects the paper
    cares about — per-hop latency and arbitration-induced jitter — without
    flit-level detail.
    """

    node: NodeId
    #: Fixed per-hop routing/arbitration overhead (time units per packet).
    routing_delay: int = 2
    #: Link traversal time per flit (time units).
    flit_delay: int = 1
    #: Earliest time each output link becomes free again, keyed by neighbour.
    _link_free_at: Dict[NodeId, int] = field(default_factory=dict)
    #: Per-link counters of forwarded packets and accumulated blocking.
    forwarded: int = 0
    total_blocking: int = 0

    def service_time(self, packet: Packet) -> int:
        """Time the packet occupies an output link of this router."""
        return self.routing_delay + packet.size_flits * self.flit_delay

    def forward(self, packet: Packet, to: NodeId, arrival_time: int) -> Tuple[int, int]:
        """Forward ``packet`` towards neighbour ``to``.

        Returns ``(start_time, departure_time)``: the packet starts crossing
        the link once the link is free and leaves the router at
        ``start + service_time``.
        """
        link_free = self._link_free_at.get(to, 0)
        start = max(arrival_time, link_free)
        blocking = start - arrival_time
        departure = start + self.service_time(packet)
        self._link_free_at[to] = departure
        self.forwarded += 1
        self.total_blocking += blocking
        return start, departure
