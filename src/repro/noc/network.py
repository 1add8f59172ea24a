"""The NoC network: topology + routers + packet transport."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.routing import xy_route
from repro.noc.topology import MeshTopology, NodeId
from repro.sim.trace import TraceRecorder


class NoCNetwork:
    """A 2-D mesh NoC with XY routing and per-link FIFO arbitration.

    The network is used in two roles:

    * **configuration traffic** — pre-loading I/O tasks and schedules into the
      controller (Phases 1-2 of the paper), where latency is irrelevant;
    * **run-time traffic** — I/O requests instigated by remote CPUs and I/O
      responses travelling back, where the accumulated per-hop latency and
      arbitration jitter are exactly what destroys timing accuracy when no
      dedicated controller is used.

    :meth:`send` serves configuration traffic: it moves one :class:`Packet`
    through the stateful routers, and it is the hop-by-hop oracle the tests
    hold :meth:`transport` to.  :meth:`transport` serves a run's traffic: it
    computes the delivery times of a whole packet sequence on an idle mesh in
    one pass over flat link slots, without packets and without touching the
    network's state.
    """

    def __init__(
        self,
        topology: MeshTopology,
        *,
        routing_delay: int = 2,
        flit_delay: int = 1,
        injection_delay: int = 1,
        ejection_delay: int = 1,
        trace: Optional[TraceRecorder] = None,
    ):
        self.topology = topology
        self.routers: Dict[NodeId, Router] = {
            node: Router(node=node, routing_delay=routing_delay, flit_delay=flit_delay)
            for node in topology.nodes()
        }
        self.routing_delay = routing_delay
        self.flit_delay = flit_delay
        self.injection_delay = injection_delay
        self.ejection_delay = ejection_delay
        self.trace = trace
        self.delivered: List[Packet] = []
        #: (source, destination) -> the XY route's hops as (router, next node)
        #: pairs, computed on a pair's first packet.
        self._hops: Dict[Tuple[NodeId, NodeId], List[Tuple[Router, NodeId]]] = {}

    def router(self, node: NodeId) -> Router:
        return self.routers[node]

    def send(self, packet: Packet, time: int) -> int:
        """Transport ``packet`` starting at ``time``; returns the delivery time.

        The packet is injected at its source router, forwarded hop by hop along
        the XY route (waiting whenever an output link is busy), and ejected at
        the destination's home port.
        """
        packet.injected_at = int(time)
        pair = (packet.source, packet.destination)
        hops = self._hops.get(pair)
        if hops is None:
            route = xy_route(packet.source, packet.destination, self.topology)
            hops = [(self.routers[node], next_node) for node, next_node in zip(route, route[1:])]
            self._hops[pair] = hops
        current_time = packet.injected_at + self.injection_delay

        for router, next_node in hops:
            _, current_time = router.forward(packet, next_node, current_time)

        current_time += self.ejection_delay
        packet.delivered_at = current_time
        self.delivered.append(packet)
        if self.trace is not None:
            self.trace.record(
                current_time,
                source=f"noc{packet.source}->{packet.destination}",
                kind="packet-delivered",
                packet_id=packet.packet_id,
                kind_of_packet=packet.kind,
                latency=packet.latency,
                hops=len(hops),
            )
        return current_time

    def transport(
        self,
        sources: Sequence[NodeId],
        destination: NodeId,
        times: Sequence[int],
        sizes: Sequence[int],
    ) -> List[int]:
        """Delivery times of packets ``sources[k] -> destination``, injected at
        ``times[k]`` with ``sizes[k]`` flits, sent in call order on an idle mesh.

        The result equals what a loop of :meth:`send` calls on a fresh network
        with this topology and these delays returns for the same packets.  Each
        link serves its packets in call order, so every hop is Lindley's
        recursion ``departure = max(arrival, link free) + service`` over one
        flat slot per link; each distinct source's XY route is resolved once.
        No :class:`Packet` is built and the network's state is left unchanged.
        """
        slot_of: Dict[Tuple[NodeId, NodeId], int] = {}
        routes: Dict[NodeId, Tuple[int, ...]] = {}
        for source in set(sources) | {destination}:
            route = xy_route(source, destination, self.topology)
            routes[source] = tuple(
                slot_of.setdefault(link, len(slot_of)) for link in zip(route, route[1:])
            )
        link_free = [0] * len(slot_of)
        routing_delay, flit_delay = self.routing_delay, self.flit_delay
        injection_delay, ejection_delay = self.injection_delay, self.ejection_delay
        delivered: List[int] = []
        for source, time, size in zip(sources, times, sizes):
            now = time + injection_delay
            service = routing_delay + size * flit_delay
            for slot in routes[source]:
                free = link_free[slot]
                if free > now:
                    now = free
                now += service
                link_free[slot] = now
            delivered.append(now + ejection_delay)
        return delivered

    # -- statistics ------------------------------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[int]:
        """End-to-end latencies of delivered packets (optionally filtered by kind)."""
        return [
            packet.latency
            for packet in self.delivered
            if packet.latency is not None and (kind is None or packet.kind == kind)
        ]

    def mean_latency(self, kind: Optional[str] = None) -> float:
        values = self.latencies(kind)
        return sum(values) / len(values) if values else 0.0

    def max_latency(self, kind: Optional[str] = None) -> int:
        values = self.latencies(kind)
        return max(values) if values else 0

    def total_blocking(self) -> int:
        """Total arbitration blocking accumulated across all routers."""
        return sum(router.total_blocking for router in self.routers.values())
