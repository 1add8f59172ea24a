"""Unit tests for routers, the NoC network and the latency model."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    CommunicationLatencyModel,
    MeshTopology,
    NoCNetwork,
    Packet,
    Router,
    worst_case_latency,
)
from repro.noc.routing import xy_route


def hop_by_hop_oracle(mesh, sends, *, routing_delay, flit_delay, injection_delay, ejection_delay):
    """Deliver ``(source, destination, size_flits, time)`` sends one after the
    other, routing each with ``xy_route`` and serialising each output link in
    arrival order.  Returns the delivery times and each router's forwarded
    packets and accumulated blocking."""
    link_free_at = {}
    forwarded = Counter()
    blocking = Counter()
    deliveries = []
    for source, destination, size_flits, time in sends:
        route = xy_route(source, destination, mesh)
        now = time + injection_delay
        for node, next_node in zip(route, route[1:]):
            start = max(now, link_free_at.get((node, next_node), 0))
            forwarded[node] += 1
            blocking[node] += start - now
            now = start + routing_delay + size_flits * flit_delay
            link_free_at[(node, next_node)] = now
        deliveries.append(now + ejection_delay)
    return deliveries, forwarded, blocking


class TestRouter:
    def test_service_time(self):
        router = Router(node=(0, 0), routing_delay=2, flit_delay=1)
        assert router.service_time(Packet((0, 0), (1, 0), size_flits=4)) == 6

    def test_fifo_arbitration_serialises_conflicting_packets(self):
        router = Router(node=(0, 0), routing_delay=2, flit_delay=1)
        first = Packet((0, 0), (1, 0), size_flits=4)
        second = Packet((0, 0), (1, 0), size_flits=4)
        _, dep1 = router.forward(first, (1, 0), arrival_time=0)
        start2, dep2 = router.forward(second, (1, 0), arrival_time=1)
        assert dep1 == 6
        assert start2 == 6
        assert dep2 == 12
        assert router.total_blocking == 5

    def test_different_links_do_not_block_each_other(self):
        router = Router(node=(1, 1))
        a = Packet((1, 1), (2, 1), size_flits=4)
        b = Packet((1, 1), (1, 2), size_flits=4)
        router.forward(a, (2, 1), 0)
        start_b, _ = router.forward(b, (1, 2), 0)
        assert start_b == 0


class TestNoCNetwork:
    def test_latency_of_uncontended_packet(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh, routing_delay=2, flit_delay=1, injection_delay=1, ejection_delay=1)
        packet = Packet((0, 0), (3, 3), size_flits=4)
        delivered = network.send(packet, time=100)
        hops = mesh.manhattan_distance((0, 0), (3, 3))
        expected = 1 + hops * (2 + 4) + 1
        assert delivered == 100 + expected
        assert packet.latency == expected

    def test_latency_matches_analytical_model_without_contention(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        packet = Packet((0, 0), (2, 1), size_flits=4)
        network.send(packet, 0)
        model = CommunicationLatencyModel()
        assert packet.latency == model.no_contention_latency(hops=3, size_flits=4)

    def test_contention_increases_latency(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        first = Packet((0, 0), (3, 0), size_flits=8)
        second = Packet((0, 0), (3, 0), size_flits=4)
        network.send(first, 0)
        network.send(second, 0)
        solo = NoCNetwork(mesh)
        alone = Packet((0, 0), (3, 0), size_flits=4)
        solo.send(alone, 0)
        assert second.latency > alone.latency
        assert network.total_blocking() > 0

    def test_statistics(self):
        mesh = MeshTopology(3, 3)
        network = NoCNetwork(mesh)
        network.send(Packet((0, 0), (2, 2), size_flits=4, kind="io-request"), 0)
        network.send(Packet((1, 0), (2, 2), size_flits=4, kind="background"), 0)
        assert len(network.latencies()) == 2
        assert len(network.latencies(kind="io-request")) == 1
        assert network.mean_latency() > 0
        assert network.max_latency() >= network.mean_latency()


    def test_send_matches_a_hop_by_hop_oracle(self):
        """200 mixed packets, most of them to one I/O tile so that pairs and
        links repeat, some between random nodes (zero-hop ones included)."""
        mesh = MeshTopology(4, 3)
        delays = dict(routing_delay=3, flit_delay=2, injection_delay=1, ejection_delay=2)
        nodes = list(mesh.nodes())
        rng = random.Random(7)
        sends = []
        for _ in range(200):
            source = rng.choice(nodes)
            destination = (3, 2) if rng.random() < 0.7 else rng.choice(nodes)
            sends.append((source, destination, rng.randint(1, 8), rng.randint(0, 400)))
        network = NoCNetwork(mesh, **delays)
        delivered = [
            network.send(Packet(source, destination, size_flits=size), time)
            for source, destination, size, time in sends
        ]
        deliveries, forwarded, blocking = hop_by_hop_oracle(mesh, sends, **delays)
        assert delivered == deliveries
        assert [packet.delivered_at for packet in network.delivered] == deliveries
        for node in nodes:
            assert network.router(node).forwarded == forwarded[node]
            assert network.router(node).total_blocking == blocking[node]
        assert sum(blocking.values()) > 0

    def test_a_node_outside_the_mesh_is_rejected_on_every_send(self):
        network = NoCNetwork(MeshTopology(2, 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the mesh"):
                network.send(Packet((0, 0), (2, 0)), 0)
        for sources, destination in (([(0, 0)], (2, 0)), ([(0, 0), (0, 2)], (1, 1)), ([], (-1, 0))):
            with pytest.raises(ValueError, match="outside the mesh"):
                network.transport(sources, destination, [0] * len(sources), [4] * len(sources))


@st.composite
def transports(draw):
    """A mesh from 1x1 to 5x5 with all four delays, a destination anywhere on
    it, and packets from any node (the destination itself included) with
    injection times out of order."""
    mesh = MeshTopology(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    nodes = list(mesh.nodes())
    destination = draw(st.sampled_from(nodes))
    delays = {
        name: draw(st.integers(0, 4))
        for name in ("routing_delay", "flit_delay", "injection_delay", "ejection_delay")
    }
    n = draw(st.integers(0, 60))
    node = st.just(destination) | st.sampled_from(nodes)
    sources = draw(st.lists(node, min_size=n, max_size=n))
    times = draw(st.lists(st.integers(0, 120), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return mesh, delays, sources, destination, times, sizes


@settings(max_examples=300, deadline=None)
@given(case=transports())
def test_transport_equals_a_loop_of_send_on_a_fresh_network(case):
    mesh, delays, sources, destination, times, sizes = case
    sent = NoCNetwork(mesh, **delays)
    expected = [
        sent.send(Packet(source, destination, size_flits=size), time)
        for source, time, size in zip(sources, times, sizes)
    ]
    network = NoCNetwork(mesh, **delays)
    assert network.transport(sources, destination, times, sizes) == expected
    assert network.delivered == []
    assert all(router.forwarded == 0 for router in network.routers.values())
    # The links ``send`` left busy are not read: a run starts on an idle mesh.
    assert sent.transport(sources, destination, times, sizes) == expected


class TestWorstCaseLatency:
    def test_bound_dominates_observed_latency(self):
        mesh = MeshTopology(4, 4)
        network = NoCNetwork(mesh)
        interfering = Packet((1, 0), (3, 0), size_flits=8)
        network.send(interfering, 0)
        request = Packet((0, 0), (3, 0), size_flits=4)
        network.send(request, 0)
        bound = worst_case_latency(
            (0, 0), (3, 0), mesh, size_flits=4, interfering_sizes=[8]
        )
        assert request.latency <= bound

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet((0, 0), (1, 1), size_flits=0)
