"""Tests for the network substrate: LogGP, topologies, NIC, transport."""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernel import KernelConfig, NICCostModel, Node
from repro.net import (
    FatTreeTopology,
    GraphTopology,
    LogGPParams,
    Message,
    Network,
    SwitchTopology,
    TorusTopology,
)
from repro.sim import Environment


# -- LogGP ---------------------------------------------------------------------

def test_loggp_wire_time():
    p = LogGPParams(L=5000, o=1000, g=300, G=2.0)
    assert p.wire_time(0) == 5000
    assert p.wire_time(100) == 5200
    assert p.wire_time(100, extra_latency=50) == 5250


def test_loggp_validation():
    with pytest.raises(ConfigError):
        LogGPParams(L=-1)
    with pytest.raises(ValueError):
        LogGPParams().wire_time(-1)


def test_loggp_presets():
    assert LogGPParams.preset("seastar").L < LogGPParams.preset("gige").L
    with pytest.raises(ConfigError):
        LogGPParams.preset("carrier-pigeon")


# -- topologies ------------------------------------------------------------------

def test_switch_topology_hops():
    t = SwitchTopology(8)
    assert t.hops(0, 0) == 0
    assert t.hops(0, 7) == 1
    assert t.extra_latency(0, 7) == 0  # single hop: no extra
    assert t.diameter_hops == 1


def test_switch_bounds_checked():
    t = SwitchTopology(4)
    with pytest.raises(ConfigError):
        t.hops(0, 4)


def test_torus_coordinates_roundtrip():
    t = TorusTopology((2, 3, 4))
    assert t.n_nodes == 24
    assert t.coordinates(0) == (0, 0, 0)
    assert t.coordinates(23) == (1, 2, 3)


def test_torus_hops_wraparound():
    t = TorusTopology((4, 4))
    # (0,0) -> (3,3): wraps both dims: 1 + 1.
    assert t.hops(0, 15) == 2
    # (0,0) -> (2,2): 2 + 2 either way.
    assert t.hops(0, 10) == 4
    assert t.diameter_hops == 4


def test_torus_extra_latency_scales_with_hops():
    t = TorusTopology((4, 4), hop_latency_ns=100)
    assert t.extra_latency(0, 1) == 0      # 1 hop
    assert t.extra_latency(0, 10) == 300   # 4 hops


def test_torus_invalid_dims():
    with pytest.raises(ConfigError):
        TorusTopology(())
    with pytest.raises(ConfigError):
        TorusTopology((4, 0))


def test_graph_topology_path_graph():
    t = GraphTopology({0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]})
    assert t.hops(0, 4) == 4
    assert t.hops(2, 2) == 0
    assert t.diameter_hops == 4


def test_graph_topology_edges_are_undirected():
    # Each link listed under one end only still connects both ways.
    t = GraphTopology({0: [1], 1: [2], 2: [], 3: [2]})
    assert t.hops(3, 0) == 3
    assert t.hops(0, 3) == 3


def test_graph_topology_validation():
    with pytest.raises(ConfigError):
        GraphTopology({0: [1], 1: [0], 3: []})  # gap in labels
    with pytest.raises(ConfigError):
        GraphTopology({0: [], 1: []})  # disconnected
    with pytest.raises(ConfigError):
        GraphTopology({})


def test_graph_topology_accepts_networkx_graph():
    nx = pytest.importorskip("networkx")
    g = nx.random_regular_graph(3, 12, seed=5)
    adj = {node: list(g[node]) for node in g}
    from_nx, from_dict = GraphTopology(g), GraphTopology(adj)
    for a, b in itertools.product(range(12), repeat=2):
        assert from_nx.hops(a, b) == from_dict.hops(a, b)
        assert from_nx.hops(a, b) == nx.shortest_path_length(g, a, b)


def _fat_tree_adjacency(n_nodes, radix):
    """Explicit leaf/core wiring: leaf switch ``n_nodes + k`` serves
    nodes ``k*radix ..``, and the core ``n_nodes + n_leaves`` joins the
    leaves."""
    n_leaves = (n_nodes + radix - 1) // radix
    core = n_nodes + n_leaves
    adj = {v: [] for v in range(core + 1)}
    for node in range(n_nodes):
        leaf = n_nodes + node // radix
        adj[node].append(leaf)
        adj[leaf].append(node)
    for leaf in range(n_nodes, core):
        adj[leaf].append(core)
        adj[core].append(leaf)
    return adj


@pytest.mark.parametrize("radix", range(1, 10))
def test_fat_tree_closed_form_matches_bfs(radix):
    for n_nodes in range(1, 71):
        t = FatTreeTopology(n_nodes, radix=radix, hop_latency_ns=50)
        bfs = GraphTopology(_fat_tree_adjacency(n_nodes, radix))
        expect = np.array([[bfs.hops(a, b) for b in range(n_nodes)]
                           for a in range(n_nodes)])
        got = np.array([[t.hops(a, b) for b in range(n_nodes)]
                        for a in range(n_nodes)])
        np.testing.assert_array_equal(got, expect)
        src, dst = (x.ravel() for x in np.indices((n_nodes, n_nodes)))
        np.testing.assert_array_equal(
            t.extra_cost_vec(src, dst),
            50 * np.maximum(0, expect.ravel() - 1))
        assert t.diameter_hops == expect.max()


def test_fat_tree_like_hop_structure():
    t = GraphTopology.fat_tree_like(16, radix=4)
    assert t.hops(0, 1) == 2   # same leaf switch
    assert t.hops(0, 15) == 4  # across the core


# -- message ----------------------------------------------------------------------

def test_message_seq_monotone():
    a = Message(0, 1, 0, 10)
    b = Message(0, 1, 0, 10)
    assert b.seq > a.seq


def test_message_size_validation():
    with pytest.raises(ValueError):
        Message(0, 1, 0, -1)


# -- network transport ----------------------------------------------------------------

def _machine(n, kernel=None, params=None):
    env = Environment()
    kernel = kernel or KernelConfig.lightweight()
    nodes = [Node(env, i, kernel) for i in range(n)]
    net = Network(env, nodes, params=params or LogGPParams(L=5000, o=1000,
                                                           g=0, G=1.0))
    return env, nodes, net


def test_network_delivers_message_with_wire_delay():
    env, nodes, net = _machine(2)
    delivered = []
    net.on_deliver(lambda m: delivered.append((env.now, m)))
    net.inject(Message(src=0, dst=1, tag=7, size=100))
    env.run()
    assert len(delivered) == 1
    when, msg = delivered[0]
    assert when == 5000 + 100  # L + G*size (offloaded NIC: no rx cost)
    assert msg.delivered_at == when
    assert msg.tag == 7


def test_network_requires_delivery_callback():
    env, nodes, net = _machine(2)
    with pytest.raises(ConfigError):
        net.inject(Message(src=0, dst=1, tag=0, size=0))


def test_network_validates_endpoints():
    env, nodes, net = _machine(2)
    net.on_deliver(lambda m: None)
    with pytest.raises(ConfigError):
        net.inject(Message(src=0, dst=5, tag=0, size=0))
    with pytest.raises(ConfigError):
        net.inject(Message(src=-1, dst=1, tag=0, size=0))


def test_nic_gap_serializes_injections():
    env, nodes, net = _machine(2, params=LogGPParams(L=1000, o=0, g=500, G=0.0))
    arrivals = []
    net.on_deliver(lambda m: arrivals.append(env.now))
    for _ in range(3):
        net.inject(Message(src=0, dst=1, tag=0, size=0))
    env.run()
    # Departures at 0, 500, 1000 -> arrivals 1000, 1500, 2000.
    assert arrivals == [1000, 1500, 2000]


def test_nic_rx_processing_charges_host_cpu():
    kernel = KernelConfig(name="host-nic", hz=0, tick_cost_ns=0,
                          tick_heavy_cost_ns=0, tick_heavy_probability=0.0,
                          nic=NICCostModel(rx_irq_ns=2000, rx_softirq_base_ns=3000,
                                           rx_softirq_per_kb_ns=0,
                                           tx_overhead_ns=0))
    env, nodes, net = _machine(2, kernel=kernel,
                               params=LogGPParams(L=1000, o=0, g=0, G=0.0))
    arrivals = []
    net.on_deliver(lambda m: arrivals.append(env.now))
    net.inject(Message(src=0, dst=1, tag=0, size=0))
    env.run()
    assert arrivals == [1000 + 5000]  # wire + rx irq + softirq
    assert nodes[1].cpu.transient_stolen_ns == 5000


def test_rx_processing_extends_receiver_compute():
    kernel = KernelConfig(name="host-nic", hz=0, tick_cost_ns=0,
                          tick_heavy_cost_ns=0, tick_heavy_probability=0.0,
                          nic=NICCostModel(rx_irq_ns=1000, rx_softirq_base_ns=0,
                                           rx_softirq_per_kb_ns=0,
                                           tx_overhead_ns=0))
    env, nodes, net = _machine(2, kernel=kernel,
                               params=LogGPParams(L=1000, o=0, g=0, G=0.0))
    net.on_deliver(lambda m: None)
    finished = {}

    def worker(env):
        yield from nodes[1].compute(10_000)
        finished["at"] = env.now

    env.process(worker(env))
    net.inject(Message(src=0, dst=1, tag=0, size=0))  # arrives at t=1000
    env.run()
    assert finished["at"] == 11_000  # 10k work + 1k stolen by rx irq


def test_network_counters():
    env, nodes, net = _machine(2)
    net.on_deliver(lambda m: None)
    net.inject(Message(src=0, dst=1, tag=0, size=100))
    net.inject(Message(src=1, dst=0, tag=0, size=50))
    env.run()
    assert net.messages_transferred == 2
    assert net.bytes_transferred == 150
    assert net.nics[0].tx_messages == 1
    assert net.nics[0].rx_messages == 1


def test_topology_size_mismatch_rejected():
    env = Environment()
    nodes = [Node(env, i, KernelConfig.lightweight()) for i in range(4)]
    with pytest.raises(ConfigError):
        Network(env, nodes, topology=SwitchTopology(8))


def test_self_send_is_allowed_and_fast():
    env, nodes, net = _machine(2)
    arrivals = []
    net.on_deliver(lambda m: arrivals.append(env.now))
    net.inject(Message(src=0, dst=0, tag=0, size=0))
    env.run()
    assert arrivals == [5000]  # still pays L in this model
