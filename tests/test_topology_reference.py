"""Route equivalence of :class:`Topology` with networkx as the reference.

``Topology`` searches its adjacency dict with a stdlib Dijkstra that keeps
networkx's tie-break, because the paper goldens pin which of several
equal-length routes the router takes.  These tests build each topology
twice -- once as a ``Topology``, once as an ``nx.Graph`` with the same node
and edge insertion order -- and require identical answers from
``shortest_path`` (networkx's bidirectional Dijkstra), ``all_shortest_paths``
(order included) and ``validate()`` (connectivity).  networkx is a test-only
dependency; without it the module is skipped.
"""

import random

import pytest

from repro.hardware.builders import grid_topology, linear_topology, ring_topology
from repro.hardware.junction import Junction
from repro.hardware.topology import Topology
from repro.hardware.trap import Trap

nx = pytest.importorskip("networkx")


def _build(num_nodes, edges, junctions, order, name="random"):
    """A ``Topology`` and the matching ``nx.Graph``.

    ``edges`` is a list of ``(a, b, length)`` over node indices, connected
    in list order; nodes in ``junctions`` become junctions whose degree is
    their edge count; ``order`` is the node insertion order.
    """

    degree = [0] * num_nodes
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    names, trap_ids, junction_ids = {}, 0, 0
    for node in range(num_nodes):
        if node in junctions:
            names[node] = f"J{junction_ids}"
            junction_ids += 1
        else:
            names[node] = f"T{trap_ids}"
            trap_ids += 1
    topology = Topology(name)
    graph = nx.Graph()
    for node in order:
        label = names[node]
        position = (float(node % 5), float(node // 5))
        if node in junctions:
            topology.add_junction(Junction(int(label[1:]), degree[node],
                                           position=position))
        else:
            topology.add_trap(Trap(int(label[1:]), 4, position=position))
        graph.add_node(label)
    for a, b, length in edges:
        topology.connect(names[a], names[b], length)
        graph.add_edge(names[a], names[b], weight=length)
    return topology, graph


def _random_connected(rng):
    """A random connected topology: a spanning tree plus extra segments,
    lengths 1-3, some interior nodes junctions, shuffled insertion order."""

    num_nodes = rng.randint(3, 12)
    edges, present = [], set()
    for node in range(1, num_nodes):
        other = rng.randrange(node)
        edges.append((other, node, rng.randint(1, 3)))
        present.add((other, node))
    for _ in range(rng.randint(0, num_nodes)):
        a, b = sorted(rng.sample(range(num_nodes), 2))
        if (a, b) not in present:
            present.add((a, b))
            edges.append((a, b, rng.randint(1, 3)))
    rng.shuffle(edges)
    edges = [(b, a, length) if rng.random() < 0.5 else (a, b, length)
             for a, b, length in edges]
    degree = [0] * num_nodes
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    candidates = [node for node in range(num_nodes) if degree[node] >= 2]
    junctions = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))
    order = list(range(num_nodes))
    rng.shuffle(order)
    return _build(num_nodes, edges, junctions, order)


def _ring(rng, size):
    """A ring: even sizes have unit lengths and tie both ways round; odd
    sizes have lengths 1-3."""

    edges = [(node, (node + 1) % size, 1 if size % 2 == 0 else rng.randint(1, 3))
             for node in range(size)]
    return _build(size, edges, set(), list(range(size)), name=f"ring{size}")


def _mesh(rng, rows, cols):
    """A rows x cols lattice of traps with unit segments: many equal-length
    routes between distant corners.  Some crossings are junctions."""

    edges = []
    for row in range(rows):
        for col in range(cols):
            node = row * cols + col
            if col + 1 < cols:
                edges.append((node, node + 1, 1))
            if row + 1 < rows:
                edges.append((node, node + cols, 1))
    junctions = {node for node in range(rows * cols) if rng.random() < 0.3}
    order = list(range(rows * cols))
    rng.shuffle(order)
    return _build(rows * cols, edges, junctions, order, name=f"mesh{rows}x{cols}")


def _nodes(path):
    """The node labels a ``ShuttlePath`` visits, source first."""

    nodes = [path.source]
    for segment in path.segments:
        nodes.append(segment.other_end(nodes[-1]))
    return nodes


def _assert_agree(topology, graph):
    """Compare every trap pair; returns ``(connected, tied)``, ``tied``
    counting the pairs with more than one shortest route."""

    connected, tied = nx.is_connected(graph), 0
    if connected:
        topology.validate()
    else:
        with pytest.raises(ValueError, match="not connected"):
            topology.validate()
    traps = [trap.name for trap in topology.traps]
    for source in traps:
        for destination in traps:
            if source == destination:
                continue
            if not nx.has_path(graph, source, destination):
                with pytest.raises(ValueError, match="no path"):
                    topology.shortest_path(source, destination)
                with pytest.raises(ValueError, match="no path"):
                    topology.all_shortest_paths(source, destination)
                continue
            expected = nx.shortest_path(graph, source, destination, weight="weight")
            assert _nodes(topology.shortest_path(source, destination)) == expected
            expected_all = list(nx.all_shortest_paths(graph, source, destination,
                                                      weight="weight"))
            actual_all = [_nodes(path) for path in
                          topology.all_shortest_paths(source, destination)]
            assert actual_all == expected_all
            tied += len(actual_all) > 1
    return connected, tied


@pytest.mark.parametrize("seed", range(40))
def test_random_connected_topologies_match_networkx(seed):
    topology, graph = _random_connected(random.Random(seed))
    connected, _ = _assert_agree(topology, graph)
    assert connected


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8, 10])
def test_rings_match_networkx(size):
    topology, graph = _ring(random.Random(size), size)
    connected, tied = _assert_agree(topology, graph)
    assert connected and (tied > 0 or size % 2 == 1)


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_meshes_with_equal_length_alternatives_match_networkx(rows, cols):
    topology, graph = _mesh(random.Random(rows * 10 + cols), rows, cols)
    connected, tied = _assert_agree(topology, graph)
    assert connected and tied > 0


@pytest.mark.parametrize("topology", [
    linear_topology(6, 20), grid_topology(2, 3, 20), grid_topology(3, 3, 20),
    ring_topology(8, 20)], ids=lambda topology: topology.name)
def test_paper_builders_match_networkx(topology):
    # The builders add every trap, in id order, before the junctions, and
    # segment ids count up in connect order.
    graph = nx.Graph()
    for node in topology.traps + topology.junctions:
        graph.add_node(node.name)
    for segment in topology.segments:
        graph.add_edge(segment.endpoint_a, segment.endpoint_b, weight=segment.length)
    connected, _ = _assert_agree(topology, graph)
    assert connected


def test_disconnected_topology_matches_networkx():
    edges = [(0, 1, 2), (1, 2, 1), (3, 4, 1), (4, 5, 3), (5, 3, 1)]
    topology, graph = _build(6, edges, {4}, [5, 0, 3, 1, 4, 2])
    connected, _ = _assert_agree(topology, graph)
    assert not connected
