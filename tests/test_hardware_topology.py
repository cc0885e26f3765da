"""Unit tests for the device topology graph and path planning."""

import pytest

from repro.hardware.builders import grid_topology, linear_topology, ring_topology
from repro.hardware.junction import Junction
from repro.hardware.topology import PathStep, Topology
from repro.hardware.trap import Trap


def pass_through_traps(path):
    """Names of the traps a path passes through (a merge and split each)."""

    return [step.element.name for step in path.steps if step.kind == "trap"]


class TestConstruction:
    def test_add_and_lookup(self):
        topo = Topology("t")
        topo.add_trap(Trap(0, 10))
        topo.add_trap(Trap(1, 10))
        topo.connect("T0", "T1")
        assert topo.num_traps == 2
        assert topo.trap("T0").capacity == 10

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_trap(Trap(0, 10))
        with pytest.raises(ValueError):
            topo.add_trap(Trap(0, 10))

    def test_connect_unknown_node(self):
        topo = Topology()
        topo.add_trap(Trap(0, 10))
        with pytest.raises(ValueError):
            topo.connect("T0", "T9")

    def test_duplicate_segment_rejected(self):
        topo = Topology()
        topo.add_trap(Trap(0, 10))
        topo.add_trap(Trap(1, 10))
        topo.connect("T0", "T1")
        with pytest.raises(ValueError):
            topo.connect("T0", "T1")

    def test_validate_requires_traps(self):
        with pytest.raises(ValueError):
            Topology().validate()

    def test_validate_requires_connected(self):
        topo = Topology()
        topo.add_trap(Trap(0, 10))
        topo.add_trap(Trap(1, 10))
        with pytest.raises(ValueError):
            topo.validate()

    def test_validate_checks_junction_degree(self):
        topo = Topology()
        topo.add_trap(Trap(0, 10))
        topo.add_junction(Junction(0, 3))
        topo.connect("T0", "J0")
        with pytest.raises(ValueError):
            topo.validate()

    def test_unknown_lookups_raise(self):
        topo = linear_topology(2, 10)
        with pytest.raises(KeyError):
            topo.trap("T9")
        with pytest.raises(KeyError):
            topo.junction("J0")
        with pytest.raises(KeyError):
            topo.segment_between("T0", "T9")


class TestLinearPaths:
    @pytest.fixture
    def l4(self):
        return linear_topology(4, 10)

    def test_adjacent_path(self, l4):
        path = l4.shortest_path("T0", "T1")
        assert path.num_segments == 1
        assert len(path.junctions) == 0
        assert pass_through_traps(path) == []

    def test_distant_path_passes_through_traps(self, l4):
        path = l4.shortest_path("T0", "T3")
        assert path.num_segments == 3
        assert pass_through_traps(path) == ["T1", "T2"]

    def test_same_trap_path_is_empty(self, l4):
        assert len(l4.shortest_path("T1", "T1")) == 0

    def test_path_must_connect_traps(self, l4):
        with pytest.raises(KeyError):
            l4.shortest_path("T0", "J0")

    def test_trap_distance(self, l4):
        assert l4.trap_distance("T0", "T3") == 3

    def test_distance_matrix_symmetric(self, l4):
        matrix = l4.distance_matrix()
        assert matrix[("T0", "T2")] == matrix[("T2", "T0")] == 2
        assert matrix[("T1", "T1")] == 0

    def test_port_sides(self, l4):
        assert l4.port_side("T1", "T0") == "head"
        assert l4.port_side("T1", "T2") == "tail"

    def test_port_side_requires_adjacency(self, l4):
        with pytest.raises(KeyError):
            l4.port_side("T0", "T3")

    def test_path_sides_pass_through_traps(self, l4):
        path = l4.shortest_path("T0", "T2")
        assert (path.exit_side, path.entry_side) == ("tail", "head")
        assert [(step.kind, step.sides) for step in path.steps] == [
            ("segment", None), ("trap", ("head", "tail")), ("segment", None)]
        assert path.steps[1].element.name == "T1"
        assert l4.shortest_path("T1", "T1").exit_side is None

    def test_path_cache_cleared_when_graph_grows(self, l4):
        before = l4.shortest_path("T0", "T3")
        l4.add_junction(Junction(9, 2, "J9"))
        after = l4.shortest_path("T0", "T3")
        assert after == before and after is not before


class TestGridPaths:
    @pytest.fixture
    def g2x3(self):
        return grid_topology(2, 3, 10)

    def test_structure(self, g2x3):
        assert g2x3.num_traps == 6
        assert len(g2x3.junctions) == 3
        # 6 trap-junction segments + 2 junction-junction segments.
        assert len(g2x3.segments) == 8

    def test_junction_kinds(self, g2x3):
        kinds = {j.name: j.kind for j in g2x3.junctions}
        assert kinds["J0"] == "Y"
        assert kinds["J1"] == "X"
        assert kinds["J2"] == "Y"

    def test_same_column_path_uses_one_junction(self, g2x3):
        path = g2x3.shortest_path("T0", "T3")  # column 0, rows 0 and 1
        assert len(path.junctions) == 1
        assert pass_through_traps(path) == []

    def test_cross_column_path(self, g2x3):
        path = g2x3.shortest_path("T0", "T5")  # corner to corner
        assert pass_through_traps(path) == []
        assert len(path.junctions) == 3
        assert path.num_segments == 4

    def test_path_sides_cross_junctions(self, g2x3):
        path = g2x3.shortest_path("T0", "T5")
        assert path.exit_side == g2x3.port_side("T0", "J0")
        assert path.entry_side == g2x3.port_side("T5", path.segments[-1].other_end("T5"))
        assert all(step.sides is None for step in path.steps)

    def test_no_pass_through_traps_anywhere(self, g2x3):
        for a in g2x3.traps:
            for b in g2x3.traps:
                if a.name != b.name:
                    assert pass_through_traps(
                        g2x3.shortest_path(a.name, b.name)) == []

    def test_all_shortest_paths(self, g2x3):
        paths = g2x3.all_shortest_paths("T0", "T3")
        assert len(paths) >= 1
        assert all(p.num_segments == 2 for p in paths)

    def test_neighbors_in_segment_order(self, g2x3):
        assert g2x3.neighbors("J1") == ("T1", "T4", "J0", "J2")
        assert g2x3.neighbors("T0") == ("J0",)
        with pytest.raises(KeyError):
            g2x3.neighbors("T9")


class TestOtherTopologies:
    def test_ring(self):
        ring = ring_topology(6, 10)
        assert ring.num_traps == 6
        assert ring.trap_distance("T0", "T5") == 1  # wrap-around
        assert ring.trap_distance("T0", "T3") == 3

    def test_single_trap_linear(self):
        topo = linear_topology(1, 10)
        assert topo.num_traps == 1

    def test_total_capacity(self):
        topo = linear_topology(6, 20)
        assert sum(trap.capacity for trap in topo.traps) == 120

    def test_path_step_validation(self):
        with pytest.raises(ValueError):
            PathStep("tunnel", None)
