"""Unit tests for the dependency DAG."""

import pytest

from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG


@pytest.fixture
def chain_circuit():
    """cx(0,1); cx(1,2); cx(2,3) -- a pure dependency chain."""

    c = Circuit(4)
    c.add("cx", 0, 1)
    c.add("cx", 1, 2)
    c.add("cx", 2, 3)
    return c


@pytest.fixture
def parallel_circuit():
    """Two independent gates followed by one joining them."""

    c = Circuit(4)
    c.add("cx", 0, 1)
    c.add("cx", 2, 3)
    c.add("cx", 1, 2)
    return c


class TestStructure:
    def test_chain_dependencies(self, chain_circuit):
        dag = DependencyDAG(chain_circuit)
        assert dag.predecessors(0) == ()
        assert dag.predecessors(1) == (0,)
        assert dag.predecessors(2) == (1,)

    def test_successors(self, chain_circuit):
        dag = DependencyDAG(chain_circuit)
        assert dag.successors(0) == (1,)
        assert dag.successors(2) == ()

    def test_parallel_roots(self, parallel_circuit):
        dag = DependencyDAG(parallel_circuit)
        assert dag.roots() == [0, 1]
        assert set(dag.predecessors(2)) == {0, 1}

    def test_in_degrees(self, parallel_circuit):
        dag = DependencyDAG(parallel_circuit)
        assert dag.in_degrees() == [0, 0, 2]

    def test_num_gates(self, chain_circuit):
        assert DependencyDAG(chain_circuit).num_gates == 3


class TestTraversal:
    def test_topological_order_matches_program_order(self, qft8):
        dag = DependencyDAG(qft8)
        assert dag.topological_order() == list(range(len(qft8)))

    def test_layers_partition_all_gates(self, qft8):
        dag = DependencyDAG(qft8)
        layers = dag.layers()
        flattened = [index for layer in layers for index in layer]
        assert sorted(flattened) == list(range(len(qft8)))

    def test_layers_are_independent(self, parallel_circuit):
        dag = DependencyDAG(parallel_circuit)
        layers = dag.layers()
        assert layers[0] == [0, 1]
        assert layers[1] == [2]

    def test_empty_circuit(self):
        dag = DependencyDAG(Circuit(2))
        assert dag.topological_order() == []
        assert dag.layers() == []
