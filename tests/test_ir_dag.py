"""Unit tests for the dependency edges of the circuit front-end."""

import pytest

from repro.ir.circuit import Circuit


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
        front = chain_circuit.front_end()
        assert front.predecessors[0] == ()
        assert front.predecessors[1] == (0,)
        assert front.predecessors[2] == (1,)

    def test_successors(self, chain_circuit):
        front = chain_circuit.front_end()
        assert front.successors[0] == (1,)
        assert front.successors[2] == ()

    def test_parallel_roots(self, parallel_circuit):
        front = parallel_circuit.front_end()
        assert [gate for gate, degree in enumerate(front.in_degrees)
                if not degree] == [0, 1]
        assert set(front.predecessors[2]) == {0, 1}

    def test_in_degrees(self, parallel_circuit):
        assert list(parallel_circuit.front_end().in_degrees) == [0, 0, 2]

    def test_num_gates(self, chain_circuit):
        assert len(chain_circuit.front_end().gates) == 3


class TestTraversal:
    def test_empty_circuit(self):
        front = Circuit(2).front_end()
        assert (front.gates, front.predecessors, front.successors) == \
            ((), (), ())
