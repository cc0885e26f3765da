"""Unit tests for traps, segments and junctions."""

from dataclasses import replace

import pytest

from repro.hardware.junction import Junction
from repro.hardware.segment import Segment
from repro.hardware.trap import Trap


class TestTrap:
    def test_default_name(self):
        assert Trap(3, 10).name == "T3"

    def test_custom_name(self):
        assert Trap(0, 10, name="left").name == "left"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Trap(0, 1)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Trap(-1, 10)

    def test_usable_capacity(self):
        trap = Trap(0, 20)
        assert trap.usable_capacity(2) == 18
        assert trap.usable_capacity(0) == 20

    def test_usable_capacity_floor_at_zero(self):
        assert Trap(0, 3).usable_capacity(10) == 0

    def test_usable_capacity_rejects_negative_buffer(self):
        with pytest.raises(ValueError):
            Trap(0, 10).usable_capacity(-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Trap(0, 10).capacity = 5


class TestSegment:
    def test_name(self):
        assert Segment(4, "T0", "T1").name == "S4"

    def test_name_is_one_string_set_at_construction(self):
        """Every read returns the same object, so the move records through
        a segment share one name; repr and equality ignore it."""

        segment = Segment(4, "T0", "T1", length=2)
        assert segment.name is segment.name
        assert repr(segment) == ("Segment(segment_id=4, endpoint_a='T0', "
                                 "endpoint_b='T1', length=2)")
        assert segment == Segment(4, "T0", "T1", length=2)
        assert replace(segment, segment_id=7).name == "S7"

    def test_other_end(self):
        segment = Segment(0, "T0", "J1")
        assert segment.other_end("T0") == "J1"
        assert segment.other_end("J1") == "T0"

    def test_other_end_unknown_node(self):
        with pytest.raises(ValueError):
            Segment(0, "T0", "T1").other_end("T9")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Segment(0, "T0", "T0")

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Segment(0, "T0", "T1", length=0)


class TestJunction:
    def test_default_name(self):
        assert Junction(2, 3).name == "J2"

    def test_kind_by_degree(self):
        assert Junction(0, 3).kind == "Y"
        assert Junction(0, 4).kind == "X"
        assert Junction(0, 5).kind == "X"

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            Junction(0, 1)

    def test_position_stored(self):
        assert Junction(0, 3, position=(1.0, 0.5)).position == (1.0, 0.5)
