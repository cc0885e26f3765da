"""Unit tests for the physical model parameter dataclasses."""

from dataclasses import fields, replace
from math import inf, nan

import pytest

from repro.models.params import (
    FidelityParams,
    HeatingParams,
    PhysicalModel,
    ShuttleTimes,
    SingleQubitParams,
)
from repro.models.shuttle_times import TABLE1_ROWS, format_table1, operation_times


class TestShuttleTimes:
    def test_paper_table1_defaults(self):
        times = ShuttleTimes()
        assert times.move_segment == 5.0
        assert times.split == 80.0
        assert times.merge == 80.0
        assert times.cross_y_junction == 100.0
        assert times.cross_x_junction == 120.0

    def test_junction_time_by_degree(self):
        times = ShuttleTimes()
        assert times.junction_time(3) == 100.0
        assert times.junction_time(4) == 120.0
        assert times.junction_time(5) == 120.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShuttleTimes(move_segment=0.0).validate()

    def test_operation_times_rows(self):
        """The five rows of the paper's Table I."""

        rows = operation_times()
        assert len(rows) == len(TABLE1_ROWS) == 5
        assert rows["Move ion through one segment"] == 5.0
        assert rows["Splitting operation on a chain"] == 80.0
        assert rows["Merging an ion with a chain"] == 80.0
        assert rows["Crossing Y-junction"] == 100.0
        assert rows["Crossing X-junction"] == 120.0

    def test_format_table1_mentions_all_rows(self):
        text = format_table1()
        for label, _ in TABLE1_ROWS:
            assert label in text


class TestHeatingParams:
    def test_paper_defaults(self):
        params = HeatingParams()
        assert params.k1 == 0.1
        assert params.k2 == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatingParams(k2=-1.0).validate()


class TestFidelityParams:
    def test_defaults_valid(self):
        FidelityParams().validate()

    def test_invalid_measurement_error(self):
        with pytest.raises(ValueError):
            FidelityParams(measurement_error=1.0).validate()

    def test_invalid_min_fidelity(self):
        with pytest.raises(ValueError):
            FidelityParams(min_fidelity=2.0).validate()


class TestSingleQubitParams:
    def test_defaults_valid(self):
        SingleQubitParams().validate()

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            SingleQubitParams(gate_time=0.0).validate()


class TestPhysicalModel:
    def test_default_bundle_valid(self):
        PhysicalModel().validate()

    def test_frozen(self):
        model = PhysicalModel()
        with pytest.raises(AttributeError):
            model.shuttle = ShuttleTimes()

    def test_nested_validation_propagates(self):
        broken = PhysicalModel(shuttle=ShuttleTimes(split=-1.0))
        with pytest.raises(ValueError):
            broken.validate()

    def test_every_float_field_refuses_nan_and_inf(self):
        """A NaN fails every sign test, so each check also asks for a
        finite value."""

        accepted = []
        for cls in (ShuttleTimes, HeatingParams, FidelityParams,
                    SingleQubitParams):
            for field in fields(cls):
                for value in (nan, inf):
                    try:
                        replace(cls(), **{field.name: value}).validate()
                    except ValueError:
                        continue
                    accepted.append((cls.__name__, field.name, value))
        assert accepted == []
