"""Simulator correctness: bit-identity to the seed reference engine.

The simulator (:mod:`repro.sim.batch`) shares one lowered plan, one
timeline walk per distinct duration vector and one heating trajectory per
heating-constant vector across a whole axis of device variants; single-point
:func:`repro.sim.engine.simulate` is a one-variant evaluation of the same
plan.  Its correctness contract is that every result is **bit-identical** to
the seed three-pass engine that generated the goldens (``seed_engine.py``,
next to these tests) -- these tests pin that contract over the full
application suite, both reorder methods, all four gate implementations, the
ablation parameter grids and the per-operation timeline, plus the
cache/dedup behaviour the speedup relies on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import seed_engine
from repro.apps.suite import scaled_suite
from repro.io.fingerprint import result_fingerprint
from repro.models.params import FidelityParams, HeatingParams
from repro.sim.batch import (
    BatchPlan,
    batch_plan,
    simulate_batch,
    simulate_gate_variants,
    simulate_model_variants,
)
from repro.sim.engine import simulate
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

APPS = ("QFT", "QAOA", "BV", "Adder", "SquareRoot", "Supremacy")
GATES = ("AM1", "AM2", "PM", "FM")
REORDERS = ("GS", "IS")
#: Heating-constant scales of the heating ablation.
HEATING_SCALES = (0.1, 1.0, 10.0)


@pytest.fixture(scope="module")
def compiled():
    """``(app, reorder) -> (program, device)`` over the full suite."""

    suite = scaled_suite(8)
    programs = {}
    for reorder in REORDERS:
        config = ArchitectureConfig(topology="L3", trap_capacity=6,
                                    reorder=reorder)
        for app in APPS:
            programs[app, reorder] = compile_for(suite[app], config)
    return programs


def assert_identical(reference, result, device):
    """Bit-identity of every metric, including dict insertion orders.

    Per-trap dicts are keyed in the topology's trap order by the reference
    and the simulator alike; op counts in first-seen kind order.
    """

    assert result_fingerprint(reference) == result_fingerprint(result)
    traps = [trap.name for trap in device.topology.traps]
    for field in ("final_trap_energies", "peak_occupancy",
                  "trap_gate_busy_time", "trap_comm_busy_time"):
        assert list(getattr(reference, field)) == traps
        assert list(getattr(reference, field).items()) == \
               list(getattr(result, field).items())
    assert list(reference.op_counts.items()) == list(result.op_counts.items())


def timeline_hex(result):
    """Every timeline record with its floats rendered exactly."""

    return [(record.op_id, record.kind, record.start.hex(),
             record.finish.hex(), record.fidelity.hex())
            for record in result.timeline]


def heating_grid(model):
    """The heating ablation's variants: k1, k2 and k_junction scaled."""

    models = []
    for scale in HEATING_SCALES:
        base = model.heating
        heating = HeatingParams(k1=base.k1 * scale, k2=base.k2 * scale,
                                k_junction=base.k_junction * scale,
                                background_rate=base.background_rate)
        models.append(replace(model, heating=heating))
    return models


def fidelity_grid(model):
    """Fidelity-parameter variants, including ones sharing every duration."""

    base = model.fidelity
    return [
        replace(model, fidelity=replace(base, background_heating_rate=2e-6)),
        replace(model, fidelity=replace(base, laser_instability_prefactor=6e-5)),
        replace(model, fidelity=replace(base, single_qubit_error=1e-3,
                                        measurement_error=1e-2)),
        replace(model, fidelity=replace(base, min_fidelity=0.5)),
        # Background rate feeds gate noise only, never durations or the
        # k1/k2 trajectory -- the cheapest possible batch variant.
        replace(model, heating=replace(model.heating, background_rate=4e-3)),
    ]


class TestGateVariantIdentity:
    @pytest.mark.parametrize("reorder", REORDERS)
    @pytest.mark.parametrize("app", APPS)
    def test_gate_fanout_bit_identical(self, compiled, app, reorder):
        program, device = compiled[app, reorder]
        batched = simulate_gate_variants(program, device, GATES)
        for gate, result in zip(GATES, batched):
            variant = device.with_gate(gate)
            reference = seed_engine.simulate(program, variant)
            assert_identical(reference, result, device)
            assert_identical(reference, simulate(program, variant), device)

    def test_without_breakdown(self, compiled):
        program, device = compiled["QFT", "GS"]
        variants = [device.with_gate(g) for g in GATES]
        batched = simulate_batch(program, variants, with_breakdown=False)
        for variant, result in zip(variants, batched):
            reference = seed_engine.simulate(program, variant,
                                             with_breakdown=False)
            assert_identical(reference, result, device)
            assert_identical(reference, simulate(program, variant,
                                                 with_breakdown=False), device)
            assert result.communication_time == 0.0
            assert result.computation_time == result.duration


class TestModelVariantIdentity:
    @pytest.mark.parametrize("app", APPS)
    def test_ablation_grids_bit_identical(self, compiled, app):
        program, device = compiled[app, "GS"]
        models = heating_grid(device.model) + fidelity_grid(device.model)
        batched = simulate_model_variants(program, device, models)
        for model, result in zip(models, batched):
            variant = replace(device, model=model, name="")
            assert_identical(seed_engine.simulate(program, variant), result,
                             device)

    def test_mixed_gate_and_model_axis(self, compiled):
        """One batch may mix gate and physical-model variation freely."""

        program, device = compiled["Adder", "IS"]
        devices = []
        for gate in ("AM1", "FM"):
            for model in heating_grid(device.model):
                devices.append(replace(device, gate=device.with_gate(gate).gate,
                                       model=model, name=""))
        batched = simulate_batch(program, devices)
        for variant, result in zip(devices, batched):
            assert_identical(seed_engine.simulate(program, variant), result,
                             device)

    def test_zero_fidelity_edge(self, compiled):
        """A variant whose gate errors exceed 1 clamps to the 0-fidelity
        floor and drives the accumulated log-fidelity to -inf."""

        program, device = compiled["BV", "GS"]
        dead = replace(device.model, fidelity=FidelityParams(
            laser_instability_prefactor=1.0, min_fidelity=0.0))
        models = [device.model, dead]
        batched = simulate_model_variants(program, device, models)
        for model, result in zip(models, batched):
            variant = replace(device, model=model, name="")
            assert_identical(seed_engine.simulate(program, variant), result,
                             device)
        assert batched[1].log_fidelity == float("-inf")
        assert batched[1].fidelity == 0.0

    def test_invalid_heating_params_raise_like_serial(self, compiled):
        program, device = compiled["QFT", "GS"]
        bad = replace(device.model,
                      heating=HeatingParams(background_rate=-1.0))
        with pytest.raises(ValueError):
            seed_engine.simulate(program, replace(device, model=bad, name=""))
        # Even when the trajectory/timeline would come from a cache, every
        # variant's parameters must be validated.
        simulate_model_variants(program, device, [device.model])
        with pytest.raises(ValueError):
            simulate_model_variants(program, device, [bad])
        with pytest.raises(ValueError):
            simulate(program, replace(device, model=bad, name=""))


    @pytest.mark.parametrize("part, change", [
        ("shuttle", {"move_segment": -5.0}),
        ("shuttle", {"split": 0.0}),
        ("single_qubit", {"gate_time": -1.0}),
        ("single_qubit", {"measurement_time": 0.0}),
    ])
    def test_non_positive_durations_raise_like_device_construction(
            self, compiled, part, change):
        """The timeline walk assumes positive durations, so a model with a
        non-positive shuttle or single-qubit time is refused, as building a
        device with it is."""

        program, device = compiled["QFT", "GS"]
        bad = replace(device.model, **{
            part: replace(getattr(device.model, part), **change)})
        with pytest.raises(ValueError, match="must be positive"):
            replace(device, model=bad, name="")
        with pytest.raises(ValueError, match="must be positive"):
            simulate_model_variants(program, device, [bad])
        [result] = simulate_model_variants(program, device, [device.model])
        assert_identical(seed_engine.simulate(program, device), result, device)


    def test_nan_shuttle_time_is_refused(self):
        """A NaN segment time once passed validation, and the 16-qubit QFT
        then reported a computation time longer than its makespan."""

        program, device = compile_for(
            scaled_suite(16)["QFT"],
            ArchitectureConfig(topology="L4", trap_capacity=6))
        bad = replace(device.model, shuttle=replace(
            device.model.shuttle, move_segment=float("nan")))
        with pytest.raises(ValueError, match="move_segment must be positive"):
            simulate_model_variants(program, device, [bad])


class TestTimelineIdentity:
    @pytest.mark.parametrize("reorder", REORDERS)
    @pytest.mark.parametrize("app", APPS)
    def test_timeline_bit_identical(self, compiled, app, reorder):
        """``keep_timeline`` records match the reference record for record."""

        program, device = compiled[app, reorder]
        for gate in GATES:
            variant = device.with_gate(gate)
            reference = seed_engine.simulate(program, variant,
                                             keep_timeline=True)
            result = simulate(program, variant, keep_timeline=True)
            assert_identical(reference, result, device)
            assert len(result.timeline) == len(program)
            assert timeline_hex(result) == timeline_hex(reference)


class TestPlanCaching:
    @pytest.mark.parametrize("reorder", REORDERS)
    def test_slot_values_gather_to_the_seed_durations(self, compiled,
                                                       reorder):
        """What a plan keeps per variant, one value per slot key, gives
        every op the seed engine's duration, bit for bit."""

        for app in APPS:
            program, device = compiled[app, reorder]
            lowered = batch_plan(program).lowered
            for gate in GATES:
                variant = device.with_gate(gate)
                expected = [value.hex() for value in
                            seed_engine._operation_durations(program, variant)]
                values = lowered.slot_values(variant.gate, variant.model)
                assert len(values) == len(lowered.slot_keys)
                assert [values[slot].hex() for slot in lowered.slots] == \
                    expected, (app, gate)
                assert [value.hex() for value in lowered.durations(
                    variant.gate, variant.model)] == expected, (app, gate)

    def test_plan_cached_on_program(self, compiled):
        program, device = compiled["QFT", "GS"]
        plan_a = batch_plan(program)
        plan_b = batch_plan(program)
        assert plan_a is plan_b
        assert plan_a is program._batch_plan

    def test_stats_accumulation(self, compiled):
        program, device = compiled["QAOA", "GS"]
        program = replace(program)  # fresh program object, no cached plan
        stats = {}
        simulate_gate_variants(program, device, GATES, stats=stats)
        assert stats["plans"] == 1
        assert stats["plan_reuses"] == 0
        assert stats["variants"] == len(GATES)
        assert stats["timelines"] + stats["timeline_hits"] == len(GATES)
        simulate_gate_variants(program, device, GATES, stats=stats)
        assert stats["plans"] == 1
        assert stats["plan_reuses"] == 1
        assert stats["variants"] == 2 * len(GATES)
        # Second pass reuses every timeline through the parameter-slot memo.
        assert stats["timeline_hits"] >= len(GATES)

    def test_fidelity_only_variants_share_one_timeline(self, compiled):
        program, device = compiled["QFT", "IS"]
        program = replace(program)
        models = [device.model] + fidelity_grid(device.model)
        stats = {}
        simulate_model_variants(program, device, models, stats=stats)
        # All variants share the gate/shuttle/single-qubit parameters, hence
        # one duration vector: one walk, the rest dedup hits.
        assert stats["timelines"] == 1
        assert stats["timeline_hits"] == len(models) - 1

    def test_duration_vector_collision_dedups(self, compiled):
        """Slot-value vectors that give every op the same duration map to
        the same timeline object, whatever the slots no op uses hold."""

        program, device = compiled["QAOA", "GS"]
        plan = BatchPlan(program)
        trap_names = tuple(t.name for t in device.topology.traps)
        values = [1.0] * len(plan.lowered.slot_keys)
        first = plan.timeline_for(values, trap_names)
        second = plan.timeline_for(list(values), trap_names)
        assert first is second
        unused = sorted(set(range(len(values))) - set(plan.lowered.slots))
        assert unused  # a GS program has no ion-swap op
        for slot in unused:
            bumped = list(values)
            bumped[slot] += 1.0
            assert plan.timeline_for(bumped, trap_names) is first
        assert plan.timelines_built == 1

    def test_empty_device_list(self, compiled):
        program, _ = compiled["BV", "GS"]
        assert simulate_batch(program, []) == []

    def test_topology_mismatch_rejected(self, compiled):
        program, device = compiled["QFT", "GS"]
        config = ArchitectureConfig(topology="L4", trap_capacity=6)
        other_device = config.build_device(8)
        with pytest.raises(ValueError):
            simulate_batch(program, [device, other_device])


class TestTimelineDedupProperty:
    """Random slot-value collisions always dedup to one timeline."""

    def test_random_collisions_dedup(self, compiled):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (hypothesis.given, hypothesis.settings,
                               hypothesis.strategies)

        program, device = compiled["Adder", "GS"]
        trap_names = tuple(t.name for t in device.topology.traps)
        lowered = batch_plan(program).lowered
        num_slots = len(lowered.slot_keys)
        used = sorted(set(lowered.slots))
        unused = sorted(set(range(num_slots)) - set(used))
        assert used and unused

        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                                  allow_nan=False, width=32),
                        min_size=num_slots, max_size=num_slots),
               st.integers(min_value=2, max_value=5),
               st.sampled_from(used))
        def check(values, repeats, slot):
            plan = BatchPlan(program)  # fresh caches per example
            timelines = {plan.timeline_for(list(values), trap_names)
                         for _ in range(repeats)}
            assert len(timelines) == 1
            assert plan.timelines_built == 1
            assert plan.timeline_hits == repeats - 1
            # Changing a slot no op uses changes no duration: same timeline.
            for other in unused:
                bumped = list(values)
                bumped[other] += 1.0
                assert plan.timeline_for(bumped, trap_names) in timelines
            assert plan.timelines_built == 1
            # A vector perturbed in a slot some op uses must not collide
            # with the original.
            bumped = list(values)
            bumped[slot] += 1.0
            assert plan.timeline_for(bumped, trap_names) not in timelines

        check()
