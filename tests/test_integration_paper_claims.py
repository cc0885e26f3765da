"""Integration tests: the paper's qualitative claims on scaled-down instances.

These tests run the complete toolflow (generator -> compiler -> simulator) on
reduced application instances and check that the qualitative conclusions of
Sections IX and X hold: they are the regression net for "the figures still
have the right shape".  Absolute values are calibration-dependent and are NOT
asserted here; EXPERIMENTS.md records those for the full-scale runs.
"""

from dataclasses import replace

import pytest

from repro.apps import scaled_suite
from repro.compiler.compile import CompilerOptions
from repro.isa.operations import OpKind
from repro.models.params import HeatingParams
from repro.sim.batch import simulate_model_variants
from repro.toolflow import (
    ArchitectureConfig,
    figure6,
    figure7,
    figure8,
    run_experiment,
    run_gate_variants,
)
from repro.toolflow.runner import compile_for
from repro.toolflow.sweep import sweep_capacity

#: The capacity sweep of the scaled-down figures.
CAPACITIES = (6, 8, 10)

#: Figure 6's configuration at this scale (L6 at paper scale).
FIGURE6_BASE = ArchitectureConfig(topology="L4", gate="FM", reorder="GS")


@pytest.fixture(scope="module")
def suite():
    return scaled_suite(16)


@pytest.fixture(scope="module")
def base_config():
    return ArchitectureConfig(topology="L4", trap_capacity=8, gate="FM", reorder="GS")


@pytest.fixture(scope="module")
def records(suite, base_config):
    """One record per application on the reference configuration."""

    return {name: run_experiment(circuit, base_config)
            for name, circuit in suite.items()}


class TestSectionIXTrapSizing:
    def test_communication_light_apps_have_high_fidelity(self, records):
        """BV and Adder stay reliable even on small traps (Figure 6c)."""

        assert records["BV"].fidelity > 0.9
        assert records["Adder"].fidelity > 0.5

    def test_communication_heavy_apps_lose_fidelity(self, records):
        """QFT (all-to-all) loses far more fidelity than BV (Figure 6c vs 6e).

        At this reduced scale both survive, so the claim is checked on the
        error rate rather than on absolute fidelity.
        """

        qft_error = records["QFT"].result.error_rate
        bv_error = records["BV"].result.error_rate
        assert records["QFT"].fidelity < records["BV"].fidelity
        assert qft_error > 5 * bv_error

    def test_small_traps_hurt_communication_heavy_apps(self, suite):
        """Very small traps force more shuttling and lower fidelity (Fig. 6)."""

        tiny = ArchitectureConfig(topology="L4", trap_capacity=6, gate="FM")
        medium = ArchitectureConfig(topology="L4", trap_capacity=12, gate="FM")
        qft_tiny = run_experiment(suite["QFT"], tiny)
        qft_medium = run_experiment(suite["QFT"], medium)
        assert qft_tiny.num_shuttles > qft_medium.num_shuttles
        assert qft_tiny.result.max_motional_energy > qft_medium.result.max_motional_energy

    def test_motional_error_dominates_background(self, suite):
        """Figure 6g: gate error is dominated by the motional term, for
        every application at every capacity of the sweep."""

        for record in sweep_capacity(suite, capacities=CAPACITIES,
                                     base=FIGURE6_BASE):
            assert record.result.mean_motional_error > \
                record.result.mean_background_error

    def test_shuttling_is_the_source_of_heating(self, records):
        """Apps with more shuttles accumulate more motional energy."""

        ordered = sorted(records.values(), key=lambda record: record.num_shuttles)
        assert ordered[0].result.max_motional_energy <= \
            ordered[-1].result.max_motional_energy


class TestFigure6Sweep:
    """Figure 6's trends over the capacity sweep."""

    @pytest.fixture(scope="class")
    def bundle(self, suite):
        return figure6(suite, capacities=CAPACITIES, base=FIGURE6_BASE)

    def test_bv_stays_reliable_and_above_qft(self, bundle):
        """Figure 6c-e: BV is reliable at every capacity, QFT far less."""

        fidelity = bundle["fidelity"]
        assert min(fidelity["BV"]) > 0.9
        assert max(fidelity["QFT"]) < min(fidelity["BV"])

    def test_heating_falls_and_computation_grows_with_capacity(self, bundle):
        """Figures 6b and 6f: larger traps shuttle (and heat) QFT less,
        while its longer FM gates stretch the computation time."""

        energy = bundle["max_motional_energy"]["QFT"]
        assert energy[0] > energy[-1]
        computation = bundle["qft_breakdown"]["computation_s"]
        assert computation[-1] > computation[0]


class TestSectionIXTopology:
    def test_linear_works_for_nearest_neighbour_apps(self, suite):
        """QAOA maps well onto the linear topology (Section IX.B)."""

        linear = run_experiment(suite["QAOA"],
                                ArchitectureConfig(topology="L4", trap_capacity=8))
        grid = run_experiment(suite["QAOA"],
                              ArchitectureConfig(topology="G2x2", trap_capacity=8))
        assert linear.fidelity >= grid.fidelity * 0.5
        assert linear.duration_seconds <= grid.duration_seconds * 1.5

    def test_topology_changes_communication_primitives(self, suite):
        """Grid devices cross junctions; linear devices pass through traps."""

        linear = ArchitectureConfig(topology="L4", trap_capacity=8)
        grid = ArchitectureConfig(topology="G2x2", trap_capacity=8)
        linear_record = run_experiment(suite["SquareRoot"], linear)
        grid_record = run_experiment(suite["SquareRoot"], grid)
        assert linear_record.result.count(OpKind.JUNCTION) == 0
        assert grid_record.result.count(OpKind.JUNCTION) > 0

    def test_each_topology_competitive_where_the_paper_says(self, suite):
        """Figure 7: over the capacity sweep the grid stays competitive
        for SquareRoot (7f) and the linear device for QFT (7e)."""

        bundle = figure7(suite, capacities=CAPACITIES,
                         topologies=("L4", "G2x2"),
                         base=ArchitectureConfig(gate="FM", reorder="GS"))
        squareroot = bundle["fidelity"]["SquareRoot"]
        assert max(grid / linear for grid, linear in
                   zip(squareroot["G2x2"], squareroot["L4"])) > 0.8
        qft = bundle["fidelity"]["QFT"]
        assert max(linear / grid for linear, grid in
                   zip(qft["L4"], qft["G2x2"])) > 0.8
        assert all(value >= 0.0 for series in
                   bundle["squareroot_heating"].values() for value in series)


class TestSectionXMicroarchitecture:
    @pytest.fixture(scope="class")
    def figure8_bundle(self, suite):
        return figure8(suite, capacities=CAPACITIES,
                       base=ArchitectureConfig(topology="L4"))

    def test_gs_never_worse_than_is_across_the_sweep(self, figure8_bundle):
        """Figure 8: GS is at least as reliable as IS for the
        communication-heavy apps, and coincides with it for QAOA."""

        fidelity = figure8_bundle["fidelity"]
        for app in ("QFT", "SquareRoot"):
            assert all(gs >= is_ for gs, is_ in zip(fidelity[app]["FM-GS"],
                                                    fidelity[app]["FM-IS"]))
        assert fidelity["QAOA"]["FM-GS"] == \
            pytest.approx(fidelity["QAOA"]["FM-IS"])

    def test_gate_orderings_hold_across_the_sweep(self, figure8_bundle):
        """Figure 8: FM is at least as reliable as AM1 for QFT, and AM2 at
        least as fast as FM (within 5%) for the nearest-neighbour QAOA."""

        qft = figure8_bundle["fidelity"]["QFT"]
        assert all(fm >= am1 for fm, am1 in zip(qft["FM-GS"], qft["AM1-GS"]))
        qaoa = figure8_bundle["runtime_s"]["QAOA"]
        assert all(am2 <= fm * 1.05
                   for am2, fm in zip(qaoa["AM2-GS"], qaoa["FM-GS"]))

    def test_gs_beats_is_for_communication_heavy_apps(self, suite, base_config):
        """Gate-based swapping is superior to physical ion swapping (Fig. 8)."""

        gs = run_experiment(suite["QFT"], base_config)
        is_ = run_experiment(suite["QFT"], base_config.with_updates(reorder="IS"))
        assert gs.fidelity > is_.fidelity

    def test_gs_and_is_identical_for_qaoa(self, suite, base_config):
        """QAOA needs no reordering, so GS and IS coincide (Figure 8c)."""

        gs = run_experiment(suite["QAOA"], base_config)
        is_ = run_experiment(suite["QAOA"], base_config.with_updates(reorder="IS"))
        assert gs.fidelity == pytest.approx(is_.fidelity)
        assert gs.duration_seconds == pytest.approx(is_.duration_seconds)

    def test_fm_beats_am1_for_long_range_apps(self, suite, base_config):
        """FM (distance-independent) wins for QFT's long-range gates."""

        variants = run_gate_variants(suite["QFT"], base_config, gates=("AM1", "FM"))
        assert variants["FM"].fidelity > variants["AM1"].fidelity
        assert variants["FM"].duration_seconds < variants["AM1"].duration_seconds

    def test_am2_competitive_for_nearest_neighbour_apps(self, suite, base_config):
        """AM2's fast short-range gates suit QAOA (Section X.A)."""

        variants = run_gate_variants(suite["QAOA"], base_config, gates=("AM2", "FM"))
        assert variants["AM2"].duration_seconds < variants["FM"].duration_seconds
        assert variants["AM2"].fidelity >= variants["FM"].fidelity * 0.8

    def test_gate_choice_does_not_change_program(self, suite, base_config):
        variants = run_gate_variants(suite["Supremacy"], base_config)
        sizes = {record.program_size for record in variants.values()}
        assert len(sizes) == 1


class TestAblations:
    """The design choices the paper leaves open, on L6 with 8-ion traps."""

    def test_fidelity_falls_as_heating_rates_grow(self, suite):
        """Shuttle heating constants at 0.1x, 1x and 10x the paper's
        (SquareRoot): fidelity never improves as they grow."""

        program, device = compile_for(
            suite["SquareRoot"], ArchitectureConfig(topology="L6",
                                                    trap_capacity=8))
        base = device.model.heating
        models = [replace(device.model, heating=HeatingParams(
            k1=base.k1 * scale, k2=base.k2 * scale,
            k_junction=base.k_junction * scale,
            background_rate=base.background_rate))
            for scale in (0.1, 1.0, 10.0)]
        fidelities = [result.fidelity for result in
                      simulate_model_variants(program, device, models)]
        assert fidelities == sorted(fidelities, reverse=True)

    def test_every_buffer_size_compiles_and_runs(self, suite):
        """The ions each trap keeps free for incoming shuttles (the paper
        reserves 2) at 1, 2 and 4 (QFT)."""

        for buffer_ions in (1, 2, 4):
            config = ArchitectureConfig(topology="L6", trap_capacity=8,
                                        buffer_ions=buffer_ions)
            assert run_experiment(suite["QFT"], config).result.duration > 0.0

    def test_greedy_mapping_beats_round_robin(self, suite):
        """The paper's locality-aware mapping needs fewer shuttles than a
        deliberately locality-free one (Supremacy)."""

        config = ArchitectureConfig(topology="L6", trap_capacity=8)
        greedy, scattered = (
            compile_for(suite["Supremacy"], config,
                        CompilerOptions(mapping=name))[0]
            for name in ("greedy", "round_robin"))
        assert greedy.num_shuttles < scattered.num_shuttles


class TestEndToEndConsistency:
    def test_records_expose_consistent_metrics(self, records):
        for record in records.values():
            result = record.result
            assert result.duration >= result.computation_time
            assert result.duration == pytest.approx(
                result.computation_time + result.communication_time)
            assert result.num_shuttles == record.num_shuttles
            assert 0.0 <= result.fidelity <= 1.0

    def test_every_application_compiles_and_runs(self, records, suite):
        assert set(records) == set(suite)
        for name, record in records.items():
            assert record.result.count(OpKind.GATE_2Q) == suite[name].num_two_qubit_gates
