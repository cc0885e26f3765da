"""Static analysis: verifier, race detector, determinism linter, runtime.

The backbone is the mutation corpus: every legality rule the verifier
enforces is exercised by corrupting a *golden* compiled program and
asserting the matching check id fires.  A corruption picks an op by seed
and builds a new program around ``dataclasses.replace(op, ...)``
(:func:`_corrupt`), so the corrupted op is in the program's records and the
verifier, the race detector and the lowering all see it -- the route a
compiler bug emitting a bad op would take.  The clean-suite test is the flip side: zero findings across the
full app suite under both reorder modes and both topology families.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest

from repro.analyze import (
    CHECKS,
    Report,
    StaticAnalysisError,
    check_severity,
    checks_enabled,
    detect_races,
    diag,
    enable_checks,
    lint_paths,
    lint_source,
    merge_reports,
    quick_validate,
    reset_checks,
    verify_or_raise,
    verify_program,
)
from repro.apps import scaled_suite
from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.io import program_from_dict, program_to_dict
from repro.isa.operations import GateOp, MeasureOp, MergeOp, MoveOp, SplitOp
from repro.isa.program import InitialPlacement, QCCDProgram
from repro.obs.metrics import registry, reset_registry
from repro.sim.lower import lower


@pytest.fixture(autouse=True)
def _clean_check_flag():
    """Keep the REPRO_CHECK flag from leaking between tests."""

    saved = os.environ.pop("REPRO_CHECK", None)
    reset_checks()
    yield
    if saved is None:
        os.environ.pop("REPRO_CHECK", None)
    else:
        os.environ["REPRO_CHECK"] = saved
    reset_checks()


def _compile(circuit, topology="L3", capacity=6, reorder="GS"):
    device = build_device(topology, trap_capacity=capacity, gate="FM",
                          reorder=reorder, num_qubits=circuit.num_qubits)
    return compile_circuit(circuit, device), device


def _check_ids(report: Report):
    return set(report.by_check())


# --------------------------------------------------------------------------- #
# Clean suite: zero findings on every golden compile
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("topology", ["L4", "G2x2"])
@pytest.mark.parametrize("reorder", ["GS", "IS"])
def test_clean_suite_has_zero_findings(topology, reorder):
    for name, circuit in scaled_suite(16).items():
        program, device = _compile(circuit, topology=topology,
                                   capacity=6, reorder=reorder)
        verdict = verify_program(program, device)
        assert len(verdict) == 0, \
            f"{name}/{topology}/{reorder}: {verdict.format()}"
        races = detect_races(program)
        assert len(races) == 0, \
            f"{name}/{topology}/{reorder}: {races.format()}"


def test_verifier_without_device_notes_reduced_scope(compiled_qft8):
    program, _ = compiled_qft8
    report = verify_program(program)
    assert report.ok
    assert _check_ids(report) == {"QV000"}
    assert report.count("info") == 1


# --------------------------------------------------------------------------- #
# Mutation corpus: every corruption class is caught
# --------------------------------------------------------------------------- #
def _fresh(qubits=8, topology="L3", capacity=6, reorder="GS"):
    from repro.apps import qft_circuit

    return _compile(qft_circuit(qubits), topology=topology,
                    capacity=capacity, reorder=reorder)


def _pick(rng, program, op_type, predicate=lambda op: True):
    candidates = [op for op in program.operations
                  if isinstance(op, op_type) and predicate(op)]
    assert candidates, f"no {op_type.__name__} in the program"
    return candidates[rng.randrange(len(candidates))]


def _corrupt(program, op, **changes):
    """A new program: ``program`` with ``op`` replaced by
    ``dataclasses.replace(op, **changes)``."""

    operations = [dataclasses.replace(op, **changes) if candidate is op
                  else candidate for candidate in program.operations]
    return dataclasses.replace(program, operations=operations)


def test_mutation_capacity_overflow_flags_qv001():
    program, device = _fresh()
    trap = next(iter(program.placement.trap_chains))
    chain = program.placement.trap_chains[trap]
    extra = tuple(range(900, 900 + 7 - len(chain)))
    program.placement.trap_chains[trap] = chain + extra
    for ion in extra:
        program.placement.ion_to_trap[ion] = trap
    report = verify_program(program, device)
    assert "QV001" in _check_ids(report)
    assert not report.ok


def test_mutation_dropped_chain_ion_flags_qv002():
    program, device = _fresh()
    trap = next(iter(program.placement.trap_chains))
    program.placement.trap_chains[trap] = \
        program.placement.trap_chains[trap][:-1]
    report = verify_program(program, device)
    assert "QV002" in _check_ids(report)


def test_mutation_unmerged_transit_ion_flags_qv002():
    program, device = _fresh()
    rng = random.Random(2201)
    merge = _pick(rng, program, MergeOp)
    operations = [op for op in program.operations if op is not merge]
    # Renumber densely, remapping dependencies past the removed op.
    removed = merge.op_id
    remap = {}
    rebuilt = []
    for index, op in enumerate(operations):
        remap[op.op_id] = index
        deps = tuple(sorted(remap[d] for d in op.dependencies
                            if d != removed))
        rebuilt.append(dataclasses.replace(op, op_id=index,
                                           dependencies=deps))
    mutated = QCCDProgram(operations=rebuilt, placement=program.placement,
                          circuit_name=program.circuit_name,
                          device_name=program.device_name)
    report = verify_program(mutated, device)
    assert "QV002" in _check_ids(report)


def test_mutation_gate_trap_corruption_flags_qv003():
    program, device = _fresh()
    rng = random.Random(17)
    gate = _pick(rng, program, GateOp)
    other = next(t.name for t in device.topology.traps if t.name != gate.trap)
    program = _corrupt(program, gate, trap=other)
    report = verify_program(program, device)
    assert "QV003" in _check_ids(report)


def test_mutation_chain_length_annotation_flags_qv004():
    program, device = _fresh()
    rng = random.Random(23)
    gate = _pick(rng, program, GateOp)
    program = _corrupt(program, gate, chain_length=gate.chain_length + 1)
    report = verify_program(program, device)
    assert "QV004" in _check_ids(report)


def test_mutation_split_side_annotation_flags_qv004():
    program, device = _fresh()
    rng = random.Random(29)
    split = _pick(rng, program, SplitOp)
    program = _corrupt(program, split,
                       side="tail" if split.side == "head" else "head")
    report = verify_program(program, device)
    assert "QV004" in _check_ids(report)


def test_mutation_qubit_binding_swap_flags_qv005():
    program, device = _fresh()
    mapping = program.placement.qubit_to_ion
    qubits = sorted(mapping)
    mapping[qubits[0]], mapping[qubits[1]] = \
        mapping[qubits[1]], mapping[qubits[0]]
    report = verify_program(program, device)
    assert "QV005" in _check_ids(report)


def test_mutation_dropped_move_dependency_flags_qv006():
    program, device = _fresh()
    rng = random.Random(31)
    move = _pick(rng, program, MoveOp, lambda op: op.dependencies)
    program = _corrupt(program, move, dependencies=())
    report = verify_program(program, device)
    assert "QV006" in _check_ids(report)


def test_mutation_move_route_corruption_flags_qv007():
    program, device = _fresh(topology="G2x2")
    rng = random.Random(37)
    move = _pick(rng, program, MoveOp)
    nodes = {t.name for t in device.topology.traps}
    bogus = next(name for name in sorted(nodes)
                 if name not in (move.from_node, move.to_node))
    program = _corrupt(program, move, to_node=bogus)
    report = verify_program(program, device)
    assert not report.ok
    assert _check_ids(report) & {"QV007", "QV002"}


def test_mutation_merge_into_junction_flags_qv007():
    # The ion's last move and its merge both name a junction: the replay
    # reports the merge target as an unknown trap instead of asking the
    # topology for a junction's port side.
    program, device = _fresh(topology="G2x2")
    merge = _pick(random.Random(47), program, MergeOp)
    move = [op for op in program.operations if isinstance(op, MoveOp)
            and op.ion == merge.ion and op.op_id < merge.op_id][-1]
    junction = device.topology.junctions[0].name
    operations = [dataclasses.replace(op, to_node=junction) if op is move
                  else dataclasses.replace(op, trap=junction) if op is merge
                  else op for op in program.operations]
    program = dataclasses.replace(program, operations=operations)
    report = verify_program(program, device)
    assert not report.ok
    assert any(d.check_id == "QV007" and "unknown trap" in d.message
               for d in report)


def test_mutation_dropped_gate_dependency_flags_race():
    program, device = _fresh()
    rng = random.Random(41)
    gate = _pick(rng, program, GateOp,
                 lambda op: len(op.ions) == 2 and op.dependencies)
    program = _corrupt(program, gate, dependencies=())
    races = detect_races(program)
    assert "RC001" in _check_ids(races)
    finding = next(d for d in races if d.check_id == "RC001")
    assert "op" in finding.message and finding.hint


def test_mutation_corrupted_predecessors_flag_rc002_rc003():
    program, _ = _fresh()
    merged = list(lower(program).preds)
    rng = random.Random(43)
    victims = [i for i, preds in enumerate(merged) if preds != ()]
    victim = victims[rng.randrange(len(victims))]
    merged[victim] = ()
    races = detect_races(program, predecessors=merged)
    ids = _check_ids(races)
    assert "RC002" in ids or "RC003" in ids
    if program.operations[victim].dependencies:
        assert "RC003" in ids


# --------------------------------------------------------------------------- #
# Race detector units on hand-built programs
# --------------------------------------------------------------------------- #
def _two_gate_program(with_dep: bool) -> QCCDProgram:
    placement = InitialPlacement(
        qubit_to_ion={0: 0, 1: 1}, ion_to_trap={0: "T0", 1: "T0"},
        trap_chains={"T0": (0, 1)})
    deps = (0,) if with_dep else ()
    operations = [
        GateOp(op_id=0, trap="T0", ions=(0,), qubits=(0,), name="rz",
               chain_length=2),
        GateOp(op_id=1, dependencies=deps, trap="T0", ions=(1,), qubits=(1,),
               name="rz", chain_length=2),
    ]
    return QCCDProgram(operations=operations, placement=placement)


def test_rc001_fires_on_missing_trap_dependency():
    races = detect_races(_two_gate_program(with_dep=False))
    assert _check_ids(races) == {"RC001"}


def test_rc001_silent_with_trap_dependency():
    assert len(detect_races(_two_gate_program(with_dep=True))) == 0


def test_rc003_fires_when_schedule_drops_a_declared_dep():
    program = _two_gate_program(with_dep=True)
    races = detect_races(program, predecessors=[(), ()])
    assert "RC003" in _check_ids(races)


def test_race_detector_rejects_bad_duration_vector():
    with pytest.raises(ValueError):
        detect_races(_two_gate_program(True), durations=[1.0])


# --------------------------------------------------------------------------- #
# Verifier structural behaviour
# --------------------------------------------------------------------------- #
def test_quick_validate_preserves_legacy_unknown_ion_error(compiled_qft8):
    program, _ = compiled_qft8
    rng = random.Random(47)
    gate = _pick(rng, program, GateOp, lambda op: len(op.ions) == 1)
    program = _corrupt(program, gate, ions=(999,))
    with pytest.raises(ValueError, match="references unknown ion 999"):
        program.validate()


def test_quick_validate_is_a_report_subset(compiled_qft8):
    program, _ = compiled_qft8
    report = quick_validate(program)
    assert report.ok and len(report) == 0


def test_program_round_trip_then_verify(compiled_qft8, tmp_path):
    program, device = compiled_qft8
    payload = json.loads(json.dumps(program_to_dict(program)))
    rebuilt = program_from_dict(payload)
    assert program_to_dict(rebuilt) == program_to_dict(program)
    assert verify_program(rebuilt, device).ok


def test_program_from_dict_rejects_unknown_kind(compiled_qft8):
    program, _ = compiled_qft8
    payload = program_to_dict(program)
    payload["operations"][0]["kind"] = "teleport"
    with pytest.raises(ValueError, match="unknown operation kind"):
        program_from_dict(payload)


def test_program_from_dict_rejects_kind_contradicting_fields(compiled_qft8):
    program, _ = compiled_qft8
    payload = program_to_dict(program)
    position = next(index for index, entry
                    in enumerate(payload["operations"])
                    if entry["kind"] == "gate_2q")
    payload["operations"][position]["kind"] = "gate_1q"
    with pytest.raises(ValueError, match=f"operation {position} is tagged "
                                         f"'gate_1q' but its fields make it "
                                         f"'gate_2q'"):
        program_from_dict(payload)


def test_program_from_dict_rejects_wrong_operation_count(compiled_qft8):
    program, _ = compiled_qft8
    payload = program_to_dict(program)
    payload["num_operations"] = 3
    with pytest.raises(ValueError, match=f"num_operations is 3 but "
                                         f"{len(program)} operations"):
        program_from_dict(payload)


# --------------------------------------------------------------------------- #
# Determinism linter
# --------------------------------------------------------------------------- #
def test_lint_src_repro_is_clean():
    """The CI gate: the shipped package carries zero linter findings."""

    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    report = lint_paths([os.path.normpath(root)])
    assert report.ok and len(report) == 0, report.format()


def test_dt001_flags_module_level_random():
    report = lint_source("import random\nx = random.random()\n", "m.py")
    assert _check_ids(report) == {"DT001"}


def test_dt001_flags_unseeded_constructor_but_not_seeded():
    flagged = lint_source("import random\nr = random.Random()\n", "m.py")
    assert _check_ids(flagged) == {"DT001"}
    clean = lint_source("import random\nr = random.Random(7)\n", "m.py")
    assert len(clean) == 0


def test_dt001_resolves_import_aliases():
    report = lint_source(
        "import random as rnd\nfrom random import shuffle\n"
        "rnd.shuffle([1])\nshuffle([1])\n", "m.py")
    assert report.count("error") == 2


def test_dt002_flags_wall_clock_outside_clock_abstraction():
    report = lint_source("import time\nt = time.time()\n", "m.py")
    assert _check_ids(report) == {"DT002"}
    report = lint_source(
        "from datetime import datetime\nd = datetime.now()\n", "m.py")
    assert _check_ids(report) == {"DT002"}


def test_dt002_exempts_obs_and_lease_clock():
    source = "import time\nt = time.time()\n"
    assert len(lint_source(source, "src/repro/obs/trace.py")) == 0
    clock = ("import time\n"
             "class LeaseClock:\n"
             "    def now(self):\n"
             "        return time.time()\n")
    assert len(lint_source(clock, "m.py")) == 0


def test_dt003_flags_set_iteration_sites():
    looped = lint_source("s = {1, 2}\nfor x in s:\n    pass\n", "m.py")
    assert _check_ids(looped) == {"DT003"}
    comp = lint_source("s = set()\nd = {x: 0 for x in s}\n", "m.py")
    assert _check_ids(comp) == {"DT003"}
    direct = lint_source("d = [x for x in set([1, 2])]\n", "m.py")
    assert _check_ids(direct) == {"DT003"}


def test_dt003_allows_order_insensitive_consumers():
    clean = lint_source(
        "s = {1, 2}\n"
        "a = sorted(s)\n"
        "b = min(q for q in s if q)\n"
        "c = 1 in s\n"
        "n = len(s)\n"
        "for x in sorted(s):\n    pass\n", "m.py")
    assert len(clean) == 0


def test_dt003_reassignment_clears_tracking():
    clean = lint_source("s = {1}\ns = [1]\nfor x in s:\n    pass\n", "m.py")
    assert len(clean) == 0


def test_dt004_requires_schema_version_in_serialization():
    source = ("def result_to_dict(r):\n"
              "    return {'fidelity': r.fidelity}\n")
    report = lint_source(source, "src/repro/io/serialization.py")
    assert _check_ids(report) == {"DT004"}
    assert len(lint_source(source, "src/repro/other/module.py")) == 0
    stamped = ("def result_to_dict(r):\n"
               "    return {'schema_version': 3}\n")
    assert len(lint_source(stamped,
                           "src/repro/io/serialization.py")) == 0


def test_dt005_flags_off_convention_span_names():
    report = lint_source(
        "from repro.obs.trace import span\n"
        "with span('Compile-Stage'):\n    pass\n", "m.py")
    assert _check_ids(report) == {"DT005"}
    assert check_severity("DT005") == "warning"
    assert report.ok  # warnings do not fail a check
    clean = lint_source(
        "from repro.obs.trace import span\n"
        "with span('check.verify'):\n    pass\n", "m.py")
    assert len(clean) == 0


def test_suppression_comment_disables_a_check():
    suppressed = lint_source(
        "import time\n"
        "t = time.time()  # repro: allow DT002\n", "m.py")
    assert len(suppressed) == 0
    line_above = lint_source(
        "import time\n"
        "# repro: allow DT002\n"
        "t = time.time()\n", "m.py")
    assert len(line_above) == 0
    wrong_id = lint_source(
        "import time\n"
        "t = time.time()  # repro: allow DT003\n", "m.py")
    assert _check_ids(wrong_id) == {"DT002"}


def test_lint_reports_syntax_errors_instead_of_crashing():
    report = lint_source("def broken(:\n", "m.py")
    assert not report.ok


# --------------------------------------------------------------------------- #
# Diagnostics plumbing
# --------------------------------------------------------------------------- #
def test_catalogue_covers_every_emitted_check_id():
    assert set(CHECKS) >= {"QV001", "RC001", "DT001"}
    for check_id, (title, severity, _rule) in CHECKS.items():
        assert severity in ("error", "warning", "info")
        assert check_severity(check_id) == severity
        assert title


def test_report_formatting_orders_errors_first():
    report = Report()
    report.add(diag("QV000", "scope note"))
    report.add(diag("QV001", "too many ions", location="op 3", hint="split"))
    text = report.format()
    assert text.index("QV001") < text.index("QV000")
    assert "1 error(s)" in text
    merged = merge_reports([report, Report()])
    assert len(merged) == 2
    payload = merged.to_dict()
    assert payload["ok"] is False
    assert payload["by_check"] == {"QV000": 1, "QV001": 1}


# --------------------------------------------------------------------------- #
# Runtime wiring
# --------------------------------------------------------------------------- #
def test_checks_disabled_by_default():
    assert not checks_enabled()


def test_enable_checks_sets_environment_mirror():
    enable_checks()
    assert checks_enabled()
    assert os.environ["REPRO_CHECK"] == "1"
    enable_checks(False)
    assert not checks_enabled()
    assert "REPRO_CHECK" not in os.environ


def test_env_flag_alone_enables_checks():
    os.environ["REPRO_CHECK"] = "1"
    reset_checks()
    assert checks_enabled()


def test_verify_or_raise_memoizes_per_program(compiled_qft8):
    program, device = compiled_qft8
    reset_registry()
    verify_or_raise(program, device)
    verify_or_raise(program, device)
    assert registry().counter("check.programs").value == 1


def test_verify_or_raise_raises_on_corruption():
    program, device = _fresh()
    rng = random.Random(53)
    gate = _pick(rng, program, GateOp)
    program = _corrupt(program, gate, chain_length=gate.chain_length + 3)
    with pytest.raises(StaticAnalysisError) as excinfo:
        verify_or_raise(program, device)
    assert "QV004" in str(excinfo.value)
    assert not excinfo.value.report.ok


def test_compile_under_check_flag_verifies(compiled_qft8):
    from repro.apps import qft_circuit

    enable_checks()
    reset_registry()
    program, device = _fresh()
    assert registry().counter("check.programs").value == 1
    assert getattr(program, "_analyze_ok", None) is program.operations


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_check_src_clean(capsys):
    from repro.cli import main

    root = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "src", "repro"))
    assert main(["check", "--src", root]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_check_src_finds_violation(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["check", "--src", str(bad)]) == 1
    assert "DT002" in capsys.readouterr().out


def test_cli_check_app(capsys):
    from repro.cli import main

    code = main(["check", "--app", "QFT", "--qubits", "8",
                 "--topology", "L3", "--capacity", "6"])
    assert code == 0
    assert "verify qft8" in capsys.readouterr().out


def test_cli_check_program_json(tmp_path, compiled_qft8, capsys):
    from repro.cli import main
    from repro.io import save_json

    program, _ = compiled_qft8
    path = tmp_path / "prog.json"
    save_json(program_to_dict(program), path)
    assert main(["check", "--program", str(path)]) == 0
    assert "QV000" in capsys.readouterr().out  # device-free scope note

    payload = program_to_dict(program)
    trap = next(iter(payload["placement"]["trap_chains"]))
    payload["placement"]["trap_chains"][trap] = \
        payload["placement"]["trap_chains"][trap] + [900, 901, 902]
    for ion in (900, 901, 902):
        payload["placement"]["ion_to_trap"][str(ion)] = trap
    corrupt = tmp_path / "corrupt.json"
    save_json(payload, corrupt)
    assert main(["check", "--program", str(corrupt)]) == 1


def test_cli_check_requires_a_mode():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["check"])


def test_cli_check_output_json(tmp_path, capsys):
    from repro.cli import main
    from repro.io import load_json

    out = tmp_path / "findings.json"
    root = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "src", "repro"))
    assert main(["check", "--src", root, "--output", str(out)]) == 0
    payload = load_json(out)
    assert payload["ok"] is True
    assert payload["schema_version"] >= 3
    assert payload["sections"][0]["counts"]["error"] == 0


def test_cli_run_check_flag(capsys):
    from repro.cli import main

    code = main(["run", "--app", "QFT", "--qubits", "8",
                 "--topology", "L3", "--capacity", "6", "--check"])
    assert code == 0
