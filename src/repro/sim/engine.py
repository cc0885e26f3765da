"""Single-point simulation: replay one compiled program on one device.

The simulator evaluates three models -- durations (the gate-time model of
the selected MS implementation, Table I shuttling times), timing
(start/finish times under dependency and exclusive-resource constraints)
and noise (heating and fidelity accumulation in program order).
:func:`simulate` runs them as a one-variant evaluation of the program's
:class:`~repro.sim.batch.BatchPlan`, the same engine the batched fan-outs
use; the plan is cached on the program, so re-simulating it under another
device reuses the lowering and every memoised timeline.  The result holds
the metrics only: per-op start and finish times exist only while the
plan's walk runs.
"""

from __future__ import annotations

from repro.hardware.device import QCCDDevice
from repro.isa.program import QCCDProgram
from repro.obs.trace import span
from repro.sim.batch import _simulate_specs, _trap_names
from repro.sim.results import SimulationResult


def simulate(program: QCCDProgram, device: QCCDDevice) -> SimulationResult:
    """Simulate ``program`` on ``device`` and return the metrics, the
    computation versus communication time split of Figure 6b included."""

    with span("sim.simulate", circuit=program.circuit_name,
              ops=len(program), gate=device.gate.value):
        return _simulate_specs(program, [(device.gate, device.model)],
                               _trap_names(device))[0]
