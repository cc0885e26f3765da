"""Simulator for compiled QCCD programs (paper Sections V.B and VII).

The simulator replays a :class:`~repro.isa.program.QCCDProgram` on a
:class:`~repro.hardware.device.QCCDDevice`:

* **Timing** -- every operation starts as soon as its dependencies have
  finished and its exclusive resources (trap, segment or junction) are free;
  gates within one trap run serially while independent shuttles and gates in
  other traps overlap.
* **Heating** -- split, merge and move operations update per-chain motional
  energies following the quanta-accounting model.
* **Fidelity** -- every gate multiplies the running program fidelity by its
  own fidelity from equation (1); the per-gate error is also attributed to its
  background and motional components for Figure 6g.

There is one engine (:mod:`repro.sim.batch`): a program is lowered once
(:mod:`repro.sim.lower`) into a cached :class:`BatchPlan`, against which any
number of (gate implementation, physical model) variants are evaluated.
:func:`simulate` is the public entry point for one (program, device) pair
and returns a :class:`SimulationResult`; :func:`simulate_batch` (and the
:func:`simulate_gate_variants` / :func:`simulate_model_variants` helpers)
evaluates a whole axis of device variants in one call, with results
identical to one :func:`simulate` per variant.  The names below resolve
on first access (:mod:`repro._lazy`), so reading a stored
:class:`SimulationResult` loads no engine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.batch": ("BatchPlan", "batch_plan", "simulate_batch",
                        "simulate_gate_variants", "simulate_model_variants"),
    "repro.sim.engine": ("simulate",),
    "repro.sim.results": ("SimulationResult",),
    "repro.sim.metrics": ("communication_fraction",
                          "shuttles_per_two_qubit_gate"),
})
