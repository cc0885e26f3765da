"""Performance and noise models for QCCD hardware (paper Section VII).

Four model families are implemented, each in its own module:

* :mod:`~repro.models.gate_times` -- Molmer-Sorensen gate durations for the
  AM1, AM2, PM and FM pulse-modulation methods (Section VII.A).
* :mod:`~repro.models.shuttle_times` -- shuttling primitive durations
  (Table I) plus the configurable ion-rotation time used by physical ion
  swapping.
* :mod:`~repro.models.heating` -- the quanta-accounting motional heating model
  (Section VII.B, constants k1 and k2).
* :mod:`~repro.models.fidelity` -- the gate fidelity model
  ``F = 1 - Gamma*tau - A*(2*nbar + 1)`` (Section VII.C, equation 1) with the
  error attribution used by Figure 6g.

:mod:`~repro.models.params` groups every tunable constant in frozen
dataclasses so that experiments are reproducible and ablations are explicit.
The names below resolve on first access (:mod:`repro._lazy`), so a process
that only reads the parameters (the dispatcher, building a design space)
loads no model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.models.params": ("FidelityParams", "HeatingParams", "ShuttleTimes",
                            "SingleQubitParams", "PhysicalModel"),
    "repro.models.gate_times": ("GateImplementation", "gate_time",
                                "am1_gate_time", "am2_gate_time",
                                "pm_gate_time", "fm_gate_time"),
    "repro.models.heating": ("HeatingModel",),
    "repro.models.fidelity": ("FidelityModel", "GateErrorBreakdown"),
})
