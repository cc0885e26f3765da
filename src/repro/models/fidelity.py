"""Gate fidelity model (paper Section VII.C, equation 1).

The fidelity of a Molmer-Sorensen gate executed in a chain of ``N`` ions with
motional energy ``nbar`` (quanta) and duration ``tau`` (microseconds) is

    F = 1 - Gamma * tau - A(N) * (2 * nbar + 1)

where ``Gamma`` is the trap's background heating rate and
``A(N) = a0 * N / ln(N)`` captures thermal laser-beam instabilities (the
perpendicular thermal motion of the beams relative to the chain).

Two error mechanisms fall out of the formula and are reported separately for
Figure 6g:

* *background* error: ``Gamma * tau`` -- grows with gate duration;
* *motional* error: ``A(N) * (2 * nbar + 1)`` -- grows with chain length and
  with the motional energy accumulated through shuttling.

Single-qubit gates and measurements use constant error rates (they do not use
the motional bus), configurable through :class:`~repro.models.params.FidelityParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.params import FidelityParams


@dataclass(frozen=True)
class GateErrorBreakdown:
    """Error attribution for one two-qubit gate."""

    #: Error from background heating of the trap during the gate (Gamma*tau).
    background: float
    #: Error from motional energy and laser-beam instability (A*(2*nbar+1)).
    motional: float

    @property
    def total(self) -> float:
        """Total gate error (1 - fidelity before clamping)."""

        return self.background + self.motional

    @property
    def fidelity(self) -> float:
        """Gate fidelity implied by the breakdown, clamped to [0, 1]."""

        return max(0.0, min(1.0, 1.0 - self.total))


class FidelityModel:
    """Evaluates equation (1) and the constant 1q/measurement error rates."""

    def __init__(self, params: FidelityParams = None) -> None:
        self.params = params or FidelityParams()
        self.params.validate()

    # ------------------------------------------------------------------ #
    def laser_instability(self, chain_length: int) -> float:
        """The scaling factor ``A(N) = a0 * N / ln(N)``.

        For chains of one ion the formula is singular; two-qubit gates never
        run in such chains, but the guard keeps the model total.
        """

        if chain_length < 2:
            raise ValueError("A(N) is defined for chains of at least 2 ions")
        return self.params.laser_instability_prefactor * chain_length / math.log(chain_length)

    def two_qubit_error(self, *, duration: float, chain_length: int,
                        motional_energy: float) -> GateErrorBreakdown:
        """Error breakdown of one MS gate.

        Parameters
        ----------
        duration:
            Gate time ``tau`` in microseconds.
        chain_length:
            Number of ions in the chain executing the gate.
        motional_energy:
            Chain motional energy ``nbar`` in quanta.
        """

        if duration < 0:
            raise ValueError("duration must be non-negative")
        if motional_energy < 0:
            raise ValueError("motional_energy must be non-negative")
        background = self.params.background_heating_rate * duration
        motional = self.laser_instability(chain_length) * (2.0 * motional_energy + 1.0)
        return GateErrorBreakdown(background=background, motional=motional)

    def two_qubit_fidelity(self, *, duration: float, chain_length: int,
                           motional_energy: float) -> float:
        """Fidelity of one MS gate, clamped to ``[min_fidelity, 1]``."""

        breakdown = self.two_qubit_error(duration=duration, chain_length=chain_length,
                                         motional_energy=motional_energy)
        return max(self.params.min_fidelity, min(1.0, 1.0 - breakdown.total))

    def single_qubit_fidelity(self) -> float:
        """Fidelity of a single-qubit gate (constant)."""

        return 1.0 - self.params.single_qubit_error

    def measurement_fidelity(self) -> float:
        """Fidelity of a measurement operation (constant)."""

        return 1.0 - self.params.measurement_error
