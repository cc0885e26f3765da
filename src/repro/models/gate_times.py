"""Two-qubit (Molmer-Sorensen) gate duration models (paper Section VII.A).

The paper considers four pulse-modulation methods.  With ``d`` the number of
ions *between* the two ions being entangled and ``N`` the total number of ions
in the chain (all durations in microseconds):

* AM1 (robust amplitude modulation, Wu et al. [59]):      ``tau = 100*d - 22``
* AM2 (fast amplitude modulation, Trout et al. [61]):      ``tau = 38*d + 10``
* PM  (phase modulation, Milne et al. [62]):               ``tau = 5*d + 160``
* FM  (frequency modulation, Leung et al. [40, 58]):       ``tau = max(13.33*N - 54, 100)``

AM and PM durations depend on the ion separation; FM duration depends only on
the chain length.  The AM1 formula goes non-physical (negative) for adjacent
ions (d=0), so we clamp every model to a minimum duration, which also reflects
the paper's statement that "extremely fast gates are somewhat sensitive to
noise".
"""

from __future__ import annotations

import enum

#: Minimum physical duration of any entangling gate, microseconds.  The FM
#: model already embeds a 100us floor; AM/PM formulas are clamped here so that
#: adjacent-ion AM1 gates (100*0 - 22 = -22us) stay physical.
MIN_GATE_TIME = 10.0

#: Floor of the FM gate duration (paper: "We assume a gate time of 100us for
#: all chains below 12 ions").
FM_MIN_GATE_TIME = 100.0


class GateImplementation(enum.Enum):
    """The four Molmer-Sorensen implementation methods studied in the paper."""

    AM1 = "AM1"
    AM2 = "AM2"
    PM = "PM"
    FM = "FM"

    @classmethod
    def from_name(cls, name) -> "GateImplementation":
        """Parse ``name`` (enum member, or case-insensitive string)."""

        if isinstance(name, cls):
            return name
        try:
            return cls[str(name).upper()]
        except KeyError:
            valid = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown gate implementation {name!r}; expected one of {valid}")


def am1_gate_time(distance: int) -> float:
    """AM1 gate duration for ions separated by ``distance`` intermediate ions."""

    _check_distance(distance)
    return max(100.0 * distance - 22.0, MIN_GATE_TIME)


def am2_gate_time(distance: int) -> float:
    """AM2 gate duration for ions separated by ``distance`` intermediate ions."""

    _check_distance(distance)
    return max(38.0 * distance + 10.0, MIN_GATE_TIME)


def pm_gate_time(distance: int) -> float:
    """PM gate duration for ions separated by ``distance`` intermediate ions."""

    _check_distance(distance)
    return max(5.0 * distance + 160.0, MIN_GATE_TIME)


def fm_gate_time(chain_length: int) -> float:
    """FM gate duration for a chain of ``chain_length`` ions (distance independent)."""

    if chain_length < 2:
        raise ValueError("an entangling gate needs a chain of at least 2 ions")
    return max(13.33 * chain_length - 54.0, FM_MIN_GATE_TIME)


def gate_time(implementation, *, distance: int, chain_length: int) -> float:
    """Duration of a two-qubit MS gate.

    Parameters
    ----------
    implementation:
        A :class:`GateImplementation` (or its name).
    distance:
        Number of ions strictly between the two ions being entangled
        (adjacent ions have ``distance == 0``).
    chain_length:
        Total number of ions in the chain holding both ions.
    """

    impl = GateImplementation.from_name(implementation)
    if chain_length < 2:
        raise ValueError("an entangling gate needs a chain of at least 2 ions")
    if distance > chain_length - 2:
        raise ValueError(
            f"distance {distance} impossible in a chain of {chain_length} ions"
        )
    if impl is GateImplementation.AM1:
        return am1_gate_time(distance)
    if impl is GateImplementation.AM2:
        return am2_gate_time(distance)
    if impl is GateImplementation.PM:
        return pm_gate_time(distance)
    return fm_gate_time(chain_length)


def _check_distance(distance: int) -> None:
    if distance < 0:
        raise ValueError("distance must be non-negative")
