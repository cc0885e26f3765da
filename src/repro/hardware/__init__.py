"""Hardware model of QCCD-based trapped-ion devices (paper Sections III-IV).

A QCCD device is a set of small ion traps interconnected by shuttling paths.
The model is split into:

* :mod:`~repro.hardware.trap` -- a trapping zone holding a linear ion chain.
* :mod:`~repro.hardware.segment` / :mod:`~repro.hardware.junction` -- the
  shuttling-path elements ions travel through between traps.
* :mod:`~repro.hardware.topology` -- the device connectivity graph and path
  planning over it.
* :mod:`~repro.hardware.device` -- :class:`QCCDDevice`, the complete candidate
  architecture a compilation + simulation run targets.
* :mod:`~repro.hardware.builders` -- constructors for the topologies evaluated
  in the paper (linear ``L6``, grid ``G2x3``) and their generalisations.
"""

from repro.hardware.trap import Trap
from repro.hardware.segment import Segment
from repro.hardware.junction import Junction
from repro.hardware.topology import Topology, PathStep, ShuttlePath
from repro.hardware.device import QCCDDevice, ReorderMethod
from repro.hardware.builders import (
    build_device,
    linear_topology,
    grid_topology,
    ring_topology,
)

__all__ = [
    "Trap",
    "Segment",
    "Junction",
    "Topology",
    "PathStep",
    "ShuttlePath",
    "QCCDDevice",
    "ReorderMethod",
    "build_device",
    "linear_topology",
    "grid_topology",
    "ring_topology",
]
