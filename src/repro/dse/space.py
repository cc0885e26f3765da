"""Declarative design-space specifications.

A :class:`DesignSpace` is the cross product of the paper's sweep axes --
application x size x topology x trap capacity x gate implementation x
reordering method x buffer -- under one set of physical-model parameters.
It validates its axes up front, enumerates :class:`DesignPoint` objects in a
deterministic nesting order, and (together with
:func:`repro.io.fingerprint.design_point_fingerprint`) gives every point a
stable identity that the experiment store keys on.

The default nesting order reproduces the enumeration of the paper's figure
sweeps: topology-major, then capacity, reorder, buffer, size, application,
and gate innermost (so the four MS-gate implementations of one compilation
are adjacent, which is what lets the runner reuse a single compile for all of
them).

A :class:`Shard` names one slice of a space split across machines or
dispatched work items; the runner decides which points it owns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple

from repro.models.params import PhysicalModel
from repro.toolflow.config import ArchitectureConfig

#: Axis names, in spec-field order.
AXES = ("topology", "capacity", "reorder", "buffer", "qubits", "app", "gate")

#: Default nesting order of the enumeration (outermost first).  Matches the
#: paper's sweep enumerations for Figures 6, 7 and 8.
DEFAULT_ORDER = AXES

#: Legal axis values where the toolflow has a closed set.
KNOWN_GATES = ("AM1", "AM2", "PM", "FM")
KNOWN_REORDERS = ("GS", "IS")

#: The JSON type of each list's values in a spec file.
_SPEC_TYPES = {"apps": str, "qubits": (int, type(None)), "topologies": str,
               "capacities": int, "gates": str, "reorders": str,
               "buffers": int, "order": str}


@dataclass(frozen=True)
class DesignPoint:
    """One fully-specified candidate: an application on an architecture.

    ``qubits`` is ``None`` for "the application's default size" (the paper's
    Table II parameters, or whatever circuit the caller supplied for the
    application name).
    """

    app: str
    qubits: Optional[int]
    config: ArchitectureConfig

    @property
    def label(self) -> str:
        """Short human-readable identity used in reports."""

        size = f"@{self.qubits}" if self.qubits is not None else ""
        return f"{self.app}{size}/{self.config.name}"

    def spec(self) -> Dict[str, object]:
        """JSON-safe description of the point (round-trips via :func:`point_from_spec`)."""

        from repro.io.serialization import config_to_dict

        return {
            "app": self.app,
            "qubits": self.qubits,
            "config": config_to_dict(self.config, include_model=True),
        }

    def with_qubits(self, qubits: Optional[int]) -> "DesignPoint":
        """The same architectural point at a different application size."""

        return replace(self, qubits=qubits)


def point_from_spec(spec: Dict[str, object]) -> DesignPoint:
    """Rebuild a :class:`DesignPoint` from :meth:`DesignPoint.spec` output."""

    from repro.io.serialization import config_from_dict

    return DesignPoint(
        app=spec["app"],
        qubits=spec["qubits"],
        config=config_from_dict(spec["config"]),
    )


@dataclass(frozen=True)
class DesignSpace:
    """The cross product of sweep axes explored by one study.

    Every axis is a tuple of values; singleton axes pin a knob.  ``qubits``
    values of ``None`` mean the application's default size.  ``order`` is the
    nesting order of :meth:`points` (a permutation of :data:`AXES`,
    outermost first).
    """

    apps: Tuple[str, ...]
    qubits: Tuple[Optional[int], ...] = (None,)
    topologies: Tuple[str, ...] = ("L6",)
    capacities: Tuple[int, ...] = (14, 18, 22, 26, 30, 34)
    gates: Tuple[str, ...] = ("FM",)
    reorders: Tuple[str, ...] = ("GS",)
    buffers: Tuple[int, ...] = (2,)
    model: PhysicalModel = field(default_factory=PhysicalModel)
    order: Tuple[str, ...] = DEFAULT_ORDER

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so specs built from lists hash/compare.
        for name in ("apps", "qubits", "topologies", "capacities", "gates",
                     "reorders", "buffers", "order"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        self.validate()

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on an ill-formed space."""

        for name, values in (("apps", self.apps), ("qubits", self.qubits),
                             ("topologies", self.topologies),
                             ("capacities", self.capacities),
                             ("gates", self.gates), ("reorders", self.reorders),
                             ("buffers", self.buffers)):
            if len(values) == 0:
                raise ValueError(f"design-space axis {name!r} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"design-space axis {name!r} has duplicate values")
        for gate in self.gates:
            if gate not in KNOWN_GATES:
                raise ValueError(f"unknown gate implementation {gate!r}; "
                                 f"expected one of {KNOWN_GATES}")
        for reorder in self.reorders:
            if reorder not in KNOWN_REORDERS:
                raise ValueError(f"unknown reorder method {reorder!r}; "
                                 f"expected one of {KNOWN_REORDERS}")
        for capacity in self.capacities:
            if capacity < 2:
                raise ValueError("trap capacities must be at least 2")
        for buffer_ions in self.buffers:
            if buffer_ions < 0:
                raise ValueError("buffers must be non-negative")
        for qubits in self.qubits:
            if qubits is not None and qubits < 2:
                raise ValueError("qubit counts must be at least 2 (or None)")
        if sorted(self.order) != sorted(AXES):
            raise ValueError(f"order must be a permutation of {AXES}, "
                             f"got {self.order}")
        self.model.validate()

    # ------------------------------------------------------------------ #
    def axis_values(self, axis: str) -> Tuple:
        """The value tuple of one axis by name."""

        values = {
            "app": self.apps,
            "qubits": self.qubits,
            "topology": self.topologies,
            "capacity": self.capacities,
            "gate": self.gates,
            "reorder": self.reorders,
            "buffer": self.buffers,
        }
        return values[axis]

    @property
    def size(self) -> int:
        """Number of design points in the space."""

        total = 1
        for axis in AXES:
            total *= len(self.axis_values(axis))
        return total

    def point_for(self, coords: Dict[str, object]) -> DesignPoint:
        """Build the point at explicit axis coordinates."""

        return DesignPoint(
            app=coords["app"],
            qubits=coords["qubits"],
            config=ArchitectureConfig(
                topology=coords["topology"],
                trap_capacity=coords["capacity"],
                gate=coords["gate"],
                reorder=coords["reorder"],
                buffer_ions=coords["buffer"],
                model=self.model,
            ),
        )

    def points(self) -> Iterator[DesignPoint]:
        """Enumerate every point, nested by ``order`` (outermost first)."""

        axis_lists = [self.axis_values(axis) for axis in self.order]
        for combo in itertools.product(*axis_lists):
            yield self.point_for(dict(zip(self.order, combo)))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe spec (the ``--space`` file format of ``repro dse run``)."""

        from repro.io.serialization import SCHEMA_VERSION, model_to_dict

        return {
            "schema_version": SCHEMA_VERSION,
            "apps": list(self.apps),
            "qubits": list(self.qubits),
            "topologies": list(self.topologies),
            "capacities": list(self.capacities),
            "gates": list(self.gates),
            "reorders": list(self.reorders),
            "buffers": list(self.buffers),
            "model": model_to_dict(self.model),
            "order": list(self.order),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DesignSpace":
        """Build a space from a spec dictionary (scalars promote to singletons)."""

        from repro.io.serialization import check_schema_version, model_from_dict

        check_schema_version(payload, source="design-space spec")
        known_keys = {"schema_version", "apps", "qubits", "topologies",
                      "capacities", "gates", "reorders", "buffers", "model",
                      "order"}
        unknown = sorted(set(payload) - known_keys)
        if unknown:
            # A misspelled axis would otherwise silently fall back to the
            # paper-scale default -- hours of compute on the wrong space.
            raise ValueError(f"design-space spec has unknown keys {unknown}; "
                             f"expected a subset of {sorted(known_keys)}")
        if "apps" not in payload:
            raise ValueError("design-space spec must list 'apps'")

        def axis(name: str, default) -> Tuple:
            value = payload.get(name, default)
            if not isinstance(value, (list, tuple)):
                value = (value,)
            for item in value:
                if not isinstance(item, _SPEC_TYPES[name]):
                    raise ValueError(f"design-space spec: {name!r} holds {item!r}")
            return tuple(value)

        defaults = cls(apps=("QFT",))
        try:
            model = (model_from_dict(payload["model"]) if "model" in payload
                     else PhysicalModel())
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"design-space spec: malformed 'model' ({exc})")
        return cls(
            apps=axis("apps", ()),
            qubits=axis("qubits", defaults.qubits),
            topologies=axis("topologies", defaults.topologies),
            capacities=axis("capacities", defaults.capacities),
            gates=axis("gates", defaults.gates),
            reorders=axis("reorders", defaults.reorders),
            buffers=axis("buffers", defaults.buffers),
            model=model,
            order=axis("order", defaults.order),
        )


@dataclass(frozen=True)
class Shard:
    """One slice of a sharded sweep: shard ``index`` of ``count`` (1-based).

    Points are assigned by the hash of their compilation
    (:meth:`repro.dse.runner.DSERunner.partition_key`), so all points
    sharing a compiled program -- every gate variant of one configuration --
    belong to the same shard, and the partition is stable under resume,
    reordering and strategy choice.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be at least 1")
        if not 1 <= self.index <= self.count:
            raise ValueError(f"shard index must be in 1..{self.count}, "
                             f"got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI form ``"i/N"`` (e.g. ``"2/4"``).

        Only *format* problems (not two ``/``-separated integers) collapse
        into the generic message; the range errors of ``__post_init__`` --
        ``--shard 0/4``, ``--shard 5/4`` -- propagate unmasked so the user
        sees which bound was violated.
        """

        try:
            index_text, count_text = text.split("/")
            index, count = int(index_text), int(count_text)
        except (ValueError, TypeError) as err:
            raise ValueError(
                f"expected a shard of the form i/N, got {text!r}") from err
        return cls(index, count)

    @property
    def name(self) -> str:
        return f"shard-{self.index}of{self.count}"

    def owns(self, digest: str) -> bool:
        """Whether the work unit with hex ``digest`` falls in this shard."""

        return int(digest, 16) % self.count == self.index - 1
