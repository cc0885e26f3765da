"""A shuttling-path segment connecting two topology nodes.

Segments are the straight stretches of electrode-lined path an ion is moved
along between traps and junctions.  They are exclusive resources in the
simulator: no two ion shuttles may occupy the same segment at the same time
(Section VI, congestion management).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Segment:
    """A straight shuttling segment.

    Attributes
    ----------
    segment_id:
        Device-wide unique identifier.
    endpoint_a / endpoint_b:
        Names of the topology nodes (traps or junctions) the segment connects.
    length:
        Number of elementary move steps needed to traverse the segment.  The
        paper's Table I gives the time of moving through *one* segment, so the
        default length is 1; longer physical stretches can be modelled by a
        larger length.
    name:
        Canonical resource name used by the simulator (``"S<segment_id>"``),
        set at construction so every move record through the segment shares
        one string.
    """

    segment_id: int
    endpoint_a: str
    endpoint_b: str
    length: int = 1
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.segment_id < 0:
            raise ValueError("segment_id must be non-negative")
        if self.length < 1:
            raise ValueError("segment length must be at least 1")
        if self.endpoint_a == self.endpoint_b:
            raise ValueError("a segment must connect two distinct nodes")
        object.__setattr__(self, "name", f"S{self.segment_id}")

    def other_end(self, node: str) -> str:
        """The endpoint opposite ``node``."""

        if node == self.endpoint_a:
            return self.endpoint_b
        if node == self.endpoint_b:
            return self.endpoint_a
        raise ValueError(f"{node!r} is not an endpoint of {self.name}")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.name}({self.endpoint_a}-{self.endpoint_b})"
