"""Device communication topology: traps, junctions and segments as a graph.

The graph is an adjacency dict kept in insertion order, searched by one
stdlib Dijkstra whose tie-break is networkx's, so routes stay those the
paper goldens pin.  The topology answers the questions the compiler's router
asks (Section VI):

* what is the shortest shuttling path between two traps,
* which segments and junctions does that path use (they become exclusive
  resources during simulation),
* which *intermediate traps* the path passes through -- in linear topologies a
  shuttle that crosses a trap must merge into and split back out of that
  trap's chain (Figure 4), which costs time and adds motional energy.

Routes, port sides and segments are cached per node pair.  A route carries
the chain ends it leaves, passes through and enters by, so the compiler
replays a shuttle from the cached :class:`ShuttlePath` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hardware.junction import Junction
from repro.hardware.segment import Segment
from repro.hardware.trap import Trap


@dataclass(frozen=True)
class PathStep:
    """One hop of a shuttle path.

    ``kind`` is one of ``"segment"``, ``"junction"`` or ``"trap"``:

    * ``segment`` -- move through a straight segment (carries the Segment);
    * ``junction`` -- cross a junction, including the turn (carries the
      Junction);
    * ``trap`` -- pass *through* an intermediate trap, which requires merging
      into and splitting back out of its chain (carries the Trap, and in
      ``sides`` the chain ends the ion enters and leaves by).
    """

    kind: str
    element: object
    sides: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("segment", "junction", "trap"):
            raise ValueError(f"unknown path step kind: {self.kind!r}")


@dataclass(frozen=True)
class ShuttlePath:
    """A planned route for one ion between two traps.

    ``exit_side`` is the chain end of ``source`` the ion leaves by and
    ``entry_side`` the end of ``destination`` it merges at (``None`` for the
    empty route of a trap to itself).
    """

    source: str
    destination: str
    steps: Tuple[PathStep, ...] = field(default=())
    exit_side: Optional[str] = None
    entry_side: Optional[str] = None

    @property
    def segments(self) -> List[Segment]:
        """Segments traversed, in order."""

        return [s.element for s in self.steps if s.kind == "segment"]

    @property
    def junctions(self) -> List[Junction]:
        """Junctions crossed, in order."""

        return [s.element for s in self.steps if s.kind == "junction"]

    @property
    def intermediate_traps(self) -> List[Trap]:
        """Traps passed through (merge + split required at each)."""

        return [s.element for s in self.steps if s.kind == "trap"]

    @property
    def num_segments(self) -> int:
        """Total elementary move steps (segment lengths summed)."""

        return sum(seg.length for seg in self.segments)

    @property
    def num_junctions(self) -> int:
        """Number of junction crossings."""

        return len(self.junctions)

    @property
    def num_intermediate_traps(self) -> int:
        """Number of traps the ion passes through."""

        return len(self.intermediate_traps)

    def __len__(self) -> int:
        return len(self.steps)


class _Search:
    """One Dijkstra search from ``origin`` over a topology's adjacency.

    Nodes leave the heap in (distance, insertion count) order and relax
    their segments in the order the segments were added: networkx's
    tie-break.  ``preds[node]`` lists every neighbour through which
    ``node`` is reached at its shortest distance, in the order found; its
    first entry is the one predecessor a single-route search keeps.
    """

    __slots__ = ("adjacency", "counter", "heap", "seen", "settled", "preds")

    def __init__(self, adjacency: Dict[str, Dict[str, Segment]], origin: str,
                 counter: Iterator[int]) -> None:
        self.adjacency = adjacency
        self.counter = counter
        self.heap = [(0, next(counter), origin)]
        self.seen = {origin: 0}
        self.settled: Dict[str, int] = {}
        self.preds: Dict[str, List[str]] = {origin: []}

    def pop(self) -> Optional[str]:
        """Settle the nearest node on the heap; ``None`` if it already was."""

        distance, _, node = heappop(self.heap)
        if node in self.settled:
            return None
        self.settled[node] = distance
        return node

    def relax(self, node: str) -> List[Tuple[str, int]]:
        """Relax the segments of settled ``node``: the neighbours whose
        tentative distance fell, each with its new distance."""

        improved = []
        base = self.settled[node]
        for other, segment in self.adjacency[node].items():
            if other in self.settled:
                continue  # lengths are >= 1: no equal-length route remains
            distance = base + segment.length
            known = self.seen.get(other)
            if known is None or distance < known:
                self.seen[other] = distance
                heappush(self.heap, (distance, next(self.counter), other))
                self.preds[other] = [node]
                improved.append((other, distance))
            elif distance == known:
                self.preds[other].append(node)
        return improved

    def run(self, until: Optional[str] = None) -> None:
        """Settle nodes until ``until`` is settled or the heap is empty."""

        while self.heap:
            node = self.pop()
            if node is None:
                continue
            if node == until:
                return
            self.relax(node)

    def chain(self, node: str) -> List[str]:
        """``node`` back to the origin along first predecessors."""

        nodes = [node]
        while self.preds[nodes[-1]]:
            nodes.append(self.preds[nodes[-1]][0])
        return nodes

    def routes(self, node: str) -> List[List[str]]:
        """Every shortest route from the origin to settled ``node``, in the
        depth-first predecessor order networkx enumerates them."""

        if not self.preds[node]:
            return [[node]]
        return [route + [node] for pred in self.preds[node]
                for route in self.routes(pred)]


def _bidirectional_route(adjacency: Dict[str, Dict[str, Segment]],
                         source: str, destination: str) -> List[str]:
    """The single shortest route networkx's bidirectional Dijkstra returns:
    forward and backward searches settle one node each in turn, and the
    route runs through the first node that ties the best distance found
    when some node is settled by both."""

    counter = count()
    searches = (_Search(adjacency, source, counter),
                _Search(adjacency, destination, counter))
    best: Optional[int] = None
    meet: Optional[str] = None
    direction = 1
    while searches[0].heap and searches[1].heap:
        direction = 1 - direction
        search, other = searches[direction], searches[1 - direction]
        node = search.pop()
        if node is None:
            continue
        if node in other.settled:
            forward, backward = searches[0].chain(meet), searches[1].chain(meet)
            return forward[::-1] + backward[1:]
        for neighbour, distance in search.relax(node):
            known = other.seen.get(neighbour)
            if known is not None and (best is None or distance + known < best):
                best, meet = distance + known, neighbour
    raise ValueError(f"no path between {source!r} and {destination!r}")


class Topology:
    """The device connectivity graph.

    Nodes are trap and junction names; edges are segments.  The graph is an
    adjacency dict (node -> neighbour -> segment, both in insertion order)
    beside typed registries of the hardware elements, so that path planning
    returns real objects rather than labels.
    """

    def __init__(self, name: str = "custom") -> None:
        self.name = name
        self._adjacency: Dict[str, Dict[str, Segment]] = {}
        self._traps: Dict[str, Trap] = {}
        self._junctions: Dict[str, Junction] = {}
        self._segments: Dict[int, Segment] = {}
        self._next_segment_id = 0
        # Route caches: the graph is static once built, but every shuttle the
        # compiler emits asks for a path, a port side and the segments along
        # the way.  Cleared whenever the graph mutates.
        self._path_cache: Dict[Tuple[str, str], "ShuttlePath"] = {}
        self._port_cache: Dict[Tuple[str, str], str] = {}
        self._segment_cache: Dict[Tuple[str, str], Segment] = {}

    def _invalidate_route_caches(self) -> None:
        self._path_cache.clear()
        self._port_cache.clear()
        self._segment_cache.clear()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_trap(self, trap: Trap) -> Trap:
        """Register a trapping zone as a graph node."""

        if trap.name in self._adjacency:
            raise ValueError(f"duplicate node name {trap.name!r}")
        self._traps[trap.name] = trap
        self._adjacency[trap.name] = {}
        self._invalidate_route_caches()
        return trap

    def add_junction(self, junction: Junction) -> Junction:
        """Register a junction as a graph node."""

        if junction.name in self._adjacency:
            raise ValueError(f"duplicate node name {junction.name!r}")
        self._junctions[junction.name] = junction
        self._adjacency[junction.name] = {}
        self._invalidate_route_caches()
        return junction

    def connect(self, node_a: str, node_b: str, length: int = 1) -> Segment:
        """Add a segment between two existing nodes and return it."""

        for node in (node_a, node_b):
            if node not in self._adjacency:
                raise ValueError(f"unknown node {node!r}")
        if node_b in self._adjacency[node_a]:
            raise ValueError(f"segment {node_a}-{node_b} already exists")
        segment = Segment(self._next_segment_id, node_a, node_b, length)
        self._next_segment_id += 1
        self._segments[segment.segment_id] = segment
        self._adjacency[node_a][node_b] = segment
        self._adjacency[node_b][node_a] = segment
        self._invalidate_route_caches()
        return segment

    def validate(self) -> None:
        """Check structural invariants.

        * at least one trap exists;
        * the graph is connected (every trap can reach every other trap);
        * every junction's declared degree matches its number of incident
          segments.
        """

        if not self._traps:
            raise ValueError("topology has no traps")
        if len(self._adjacency) > 1:
            search = _Search(self._adjacency, next(iter(self._adjacency)), count())
            search.run()
            if len(search.settled) != len(self._adjacency):
                raise ValueError("topology graph is not connected")
        for junction in self._junctions.values():
            actual = len(self._adjacency[junction.name])
            if actual != junction.degree:
                raise ValueError(
                    f"junction {junction.name} declares degree {junction.degree} "
                    f"but has {actual} incident segments"
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def traps(self) -> Tuple[Trap, ...]:
        """All traps, ordered by trap id."""

        return tuple(sorted(self._traps.values(), key=lambda t: t.trap_id))

    @property
    def junctions(self) -> Tuple[Junction, ...]:
        """All junctions, ordered by junction id."""

        return tuple(sorted(self._junctions.values(), key=lambda j: j.junction_id))

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """All segments, ordered by segment id."""

        return tuple(self._segments[i] for i in sorted(self._segments))

    @property
    def num_traps(self) -> int:
        """Number of trapping zones."""

        return len(self._traps)

    def trap(self, name: str) -> Trap:
        """Look up a trap by node name."""

        try:
            return self._traps[name]
        except KeyError:
            raise KeyError(f"no trap named {name!r}") from None

    def trap_by_id(self, trap_id: int) -> Trap:
        """Look up a trap by numeric id."""

        for trap in self._traps.values():
            if trap.trap_id == trap_id:
                return trap
        raise KeyError(f"no trap with id {trap_id}")

    def junction(self, name: str) -> Junction:
        """Look up a junction by node name."""

        try:
            return self._junctions[name]
        except KeyError:
            raise KeyError(f"no junction named {name!r}") from None

    def is_trap(self, node: str) -> bool:
        """Whether ``node`` is a trap (as opposed to a junction)."""

        return node in self._traps

    def neighbors(self, node: str) -> Tuple[str, ...]:
        """The nodes one segment away from ``node``, in the order their
        segments were added."""

        try:
            return tuple(self._adjacency[node])
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def segment_between(self, node_a: str, node_b: str) -> Segment:
        """The segment joining two adjacent nodes."""

        key = (node_a, node_b)
        segment = self._segment_cache.get(key)
        if segment is not None:
            return segment
        segment = self._adjacency.get(node_a, {}).get(node_b)
        if segment is None:
            raise KeyError(f"no segment between {node_a!r} and {node_b!r}")
        self._segment_cache[key] = segment
        return segment

    def total_capacity(self) -> int:
        """Sum of trap capacities (maximum number of ions the device holds)."""

        return sum(trap.capacity for trap in self._traps.values())

    # ------------------------------------------------------------------ #
    # Path planning
    # ------------------------------------------------------------------ #
    def shortest_path(self, source: str, destination: str) -> ShuttlePath:
        """Shortest shuttling route between two traps.

        The path is shortest by total segment length (junction and
        intermediate-trap penalties are reflected later by the timing model;
        for the topologies in the paper both notions of shortest coincide).
        Among equal-length routes it is the one networkx's bidirectional
        Dijkstra picks.  Raises ``ValueError`` when no route exists.
        """

        key = (source, destination)
        path = self._path_cache.get(key)
        if path is not None:
            return path
        self._check_endpoints(source, destination)
        if source == destination:
            path = ShuttlePath(source, destination, ())
        else:
            path = self._path_from_nodes(
                _bidirectional_route(self._adjacency, source, destination))
        self._path_cache[key] = path
        return path

    def all_shortest_paths(self, source: str, destination: str) -> List[ShuttlePath]:
        """Every shortest route between two traps (used by congestion-aware
        routing to pick an uncontended alternative), in networkx's order.
        Raises ``ValueError`` when no route exists."""

        self._check_endpoints(source, destination)
        if source == destination:
            return [ShuttlePath(source, destination, ())]
        search = _Search(self._adjacency, source, count())
        search.run(until=destination)
        if destination not in search.settled:
            raise ValueError(f"no path between {source!r} and {destination!r}")
        return [self._path_from_nodes(nodes) for nodes in search.routes(destination)]

    def _check_endpoints(self, source: str, destination: str) -> None:
        if source not in self._traps or destination not in self._traps:
            raise KeyError("shuttle paths must start and end at traps")

    def _path_from_nodes(self, nodes: List[str]) -> ShuttlePath:
        steps: List[PathStep] = []
        for index in range(len(nodes) - 1):
            here, there = nodes[index], nodes[index + 1]
            steps.append(PathStep("segment", self.segment_between(here, there)))
            if index + 1 < len(nodes) - 1:
                # an interior node: either a junction to cross or a trap to
                # pass through, entering from ``here``
                if self.is_trap(there):
                    sides = (self.port_side(there, here),
                             self.port_side(there, nodes[index + 2]))
                    steps.append(PathStep("trap", self._traps[there], sides))
                else:
                    steps.append(PathStep("junction", self._junctions[there]))
        return ShuttlePath(nodes[0], nodes[-1], tuple(steps),
                           self.port_side(nodes[0], nodes[1]),
                           self.port_side(nodes[-1], nodes[-2]))

    def port_side(self, trap_name: str, neighbor: str) -> str:
        """Which end of ``trap_name``'s ion chain the path toward ``neighbor``
        attaches to: ``"head"`` or ``"tail"``.

        The decision is geometric: a neighbour that sits at a smaller
        coordinate than the trap attaches to the chain head, a larger one to
        the tail.  For linear topologies this reproduces Figure 4 (ions enter
        on one side and must be reordered to the other side before continuing);
        traps with a single port always use the tail.
        """

        key = (trap_name, neighbor)
        side = self._port_cache.get(key)
        if side is not None:
            return side
        if trap_name not in self._traps:
            raise KeyError(f"no trap named {trap_name!r}")
        if neighbor not in self._adjacency[trap_name]:
            raise KeyError(f"{neighbor!r} is not adjacent to {trap_name!r}")
        trap = self._traps[trap_name]
        neighbor_element = self._traps.get(neighbor) or self._junctions[neighbor]
        trap_pos = trap.position
        neighbor_pos = getattr(neighbor_element, "position", None)
        if trap_pos is None or neighbor_pos is None:
            side = "tail"
        elif (neighbor_pos[0], neighbor_pos[1]) < (trap_pos[0], trap_pos[1]):
            side = "head"
        else:
            side = "tail"
        self._port_cache[key] = side
        return side

    def trap_distance(self, source: str, destination: str) -> int:
        """Shortest-path length (in segments) between two traps."""

        return self.shortest_path(source, destination).num_segments

    def distance_matrix(self) -> Dict[Tuple[str, str], int]:
        """All-pairs trap distances in segments (used by the mapper)."""

        matrix: Dict[Tuple[str, str], int] = {}
        names = [trap.name for trap in self.traps]
        for i, a in enumerate(names):
            matrix[(a, a)] = 0
            for b in names[i + 1:]:
                distance = self.trap_distance(a, b)
                matrix[(a, b)] = distance
                matrix[(b, a)] = distance
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Topology({self.name!r}, traps={len(self._traps)}, "
                f"junctions={len(self._junctions)}, segments={len(self._segments)})")
