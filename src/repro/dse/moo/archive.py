"""Incremental non-dominated archives with deterministic tie-breaking.

The archive is the multi-objective analogue of "best point so far": the set
of evaluated candidates no other evaluated candidate dominates.  Insertion
is incremental (each new vector evicts the points it dominates and is
refused if something present dominates it), ``O(archive)`` per insert, and
the resulting *set* is insertion-order invariant -- a property the tests
pin, because it is what makes a replayed run (store rows ingested in
whatever order the ledger produced them) reconstruct the same frontier.

Tie-breaking is deterministic: a vector exactly equal to an archived one is
refused (the earlier key keeps the slot), so the same evaluations always
yield the same archive regardless of duplicates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (canonical higher-is-better).

    ``a`` dominates ``b`` when it is at least as good in every objective
    and strictly better in at least one.  Equal vectors dominate neither
    way.
    """

    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    better = False
    for ai, bi in zip(a, b):
        if ai < bi:
            return False
        if ai > bi:
            better = True
    return better


def brute_force_frontier(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated vectors, by pairwise comparison.

    The reference implementation the archive is property-tested against:
    ``O(n^2)``, first index wins among exact duplicates.
    """

    frontier: List[int] = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if i == j:
                continue
            if dominates(other, candidate) or \
                    (tuple(other) == tuple(candidate) and j < i):
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    return frontier


class ParetoArchive:
    """Incremental non-dominated set keyed by stable candidate keys."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("archive dimension must be positive")
        self.dim = dim
        self._vectors: Dict[object, Tuple[float, ...]] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, key) -> bool:
        return key in self._vectors

    def add(self, key, vector: Sequence[float]) -> bool:
        """Offer one evaluated point; returns True when it joins the archive.

        Points dominated by (or exactly equal to) an archived vector are
        refused; an accepted point evicts every archived vector it
        dominates.  Re-offering an archived key updates its vector through
        the same rules (stale entry evicted first).
        """

        vector = tuple(float(v) for v in vector)
        if len(vector) != self.dim:
            raise ValueError(f"expected {self.dim}-D vector, got {len(vector)}-D")
        self._vectors.pop(key, None)
        for other in self._vectors.values():
            if dominates(other, vector) or other == vector:
                return False
        evicted = [other_key for other_key, other in self._vectors.items()
                   if dominates(vector, other)]
        for other_key in evicted:
            del self._vectors[other_key]
        self._vectors[key] = vector
        return True

    def update(self, items: Iterable[Tuple[object, Sequence[float]]]) -> int:
        """Offer many ``(key, vector)`` pairs; returns how many were accepted."""

        return sum(1 for key, vector in items if self.add(key, vector))

    def keys(self) -> List[object]:
        """Archived keys, sorted (the deterministic export order)."""

        return sorted(self._vectors)

    def vectors(self) -> List[Tuple[float, ...]]:
        """Archived vectors in :meth:`keys` order."""

        return [self._vectors[key] for key in self.keys()]

    def items(self) -> List[Tuple[object, Tuple[float, ...]]]:
        """``(key, vector)`` pairs in :meth:`keys` order."""

        return [(key, self._vectors[key]) for key in self.keys()]

    def get(self, key) -> Tuple[float, ...]:
        return self._vectors[key]

