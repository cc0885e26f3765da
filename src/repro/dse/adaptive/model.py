"""Incremental surrogate models over encoded design points.

The adaptive strategies need a cheap predictor of "how good is this design
point?" that can be refreshed after every evaluated batch.  Two pure-python
regressors provide that, both trained online from store rows and both
bit-deterministic under a fixed seed (all randomness comes from
``random.Random(seed)``, all accumulation happens in a fixed order):

* :class:`RFFSurrogate` -- Bayesian ridge regression on a random-Fourier-
  feature map (a stationary-kernel approximation).  Observations update the
  sufficient statistics ``A = lambda*I + sum(phi phi^T)`` and
  ``b = sum(phi*y)`` incrementally; predictions solve the ridge system via
  a cached Cholesky factor and report the posterior predictive variance.
* :class:`TreeEnsembleSurrogate` -- a bagged ensemble of depth-bounded
  regression trees; the prediction is the bag mean and the predictive
  spread is the disagreement across trees.  Better than the RFF model on
  axis-aligned, interaction-heavy landscapes (capacity thresholds, gate
  cliffs); refit lazily from the accumulated observations.

:class:`PointEncoder` maps :class:`~repro.dse.space.DesignPoint` objects to
fixed-length float vectors: numeric axes (capacity, buffer, qubits) are
min-max normalised over the space's axis values, categorical axes (app,
topology, gate, reorder) are one-hot.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.knobs import SURROGATE_NAMES
from repro.dse.space import DesignSpace

#: :class:`RFFSurrogate`'s random Fourier features, their RBF lengthscale
#: and the ridge term on the Gram diagonal.
RFF_FEATURES = 32
RFF_LENGTHSCALE = 1.5
RFF_RIDGE = 1e-2

#: :class:`TreeEnsembleSurrogate`'s bag size and tree depth bound.
ENSEMBLE_TREES = 12
TREE_MAX_DEPTH = 4


class PointEncoder:
    """Encode design points of one space as fixed-length float vectors."""

    #: (axis, how to read it off a point) for the numeric axes.
    _NUMERIC = (
        ("capacity", lambda point: point.config.trap_capacity),
        ("buffer", lambda point: point.config.buffer_ions),
        ("qubits", lambda point: point.qubits),
    )
    #: Same for the categorical axes.
    _CATEGORICAL = (
        ("app", lambda point: point.app),
        ("topology", lambda point: point.config.topology),
        ("gate", lambda point: point.config.gate),
        ("reorder", lambda point: point.config.reorder),
    )

    def __init__(self, space: DesignSpace) -> None:
        self._ranges: Dict[str, Tuple[float, float]] = {}
        for axis, _ in self._NUMERIC:
            values = [float(v) for v in space.axis_values(axis)
                      if v is not None]
            low = min(values) if values else 0.0
            high = max(values) if values else 0.0
            self._ranges[axis] = (low, high)
        self._categories: Dict[str, Tuple] = {
            axis: tuple(space.axis_values(axis))
            for axis, _ in self._CATEGORICAL
        }
        self.dim = len(self._NUMERIC) + sum(
            len(values) for values in self._categories.values())

    def encode(self, point) -> Tuple[float, ...]:
        """The feature vector of one point (proxy-sized points included).

        Numeric values outside the axis range (multi-fidelity proxy sizes)
        extrapolate linearly; a ``None`` qubit count (the application's
        default, i.e. the largest scale) encodes as 1.0.
        """

        features: List[float] = []
        for axis, read in self._NUMERIC:
            value = read(point)
            low, high = self._ranges[axis]
            if value is None:
                features.append(1.0)
            elif high > low:
                features.append((float(value) - low) / (high - low))
            else:
                features.append(0.0)
        for axis, read in self._CATEGORICAL:
            value = read(point)
            for candidate in self._categories[axis]:
                features.append(1.0 if value == candidate else 0.0)
        return tuple(features)


# --------------------------------------------------------------------------- #
# Small dense linear algebra (pure python, deterministic).
# --------------------------------------------------------------------------- #
def _cholesky(matrix: List[List[float]]) -> List[List[float]]:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    The ridge term keeps the system comfortably positive definite; a tiny
    jitter guards the diagonal against float cancellation anyway.
    """

    n = len(matrix)
    lower = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            total = matrix[i][j]
            row_i, row_j = lower[i], lower[j]
            for k in range(j):
                total -= row_i[k] * row_j[k]
            if i == j:
                lower[i][j] = math.sqrt(max(total, 1e-12))
            else:
                lower[i][j] = total / lower[j][j]
    return lower


def _solve_cholesky(lower: List[List[float]], rhs: Sequence[float]) -> List[float]:
    """Solve ``L L^T x = rhs`` by forward then backward substitution."""

    n = len(lower)
    forward = [0.0] * n
    for i in range(n):
        total = rhs[i]
        row = lower[i]
        for k in range(i):
            total -= row[k] * forward[k]
        forward[i] = total / row[i]
    back = [0.0] * n
    for i in range(n - 1, -1, -1):
        total = forward[i]
        for k in range(i + 1, n):
            total -= lower[k][i] * back[k]
        back[i] = total / lower[i][i]
    return back


def _forward_solve(lower: List[List[float]], rhs: Sequence[float]) -> List[float]:
    """Solve ``L v = rhs`` (used for the predictive-variance quadratic form)."""

    n = len(lower)
    out = [0.0] * n
    for i in range(n):
        total = rhs[i]
        row = lower[i]
        for k in range(i):
            total -= row[k] * out[k]
        out[i] = total / row[i]
    return out


# --------------------------------------------------------------------------- #
class RFFSurrogate:
    """Bayesian ridge regression on linear + random Fourier features.

    The feature map is ``[1, x, cos(Wx + b)]``: a constant absorbs the
    objective's mean, the raw (linear) terms capture additive main effects
    -- which is what lets a handful of observations already rank "FM is the
    best gate" or "capacity helps" across the one-hot axes -- and the
    :data:`RFF_FEATURES` cosine features approximate an RBF kernel of
    lengthscale :data:`RFF_LENGTHSCALE` for the interactions.  ``observe``
    updates the sufficient statistics in O(size^2); ``predict`` factorises
    lazily and returns the posterior mean and predictive standard
    deviation.
    """

    name = "rff"

    def __init__(self, dim: int, *, seed: int = 0) -> None:
        if dim < 1:
            raise ValueError("encoded dimension must be positive")
        rng = random.Random(seed)
        self.dim = dim
        self._weights = [[rng.gauss(0.0, 1.0 / RFF_LENGTHSCALE)
                          for _ in range(dim)] for _ in range(RFF_FEATURES)]
        self._phases = [rng.uniform(0.0, 2.0 * math.pi)
                        for _ in range(RFF_FEATURES)]
        size = 1 + dim + RFF_FEATURES  # constant + linear + cosine features
        self._gram = [[RFF_RIDGE if i == j else 0.0 for j in range(size)]
                      for i in range(size)]
        self._moment = [0.0] * size
        self._sum_y = 0.0
        self._sum_y2 = 0.0
        self.observations = 0
        self._factor: Optional[List[List[float]]] = None
        self._theta: Optional[List[float]] = None

    def _features_of(self, x: Sequence[float]) -> List[float]:
        scale = math.sqrt(2.0 / RFF_FEATURES)
        phi = [1.0]
        phi.extend(x)
        for weights, phase in zip(self._weights, self._phases):
            total = phase
            for w, value in zip(weights, x):
                total += w * value
            phi.append(scale * math.cos(total))
        return phi

    def observe(self, x: Sequence[float], y: float) -> None:
        """Fold one observation into the sufficient statistics."""

        phi = self._features_of(x)
        gram = self._gram
        for i, phi_i in enumerate(phi):
            row = gram[i]
            self._moment[i] += phi_i * y
            for j, phi_j in enumerate(phi):
                row[j] += phi_i * phi_j
        self._sum_y += y
        self._sum_y2 += y * y
        self.observations += 1
        self._factor = None
        self._theta = None

    def _fit(self) -> None:
        self._factor = _cholesky(self._gram)
        self._theta = _solve_cholesky(self._factor, self._moment)

    def _noise_scale(self) -> float:
        """Residual-spread estimate scaling the predictive variance."""

        if self.observations < 2:
            return 1.0
        mean = self._sum_y / self.observations
        var = max(self._sum_y2 / self.observations - mean * mean, 1e-12)
        return math.sqrt(var)

    def predict(self, x: Sequence[float]) -> Tuple[float, float]:
        """``(mean, std)`` of the posterior prediction at ``x``."""

        if self.observations == 0:
            return 0.0, 1.0
        if self._factor is None:
            self._fit()
        phi = self._features_of(x)
        mean = sum(t * p for t, p in zip(self._theta, phi))
        solved = _forward_solve(self._factor, phi)
        quad = sum(value * value for value in solved)
        std = self._noise_scale() * math.sqrt(max(quad, 0.0))
        return mean, std


# --------------------------------------------------------------------------- #
class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _build_tree(xs: List[Sequence[float]], ys: List[float], indices: List[int],
                depth: int) -> _TreeNode:
    mean = sum(ys[i] for i in indices) / len(indices)
    node = _TreeNode(mean)
    if depth >= TREE_MAX_DEPTH or len(indices) < 2:
        return node
    best = None  # (sse, feature, threshold, left_indices, right_indices)
    dim = len(xs[indices[0]])
    for feature in range(dim):
        ordered = sorted(indices, key=lambda i: (xs[i][feature], i))
        values = [xs[i][feature] for i in ordered]
        # Prefix sums give each split's SSE in O(1).
        prefix_y = [0.0]
        prefix_y2 = [0.0]
        for i in ordered:
            prefix_y.append(prefix_y[-1] + ys[i])
            prefix_y2.append(prefix_y2[-1] + ys[i] * ys[i])
        total_y, total_y2 = prefix_y[-1], prefix_y2[-1]
        # Every split leaves at least one observation on each side, so
        # both sides of the comparison below always exist.
        for split in range(1, len(ordered)):
            if values[split - 1] == values[split]:
                continue  # cannot separate equal feature values
            left_n, right_n = split, len(ordered) - split
            left_y, left_y2 = prefix_y[split], prefix_y2[split]
            right_y, right_y2 = total_y - left_y, total_y2 - left_y2
            sse = (left_y2 - left_y * left_y / left_n) + \
                  (right_y2 - right_y * right_y / right_n)
            if best is None or sse < best[0] - 1e-15:
                threshold = 0.5 * (values[split - 1] + values[split])
                best = (sse, feature, threshold,
                        ordered[:split], ordered[split:])
    if best is None:
        return node
    _, node.feature, node.threshold, left_idx, right_idx = best
    node.left = _build_tree(xs, ys, left_idx, depth + 1)
    node.right = _build_tree(xs, ys, right_idx, depth + 1)
    return node


def _tree_predict(node: _TreeNode, x: Sequence[float]) -> float:
    while node.left is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


class TreeEnsembleSurrogate:
    """Bagged regression trees with disagreement-based predictive variance.

    Observations accumulate; the bag is refit lazily (dirty flag) the next
    time a prediction is requested.  Each tree trains on a seeded bootstrap
    resample, so the ensemble is bit-deterministic for a fixed
    (seed, observation sequence).
    """

    name = "trees"

    def __init__(self, dim: int, *, seed: int = 0) -> None:
        if dim < 1:
            raise ValueError("encoded dimension must be positive")
        self.dim = dim
        self.seed = seed
        self._xs: List[Sequence[float]] = []
        self._ys: List[float] = []
        self._fitted: Optional[List[_TreeNode]] = None

    @property
    def observations(self) -> int:
        return len(self._ys)

    def observe(self, x: Sequence[float], y: float) -> None:
        self._xs.append(tuple(x))
        self._ys.append(float(y))
        self._fitted = None

    def _fit(self) -> None:
        n = len(self._ys)
        indices = list(range(n))
        forest = []
        for tree in range(ENSEMBLE_TREES):
            # Integer seed mix: stable across processes and Python versions
            # (tuple seeding would hash, which TypeErrors on 3.11+).
            rng = random.Random(self.seed * 1_000_003 + tree * 8191 + n)
            sample = sorted(rng.choices(indices, k=n))
            forest.append(_build_tree(self._xs, self._ys, sample, 0))
        self._fitted = forest

    def predict(self, x: Sequence[float]) -> Tuple[float, float]:
        """``(mean, std)``: bag mean and across-tree disagreement."""

        if not self._ys:
            return 0.0, 1.0
        if self._fitted is None:
            self._fit()
        values = [_tree_predict(tree, x) for tree in self._fitted]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)


def make_surrogate(name: str, dim: int, *, seed: int = 0):
    """Build a surrogate model by CLI name."""

    if name == "rff":
        return RFFSurrogate(dim, seed=seed)
    if name == "trees":
        return TreeEnsembleSurrogate(dim, seed=seed)
    raise ValueError(f"unknown surrogate {name!r}; "
                     f"expected one of {SURROGATE_NAMES}")
