"""Receiver configurations and their validation.

A configuration is 2 or 3 receivers in the plane or in space.  Three-receiver
configurations are classified as a general triangle or as a collinear triple;
collinear triples get a *canonical relabeling*: the middle receiver becomes
receiver 3 and the endpoints become receivers 1 and 2, ordered so that

    rho = d(m1, m3) / d(m1, m2)  lies in (0, 1/2],

with a lexicographic tie-break on the endpoint coordinates when rho is exactly
1/2.  The canonical order is recorded as original indices, so the relabeling
is reproducible and identical for every input ordering of the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DuplicateReceiver, InvalidParam

# Default relative tolerance of every classification and inversion.
_RTOL = 1e-9
# Collinearity test: 2*area / (d21*d31) <= _COLLINEAR_RTOL  (i.e. sin of the
# angle at receiver 1 vanishes to this relative precision).
_COLLINEAR_RTOL = 1e-9
# Receivers closer than this (relative to the largest pairwise distance)
# are considered duplicates.
_DUPLICATE_RTOL = 1e-12


@dataclass(frozen=True)
class TwoReceivers:
    """Marker: configuration with exactly two (distinct) receivers."""


@dataclass(frozen=True)
class GeneralTriangle:
    """Marker: three receivers in general position."""


@dataclass(frozen=True)
class CollinearTriple:
    """Three collinear receivers, canonically relabeled.

    order : original indices (endpoint-1, endpoint-2, middle); the canonical
            receivers are (receivers[order[0]], receivers[order[1]],
            receivers[order[2]]).
    rho   : d(endpoint-1, middle) / d(endpoint-1, endpoint-2), in (0, 1/2].
    d21   : distance between the two endpoints.
    """

    rho: float
    order: tuple
    d21: float


@dataclass(frozen=True, eq=False)
class SensorConfig:
    """A validated receiver configuration (build via :func:`validate_config`)."""

    receivers: tuple
    dimension: int
    kind: object

    @property
    def n(self) -> int:
        return len(self.receivers)

    def m(self, i: int) -> np.ndarray:
        """Receiver i (1-based, matching the d21/d31/d32 naming)."""
        if not 1 <= i <= self.n:
            raise DimensionMismatch(f"receiver index must be in 1..{self.n}, got {i}")
        return self.receivers[i - 1]

    def vec(self, j: int, i: int) -> np.ndarray:
        """Displacement m_j - m_i (1-based indices)."""
        return self.m(j) - self.m(i)

    def dist(self, j: int, i: int) -> float:
        return _norm(self.vec(j, i))

    @cached_property
    def d21(self) -> float:
        return self.dist(2, 1)

    @cached_property
    def d31(self) -> float:
        return self.dist(3, 1)

    @cached_property
    def d32(self) -> float:
        return self.dist(3, 2)

    @cached_property
    def d_max(self) -> float:
        if self.n == 2:
            return self.d21
        return max(self.d21, self.d31, self.d32)

    @property
    def is_collinear(self) -> bool:
        return isinstance(self.kind, CollinearTriple)

    @property
    def canonical_receivers(self) -> tuple:
        """Receivers in canonical order (collinear triples only)."""
        if not self.is_collinear:
            return self.receivers
        return tuple(self.receivers[i] for i in self.kind.order)

    @cached_property
    def _constants(self) -> dict:
        """The memo behind :meth:`_memo`: builder function -> value."""
        return {}

    def _memo(self, build):
        """build(self), computed on first use and kept for this configuration.

        For constants that depend only on the receivers (quartic
        coefficients, invert3's reference system, tangency points).  Like the
        cached properties here, the memo lives in the instance ``__dict__``,
        so it dies with the configuration.  build must return an immutable
        or read-only value that holds no reference to the configuration.
        Two threads may both build a missing value; builders are pure, so
        either result serves.  Builders never return None.
        """
        value = self._constants.get(build)
        if value is None:
            value = self._constants[build] = build(self)
        return value

    @cached_property
    def _receiver_stack(self) -> np.ndarray:
        """The receivers as one read-only (n, dimension) array."""
        stack = np.stack(self.receivers)
        stack.setflags(write=False)
        return stack

    def distances(self, x) -> np.ndarray:
        """Euclidean distances from point(s) x to every receiver.

        x has shape (dimension,) or (..., dimension); the result appends one
        axis of length n over receivers.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {x.shape[-1]}, receivers have {self.dimension}"
            )
        diff = x[..., None, :] - self._receiver_stack
        # np.linalg.norm(diff, axis=-1) without its argument handling
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float vector: np.linalg.norm(v), without its argument handling."""
    return math.sqrt(float(v @ v))


def _measurement(v, k: int, what: str = "ranges") -> np.ndarray:
    """A measurement vector of k finite floats; raises on any other input."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != k:
        raise DimensionMismatch(f"expected {k} {what}, got {v.shape[0]}")
    if not all(map(math.isfinite, v.tolist())):  # ~10x cheaper than np.isfinite here
        raise InvalidParam(f"{what} must be finite, got {v.tolist()}")
    return v


def _measurement_rows(v, k: int, what: str = "ranges") -> np.ndarray:
    """An (N, k) array of finite floats, one measurement per row; raises on any other input."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != k:
        raise DimensionMismatch(f"expected an (N, {k}) array of {what}, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.argmin(np.isfinite(v).all(axis=1)))
        raise InvalidParam(f"{what} must be finite, got {v[bad].tolist()} in row {bad}")
    return v


def _require_planar_triple(config: SensorConfig) -> None:
    if config.n != 3:
        raise DimensionMismatch("expected a three-receiver configuration")
    if config.dimension != 2:
        raise DimensionMismatch("expected planar receivers (use the 3D variants otherwise)")


def _canonical_collinear(points):
    """Return (order, rho, d21) for three (near-)collinear points, else None.

    `order` lists original indices as (endpoint-1, endpoint-2, middle).  The
    middle point is found by a dot test (it sees the other two in opposite
    directions), which is stable under small perturbations off the line; an
    acute triangle has no middle and yields None.
    """
    middle = None
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        if float(np.dot(points[j] - points[i], points[k] - points[i])) <= 0.0:
            middle = i
            break
    if middle is None:
        return None
    ends = [t for t in range(3) if t != middle]
    d_end = _norm(points[ends[1]] - points[ends[0]])
    d0 = _norm(points[middle] - points[ends[0]])
    d1 = _norm(points[middle] - points[ends[1]])
    if d0 < d1:
        e1, e2 = ends
        rho = d0 / d_end
    elif d1 < d0:
        e1, e2 = ends[1], ends[0]
        rho = d1 / d_end
    else:
        # exact tie: pick the lexicographically smaller endpoint as e1
        if tuple(points[ends[0]]) <= tuple(points[ends[1]]):
            e1, e2 = ends
        else:
            e1, e2 = ends[1], ends[0]
        rho = d0 / d_end
    return (e1, e2, middle), rho, d_end


def validate_config(receivers, dimension=None) -> SensorConfig:
    """Validate receiver positions and build a :class:`SensorConfig`.

    Raises DimensionMismatch for wrong counts/coordinate lengths and
    DuplicateReceiver for coincident receivers.  Three-receiver configurations
    are classified as GeneralTriangle or CollinearTriple (canonical order and
    rho recorded, see module docstring).
    """
    pts = [np.asarray(p, dtype=float).reshape(-1) for p in receivers]
    if len(pts) not in (2, 3):
        raise DimensionMismatch(f"expected 2 or 3 receivers, got {len(pts)}")
    dims = {p.shape[0] for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch(f"receivers have mixed coordinate lengths {sorted(dims)}")
    dim = dims.pop()
    if dim not in (2, 3):
        raise DimensionMismatch(f"receivers must be 2D or 3D, got {dim}D")
    if dimension is not None and dimension != dim:
        raise DimensionMismatch(f"declared dimension {dimension} but receivers are {dim}D")
    if not all(math.isfinite(c) for p in pts for c in p.tolist()):
        raise DimensionMismatch("receiver coordinates must be finite")

    n = len(pts)
    dists = {}
    d_max = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dists[(i, j)] = _norm(pts[j] - pts[i])
            d_max = max(d_max, dists[(i, j)])
    for (i, j), d in dists.items():
        if d <= _DUPLICATE_RTOL * d_max:
            raise DuplicateReceiver(f"receivers {i + 1} and {j + 1} coincide (d = {d:g})")

    if n == 2:
        kind = TwoReceivers()
    else:
        v21 = pts[1] - pts[0]
        v31 = pts[2] - pts[0]
        if dim == 2:
            area2 = abs(float(v21[0] * v31[1] - v21[1] * v31[0]))
        else:
            area2 = _norm(np.cross(v21, v31))
        if area2 / (dists[(0, 1)] * dists[(0, 2)]) <= _COLLINEAR_RTOL:
            canonical = _canonical_collinear(pts)
            assert canonical is not None  # exactly collinear points have a middle
            order, rho, d_end = canonical
            kind = CollinearTriple(rho=rho, order=order, d21=d_end)
        else:
            kind = GeneralTriangle()

    frozen = tuple(p.copy() for p in pts)
    for p in frozen:
        p.setflags(write=False)
    return SensorConfig(receivers=frozen, dimension=dim, kind=kind)
