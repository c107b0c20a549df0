"""Receiver configurations and their validation; every tolerance, and the gates deciding with them.

The range map is homogeneous, so each configuration gets one scale 2^k, with
d_max * 2^-k in [1, 2]: the kernels that raise lengths to powers above two,
and the inversions' squares, work on the *unit geometry*, sides and
measurements times 2^-k (_to_unit), and scale points and raw values back
(_from_unit).  A power of two scales exactly, so answers keep their bits.

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
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, DuplicateReceiver, InvalidParam

# Default relative tolerance of every classification and inversion.
_RTOL = 1e-9
# Relative tolerance of the forward-map check that accepts an inverted source:
# invert_tdoa's, and the CLI's inversions when its --tol is tighter.
_VERIFY_RTOL = 1e-7
# Collinearity test: 2*area / (d21*d31) <= _COLLINEAR_RTOL  (i.e. sin of the
# angle at receiver 1 vanishes to this relative precision).
_COLLINEAR_RTOL = 1e-9
# Two points closer than this (relative to d_max) coincide: duplicate receivers, a point at one.
_DUPLICATE_RTOL = 1e-12
_MERGE_RTOL = 1e-9  # invert_tdoa merges accepted points this close (relative to d_max)
_NODE_RTOL = 1e-6  # tangent_cone's node match, relative to d_max or to a unit 4-vector
_HULL_INVERT_RTOL = 1e-5  # invert3's tolerance when the hull inverts a surface point
_FLOAT_MAX = sys.float_info.max
# The longest side whose square and dot products are finite, less a margin for rounding.
_SIDE_BOUND = 0.999999 * math.sqrt(_FLOAT_MAX)
# The shortest side whose square is a normal float (2^-511).
_SIDE_FLOOR = math.sqrt(sys.float_info.min)
# Each kernel's input bound B on |T| / d_max.  In the unit geometry d = d_max is in [1, 2],
# sides are at most d and measurements at most 2B.  Quartic: its coefficients are at most
# d^2, so its degree-4 part is at most 9 d^2 (2B)^4 < _FLOAT_MAX / 30, and the rest far less.
_QUARTIC_BOUND = 1e76
# Null-cone line: with kappa = d^2 / |w12| (w12 twice the area) and s = max(|tau|, d) <= 2B,
# b*b + |a*c| <= 136 kappa^2 s^6 and the sources lie within 400 kappa^3 s^2 / d of every
# receiver.  The thinnest accepted triangle (sine _COLLINEAR_RTOL, a side _DUPLICATE_RTOL * d)
# has kappa < 2e21: b*b + |a*c| < 4e286, squared distances < 2e294, sources * 2^k < 1e301.
_LINE_BOUND = 1e40
# Collinear lift and Stewart quadric: with tau and the lift (tau1 + t, tau2 + t, t) within
# B, the quadric's squares stay below 16 B^2 and the facet slacks below 3e151.
_LIFT_BOUND = 1e150


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
    """A validated receiver configuration (build via :func:`validate_config`).

    validate_config sets every field, and is the one place the pairwise
    geometry is computed:

    receivers       : the receivers, read-only rows of _receiver_stack
    d21, d31, d32   : pairwise distances |m_j - m_i| (d31 = d32 = None for
                      two receivers), d_max the largest
    _receiver_stack : the receivers as one read-only (n, dimension) array
    _k, _unit       : the scale's exponent, of the longest side (math.frexp),
                      and 2^-k, which takes a length to the unit geometry
    _sides          : read-only rows m2 - m1, m3 - m1, m3 - m2 (only m2 - m1
                      for two receivers) of the unit geometry, times 2^-k
    _gram           : (g21, g31, g32, p12, p13, p23), the NumPy dot products
                      of the unit sides: g21 = |m2 - m1|^2, ..., p12 = (m2 -
                      m1) . (m3 - m1), p13 = (m2 - m1) . (m3 - m2), p23 = (m3 -
                      m1) . (m3 - m2); (g21,) for two receivers

    The config-only builders behind _memo read these values instead of
    re-deriving them from the receivers.
    """

    receivers: tuple
    dimension: int
    kind: object
    d21: float
    d31: object
    d32: object
    d_max: float
    _receiver_stack: np.ndarray = field(repr=False)
    _k: int = field(repr=False)
    _unit: float = field(repr=False)
    _sides: np.ndarray = field(repr=False)
    _gram: tuple = field(repr=False)
    # the memo behind _memo: builder function -> value
    _constants: dict = field(default_factory=dict, repr=False)

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

    @property
    def is_collinear(self) -> bool:
        return isinstance(self.kind, CollinearTriple)

    @property
    def canonical_receivers(self) -> tuple:
        """Receivers in canonical order (collinear triples only)."""
        if not self.is_collinear:
            return self.receivers
        return tuple(self.receivers[i] for i in self.kind.order)

    def _memo(self, build):
        """build(self), computed on first use and kept for this configuration.

        For constants that depend only on the receivers (quartic
        coefficients, invert3's reference system, tangency points).  The memo
        is a plain field, so it dies with the configuration.  Builders read
        the fields validate_config set (distances, the receiver stack, and
        _sides and _gram of the unit geometry), not config.vec or config.m.
        build must return an immutable or read-only value that holds no
        reference to the configuration.  Two threads may both build a missing
        value; builders are pure, so either result serves.  Builders never
        return None.
        """
        value = self._constants.get(build)
        if value is None:
            value = self._constants[build] = build(self)
        return value

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
        diff = (x[..., None, :] - self._receiver_stack) * self._unit
        # np.linalg.norm(diff, axis=-1) without its argument handling, on the unit geometry
        return np.sqrt(np.add.reduce(diff * diff, axis=-1)) / self._unit


def _to_unit(config: SensorConfig, v, bound: float, what: str):
    """Measurements v times 2^-k, a list of floats (one measurement, _measurement's) or an
    array (a block); InvalidParam beyond bound * d_max."""
    row = isinstance(v, list)
    largest = max(map(abs, v)) if row else float(np.abs(v).max(initial=0.0))
    if largest > bound * config.d_max:
        raise InvalidParam(f"{what}: |{largest:g}| > {bound:g} d_max")
    unit = config._unit
    return v if unit == 1.0 else [x * unit for x in v] if row else v * unit


def _from_unit(config: SensorConfig, value, degree: int = 1):
    """A float or array of the unit geometry of length degree `degree` in the caller's units,
    times 2^(degree k): correctly rounded, +-inf or 0.0 outside the float range, silently."""
    if not config._k:
        return value
    if isinstance(value, float):
        try:
            return math.ldexp(value, degree * config._k)
        except OverflowError:
            return math.copysign(math.inf, value)
    with np.errstate(over="ignore"):
        return np.ldexp(value, degree * config._k)


def _cross3(u, v) -> list:
    """np.cross of two 3-vectors given as float sequences, as a list of floats, bit for bit."""
    (x1, y1, z1), (x2, y2, z2) = u, v
    return [y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2]


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float vector: np.linalg.norm(v), without its argument handling."""
    return math.sqrt(float(v @ v))


def _solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(M, b) bit for bit, without its Python wrapper: LAPACK's gufunc solve1 for
    b of shape (2,), or (N, 2) (each row the one-vector solve).  Every M here holds two sides of
    a GeneralTriangle, whose sine exceeds _COLLINEAR_RTOL, so M is never singular (where the
    wrapper raised LinAlgError, the gufunc warns and returns NaN)."""
    return _umath_linalg.solve1(M, b, signature="dd->d")


def _sign(x: float, rtol: float) -> int:
    """The sign of a scale-free x, 0 within rtol: the null-cone, surface and quadric zero test."""
    return 0 if abs(x) <= rtol else 1 if x > 0.0 else -1


_QUADRATIC_FACETS = frozenset(("Gamma1", "Gamma2", "Gamma3"))  # slacks of length^2


def _facet_verdict(slacks, rtol: float, d_max: float) -> tuple:
    """(active facets, verdict) of (facet, signed slack) pairs: Q2, Q3, P2 and the collinear
    lift; each tolerance is rtol * d_max, or rtol * d_max^2 on the _QUADRATIC_FACETS."""
    tol_lin = rtol * d_max
    active, outside = [], False
    for k, v in slacks:
        tol = rtol * d_max ** 2 if k in _QUADRATIC_FACETS else tol_lin
        if v < -tol:
            outside = True
        elif v <= tol:
            active.append(k)
    return tuple(active), "Outside" if outside else "OnFacet" if active else "Interior"


def _measurement(v, k: int, what: str = "ranges") -> list:
    """A measurement vector of k finite floats, as a list of Python floats; raises on any other
    input."""
    v = np.asarray(v, dtype=float).reshape(-1).tolist()
    if len(v) != k:
        raise DimensionMismatch(f"expected {k} {what}, got {len(v)}")
    if not all(map(math.isfinite, v)):  # ~10x cheaper than np.isfinite here
        raise InvalidParam(f"{what} must be finite, got {v}")
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


def _canonical_collinear(points, gram: tuple, dists: tuple):
    """The CollinearTriple of three (near-)collinear points, else None.

    gram and dists: the points' SensorConfig._gram and (d21, d31, d32).
    Its order lists original indices as (endpoint-1, endpoint-2, middle).  The
    middle point is found by a dot test (it sees the other two in opposite
    directions), which is stable under small perturbations off the line; an
    acute triangle has no middle and yields None.
    """
    _, _, _, p12, p13, p23 = gram
    d21, d31, d32 = dists
    # per middle i: (m_j - m_i) . (m_k - m_i), the endpoints [j, k], |m_k - m_j|,
    # |m_j - m_i| and |m_k - m_i|
    for middle, dot, ends, d_end, d0, d1 in ((0, p12, [1, 2], d32, d21, d31),
                                            (1, -p13, [0, 2], d31, d21, d32),
                                            (2, p23, [0, 1], d21, d31, d32)):
        if dot <= 0.0:
            break
    else:
        return None
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
    return CollinearTriple(rho=rho, order=(e1, e2, middle), d21=d_end)


# receiver index pairs (i, j) of the sides m_j - m_i, in the order of _sides
_PAIRS = ((0, 1), (0, 2), (1, 2))
# the sides of three receivers dotted into _gram: left factors, right factors
_GRAM_LEFT, _GRAM_RIGHT = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)


def validate_config(receivers, dimension=None) -> SensorConfig:
    """Validate receiver positions and build a :class:`SensorConfig`.

    Raises DimensionMismatch for wrong counts/coordinate lengths, DuplicateReceiver
    for coincident receivers and InvalidParam for sides whose squares are not
    normal floats (_SIDE_FLOOR, _SIDE_BOUND).  Three-receiver configurations
    are classified as GeneralTriangle or CollinearTriple (canonical order and
    rho recorded, see module docstring).  The scale, the pairwise sides, their
    dot products and distances are computed here once (see SensorConfig).
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
    stack = np.array(pts)
    coords = stack.tolist()
    if not all(math.isfinite(c) for p in coords for c in p):
        raise DimensionMismatch("receiver coordinates must be finite")
    stack.setflags(write=False)

    n = len(pts)
    # the sides on floats, which subtract as the arrays m_j - m_i do
    side_rows = [[b - a for a, b in zip(coords[i], coords[j])] for i, j in _PAIRS[:2 * n - 3]]
    raw = [math.hypot(*row) for row in side_rows]
    longest = max(raw)
    if not longest <= _SIDE_BOUND:  # the squares below would overflow
        raise InvalidParam(f"receivers too far apart: a side of {longest:g} > {_SIDE_BOUND:g}")
    if 0.0 < longest < _SIDE_FLOOR:  # every side is below the floor: name the shortest
        i, j = _PAIRS[raw.index(min(raw))]
        raise InvalidParam(f"receivers {i + 1} and {j + 1} too close: a side of {min(raw):g}")
    # the one scale (coincident receivers, longest = 0, raise below); the rest is unit geometry
    k = math.frexp(longest)[1] - 1
    unit = math.ldexp(1.0, -k)
    side_rows = [[c * unit for c in row] for row in side_rows]
    sides = np.array(side_rows)
    sides.setflags(write=False)
    if n == 2:
        gram = (float(sides[0] @ sides[0]),)
    else:
        # one stack of (1, k) @ (k, 1) products, each the dot of a 1-D u @ v bit for bit
        left, right = sides.take(_GRAM_LEFT, axis=0), sides.take(_GRAM_RIGHT, axis=0)
        gram = tuple((left[:, None, :] @ right[:, :, None]).ravel().tolist())
    dists = [math.sqrt(g) / unit for g in gram[:n]]
    d_max = max(dists)
    for (i, j), d in zip(_PAIRS, dists):
        if d <= _DUPLICATE_RTOL * d_max:
            raise DuplicateReceiver(f"receivers {i + 1} and {j + 1} coincide (d = {d:g})")
    if min(dists) < _SIDE_FLOOR:  # its square, and squared ranges near it, are subnormal
        i, j = _PAIRS[dists.index(min(dists))]
        raise InvalidParam(f"receivers {i + 1} and {j + 1} too close: a side of {min(dists):g}")

    if n == 2:
        kind = TwoReceivers()
        dists += [None, None]
    else:
        u, v = side_rows[:2]  # m2 - m1 and m3 - m1
        area2 = abs(u[0] * v[1] - u[1] * v[0]) if dim == 2 else math.hypot(*_cross3(u, v))
        if area2 / (dists[0] * dists[1] * unit * unit) <= _COLLINEAR_RTOL:
            kind = _canonical_collinear(stack, gram, dists)
            assert kind is not None  # exactly collinear points have a middle
        else:
            kind = GeneralTriangle()

    d21, d31, d32 = dists
    return SensorConfig(receivers=tuple(stack), dimension=dim, kind=kind, d21=d21, d31=d31,
                        d32=d32, d_max=d_max, _receiver_stack=stack, _k=k, _unit=unit,
                        _sides=sides, _gram=gram)
