"""Three-receiver range (TOA) geometry in the plane.

The forward map sends a source position to its three receiver distances
(T1, T2, T3).  For receivers in general position the image is a surface: the
intersection of a quartic with the feasible polyhedron, and the map is
injective there (fiber size 1).  For collinear receivers the image is cut out
by a quadric (a consequence of Stewart's relation) and the generic fiber is a
mirror pair across the receiver line (fiber size 2).

Inversion is linear once the squared-range differences are formed: one 2x2
system, solved only in _foot, gives the source's foot point on the receiver
plane.  invert3 verifies it against the forward map, exterior_point adds the
time -T_i, the circumcenter is the foot at equal ranges, and invert3d_r3 adds
the height above the plane.  The reference receiver, the vertex opposite the
longest side, minimizes the system's condition number (_reference_system).

One measurement is parsed once, into a list of Python floats
(config._measurement), and worked on as floats, which give the same bits as
NumPy's elementwise ops on the same operands in the same order.  Squares are
products (x * x): the Stewart quadric takes the same bits on floats and on
(N,) columns.  NumPy stays where a test or golden pins bits that floats
cannot reproduce: the fourth powers of the quartic (kummer._poly_eval) and
_foot's 2x2 solve (LAPACK's LU through config._solve, np.linalg.solve's
gufunc without its wrapper; a closed form matches it only with fused
multiply-adds, which Python floats lack).  Points are NumPy arrays; squares
are taken on the unit geometry (config.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    _DUPLICATE_RTOL,
    _LIFT_BOUND,
    _RTOL,
    CollinearTriple,
    SensorConfig,
    _cross3,
    _from_unit,
    _measurement,
    _norm,
    _require_planar_triple,
    _sign,
    _solve,
    _to_unit,
)
from .errors import AtReceiver, DegenerateConfig, DimensionMismatch, NotCollinear
from .kummer import _q3_report, _quartic_gate
from .spacetime import SpacetimeVec3
from .toa2 import _mirror_pair, _two_sphere


@dataclass(frozen=True)
class SolutionSet:
    """A finite set of localized source positions."""

    points: tuple

    @property
    def kind(self) -> str:
        return {0: "Empty", 1: "One", 2: "Two"}[len(self.points)]


@dataclass(frozen=True, eq=False)
class JacobianReport:
    """Differential of the range map at a point.

    matrix     : (n, dim) array of unit vectors from receivers to the point
    rank       : numerical rank
    degenerate : True when the differential drops rank (receiver-line points)
    """

    matrix: np.ndarray
    rank: int
    degenerate: bool


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Feasibility of a range triple for a three-receiver configuration.

    in_octant                  : all ranges nonnegative
    quartic_or_quadric_residual: normalized defining-polynomial value
                                 (quartic / d_max^6 in general position,
                                 quadric / d_max^2 for collinear receivers)
    q3                         : polyhedral membership report
    verdict                    : "Feasible" | "Infeasible"
    fiber                      : generic number of source points
    reason                     : None when feasible, else first failed test
    quartic                    : the raw quartic value (quartic_residual), None
                                 for collinear receivers
    """

    in_octant: bool
    quartic_or_quadric_residual: float
    q3: object
    verdict: str
    fiber: int
    reason: object
    quartic: object


def forward3(config: SensorConfig, x) -> np.ndarray:
    """Ranges (T1, T2, T3) from source position x."""
    _require_planar_triple(config)
    return config.distances(x)


def jacobian3(config: SensorConfig, x) -> JacobianReport:
    """Differential of the range map: rows are unit vectors receiver -> x.

    Raises AtReceiver when x coincides with a receiver (the map is not
    differentiable there).  The differential drops rank exactly on the
    receiver line of a collinear configuration.
    """
    _require_planar_triple(config)
    x = np.asarray(x, dtype=float).reshape(-1)
    d = config.distances(x)
    if np.min(d) <= _DUPLICATE_RTOL * config.d_max:
        raise AtReceiver(f"point coincides with receiver {int(np.argmin(d)) + 1}")
    rows = np.stack([(x - config.m(i)) / d[i - 1] for i in (1, 2, 3)])
    s = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(s > _RTOL * s[0]))
    return JacobianReport(matrix=rows, rank=rank, degenerate=rank < 2)


def exterior_point(config: SensorConfig, T, i: int = 1) -> SpacetimeVec3:
    """Spacetime solution of the two linearized range-difference equations.

    Returns the past-pointing spacetime vector (x, -T_i): x is the spatial
    intersection point of the three range circles, _foot's point, the same
    bits for every reference index i.  It equals the Lorentzian-cross
    construction from the lifted constraint normals, kept as the tests'
    oracle.  Requires receivers in general position.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("exterior point construction needs non-collinear receivers")
    if i not in (1, 2, 3):
        raise DimensionMismatch(f"receiver index must be 1, 2 or 3, got {i}")
    T = _measurement(T, 3)
    x, y = _foot(config, T)[0].tolist()
    return SpacetimeVec3(x=x, y=y, t=-T[i - 1])


def invert3(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet:
    """Invert the three-receiver range map; empty when T is not realizable.

    Solves the linear system of squared-range differences with the
    best-conditioned reference receiver (_foot), then verifies the candidate
    against the forward map at relative tolerance rtol.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: use invert3_collinear (mirror-pair fibers)"
        )
    T = _measurement(T, 3)
    return SolutionSet(points=_remapping(config, (_foot(config, T)[0],), T, rtol))


def _foot(config: SensorConfig, T: list) -> tuple:
    """(x, u, T_i): the foot point x = m_i + u of the floats T, and T_i of the unit geometry.

    u solves (m_j - m_i) . u = (|m_j - m_i|^2 + T_i^2 - T_j^2) / 2, and likewise
    for k, at the reference i of _reference_system; in space u = Q w, with R^T w
    the same right-hand side.  A spatial source's height is left to the caller.
    """
    i, j, k, M, gj, gk, Q, _ = config._memo(_reference_system)
    unit = config._unit
    Ti, Tj, Tk = T[i - 1] * unit, T[j - 1] * unit, T[k - 1] * unit
    half = 0.5 / unit  # the right-hand side times 2^k scales u back (floats overflow silently)
    u = _solve(M, np.array([(gj + Ti * Ti - Tj * Tj) * half, (gk + Ti * Ti - Tk * Tk) * half]))
    if Q is not None:
        u = Q @ u
    return config.receivers[i - 1] + u, u, Ti


def _reference_system(config: SensorConfig) -> tuple:
    """_foot's system at the best-conditioned reference receiver, a config-only constant.

    (i, j, k, M, |m_j - m_i|^2, |m_k - m_i|^2, Q, n) of the unit geometry, arrays
    read-only: in the plane M has rows m_j - m_i and m_k - m_i, and Q = n = None; in space Q R is
    the QR factorization of those sides as columns, M = R^T, and n the unit
    normal along (m2 - m1) x (m3 - m1).  Read it through
    config._memo(_reference_system).

    The three candidate matrices share |det M M^T| = (2 * area)^2, and for
    two sides cond + 1/cond = |M|_F^2 / (2 * area), so the least condition
    number has the least |M|_F^2, the sum of the two squared sides at m_i: i
    is the vertex opposite the longest side.  The sides are compared by their
    float squared lengths (config._gram), and among equal ones the lowest i
    wins.  So the float equilateral (0,0) (1,0) (0.5, sqrt(3)/2), where
    g21 = 1 exceeds g31 = g32 = 1 - 2^-53, takes i = 3.
    """
    g21, g31, g32 = config._gram[:3]
    # per reference i = 1, 2, 3: (i, j, k, |m_j - m_i|^2, |m_k - m_i|^2), and the
    # squared length of the side opposite m_i
    candidates = ((1, 2, 3, g21, g31), (2, 1, 3, g21, g32), (3, 1, 2, g31, g32))
    opposite = (g32, g31, g21)
    i, j, k, gj, gk = candidates[opposite.index(max(opposite))]
    stack = config._receiver_stack
    M = (stack.take((j - 1, k - 1), axis=0) - stack[i - 1]) * config._unit
    Q = n = None
    if config.dimension == 3:
        Q, R = np.linalg.qr(M.T)
        M = R.T
        n = np.array(_cross3(*config._sides[:2].tolist()))
        n = n / _norm(n)
        Q.setflags(write=False)
        n.setflags(write=False)
    M.setflags(write=False)
    return i, j, k, M, gj, gk, Q, n


def _range(x: list, m: list, unit: float) -> float:
    """The distance of a point x from a receiver m, both given as floats, in the unit geometry.

    It is the square root of the squared coordinate differences, each times
    unit = 2^-k, summed left to right: config.distances times 2^-k, bit for
    bit, as numpy sums fewer than eight terms in order.
    """
    s = 0.0
    for a, b in zip(x, m):
        d = (a - b) * unit
        s += d * d
    return math.sqrt(s)


def _remapping(config: SensorConfig, points: tuple, T: list, rtol: float) -> tuple:
    """The points (at least one) whose ranges match the floats T within rtol * d_max.

    The ranges are _range's: config.distances on the unit geometry, bit for bit.
    """
    unit = config._unit
    tol = rtol * config.d_max * unit
    receivers = config._receiver_stack.tolist()
    keep = []
    for x in points:
        xs = x.tolist()
        for m, t in zip(receivers, T):
            if not abs(_range(xs, m, unit) - t * unit) <= tol:  # a NaN range misses too
                break
        else:
            keep.append(x)
    return tuple(keep)


def collinear_quadric_residual(config: SensorConfig, T) -> float:
    """Stewart quadric value at T (canonical labels) for a collinear triple.

    Zero exactly on the cone swept by the range map; the sign is positive
    off the receiver line's reach (endpoint-weighted mean square exceeding
    the middle range square).  InvalidParam beyond _LIFT_BOUND * d_max.
    """
    if not isinstance(config.kind, CollinearTriple):
        raise NotCollinear("quadric residual is defined for collinear triples only")
    return _from_unit(config, _canonical_stewart(config, _measurement(T, 3)), 2)


def _stewart(rho: float, d21: float, T1: float, T2: float, T3: float) -> float:
    """The Stewart quadric of endpoints d21 apart, ratio rho, at canonical T1, T2, T3: floats,
    or (N,) columns (a float among them stands for a constant column).  The squares are
    products, so a column's entries are the float calls on its rows, bit for bit."""
    return (1.0 - rho) * (T1 * T1) + rho * (T2 * T2) - T3 * T3 - rho * (1.0 - rho) * d21 * d21


def _canonical_stewart(config: SensorConfig, T: list) -> float:
    """_stewart of the unit geometry at the floats T in the original receiver order (_to_unit)."""
    kind, T = config.kind, _to_unit(config, T, _LIFT_BOUND, "ranges too large for the quadric")
    return _stewart(kind.rho, kind.d21 * config._unit, *(T[k] for k in kind.order))


def _stewart_gate(config: SensorConfig, value: float, rtol: float) -> tuple:
    """(value / d_max^2, on): a Stewart quadric value of the unit geometry made scale-free,
    and whether it lies within rtol of zero (config._sign); the one on-quadric test of
    classify3, the collinear inversions and classify_tau's flat lifts."""
    residual = value / (config.d_max * config._unit) ** 2
    return residual, _sign(residual, rtol) == 0


def _collinear_fiber(config: SensorConfig, T: list, rtol: float):
    """Stewart gate, then _two_sphere on the canonical endpoints (None if off the quadric)."""
    kind = config.kind
    if not _stewart_gate(config, _canonical_stewart(config, T), rtol)[1]:
        return None
    i1, i2, _ = kind.order
    e1, e2 = config.receivers[i1], config.receivers[i2]
    return _two_sphere(e1, e2, T[i1], T[i2], kind.d21, rtol)


def invert3_collinear(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet:
    """Invert the range map for collinear receivers (mirror-pair fibers).

    Checks the Stewart quadric compatibility first, then solves the
    two-endpoint problem: interior pairs give the mirror pair across the
    receiver line, boundary pairs the single on-line point.  As in invert3,
    mirror points are returned only when their ranges match T within
    rtol * d_max.
    """
    _require_planar_triple(config)
    if not isinstance(config.kind, CollinearTriple):
        raise NotCollinear("invert3_collinear requires a collinear configuration")
    T = _measurement(T, 3)
    fiber = _collinear_fiber(config, T, rtol)
    if fiber is None:
        return SolutionSet(points=())
    points = _mirror_pair(*fiber)
    if fiber[2] is not None:  # the Q2-boundary point is snapped onto the line, so not re-mapped
        points = _remapping(config, points, T, rtol)
    return SolutionSet(points=points)


def classify3(config: SensorConfig, T, rtol: float = _RTOL) -> FeasibilityReport:
    """Feasibility of a range triple: octant, defining polynomial, polyhedron.

    General position: T is realizable iff it is nonnegative, lies on the
    quartic range surface, and sits inside the feasible polyhedron; the fiber
    is a single point.  Collinear receivers: the quartic degenerates to the
    square of the Stewart quadric; interior points of the (four-facet)
    polyhedron have mirror-pair fibers.
    """
    _require_planar_triple(config)
    T = _measurement(T, 3)
    in_octant = min(T) >= -rtol * config.d_max
    q3 = _q3_report(config, T, rtol)

    if config.is_collinear:
        quartic = None
        residual, on_surface = _stewart_gate(config, _canonical_stewart(config, T), rtol)
        fiber_interior = 2
    else:
        quartic, residual, on_surface = _quartic_gate(config, T, rtol)
        fiber_interior = 1

    if not in_octant:
        verdict, fiber, reason = "Infeasible", 0, "not in first octant"
    elif not on_surface:
        verdict, fiber, reason = "Infeasible", 0, "not on range surface"
    elif q3.verdict == "Outside":
        verdict, fiber, reason = "Infeasible", 0, "outside the feasible polyhedron"
    elif q3.verdict == "OnFacet":
        verdict, fiber, reason = "Feasible", 1, None
    else:
        verdict, fiber, reason = "Feasible", fiber_interior, None
    return FeasibilityReport(
        in_octant=in_octant,
        quartic_or_quadric_residual=float(residual),
        q3=q3,
        verdict=verdict,
        fiber=fiber,
        reason=reason,
        quartic=quartic,
    )
