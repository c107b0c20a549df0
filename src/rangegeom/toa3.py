"""Three-receiver range (TOA) geometry in the plane.

The forward map sends a source position to its three receiver distances
(T1, T2, T3).  For receivers in general position the image is a surface: the
intersection of a quartic with the feasible polyhedron, and the map is
injective there (fiber size 1).  For collinear receivers the image is cut out
by a quadric (a consequence of Stewart's relation) and the generic fiber is a
mirror pair across the receiver line (fiber size 2).

Inversion is linear once the squared-range differences are formed; the
reference receiver is chosen to minimize the condition number of the 2x2
system, once per configuration (it depends only on the receivers), and every
candidate is verified against the forward map.

One measurement is parsed once and worked on as Python floats, which give the
same bits as NumPy's elementwise ops on the same operands in the same order.
NumPy stays where it sets bits that floats cannot reproduce: the fourth
powers of the quartic (kummer._poly_eval: NumPy's power loop for T ** e,
e > 2, rounds differently from libm pow) and invert3's 2x2 solve (LAPACK's
LU, matched by a closed form only with fused multiply-adds, which Python
floats lack).  Points are returned as NumPy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    _RTOL,
    CollinearTriple,
    SensorConfig,
    _measurement,
    _require_planar_triple,
)
from .errors import AtReceiver, DegenerateConfig, DimensionMismatch, InvalidParam, NotCollinear
from .spacetime import SpacetimeVec3, hodge_cross, lift, triple_form
from .toa2 import _mirror_pair, _two_sphere

_AT_RECEIVER_RTOL = 1e-12


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
    """

    in_octant: bool
    quartic_or_quadric_residual: float
    q3: object
    verdict: str
    fiber: int
    reason: object


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
    if np.min(d) <= _AT_RECEIVER_RTOL * config.d_max:
        raise AtReceiver(f"point coincides with receiver {int(np.argmin(d)) + 1}")
    rows = np.stack([(x - config.m(i)) / d[i - 1] for i in (1, 2, 3)])
    s = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(s > _RTOL * s[0]))
    return JacobianReport(matrix=rows, rank=rank, degenerate=rank < 2)


def exterior_point(config: SensorConfig, T, i: int = 1) -> SpacetimeVec3:
    """Spacetime solution of the two linearized range-difference equations.

    Returns the past-pointing spacetime vector (x, -T_i): the spatial
    intersection point x of the three range circles -- independent of the
    chosen reference index -- computed via the Lorentzian cross product of
    the lifted constraint normals, with time component -T_i.  Requires
    receivers in general position.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("exterior point construction needs non-collinear receivers")
    if i not in (1, 2, 3):
        raise DimensionMismatch(f"receiver index must be 1, 2 or 3, got {i}")
    T = _measurement(T, 3)
    j, k = [t for t in (1, 2, 3) if t != i]
    dj = config.vec(j, i)
    dk = config.vec(k, i)
    Ti, Tj, Tk = float(T[i - 1]), float(T[j - 1]), float(T[k - 1])
    alpha = float(dj @ dj) + Ti * Ti - Tj * Tj
    beta = float(dk @ dk) + Ti * Ti - Tk * Tk
    w = alpha * dk - beta * dj
    e3 = np.array([0.0, 0.0, 1.0])
    denom = 2.0 * triple_form(lift(dj), lift(dk), e3)
    u = hodge_cross(lift(w), e3) / denom
    p = config.m(i) + u[:2]
    return SpacetimeVec3(x=float(p[0]), y=float(p[1]), t=-Ti)


def invert3(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet:
    """Invert the three-receiver range map; empty when T is not realizable.

    Solves the linear system of squared-range differences with the
    best-conditioned reference receiver, then verifies the candidate against
    the forward map at relative tolerance rtol.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: use invert3_collinear (mirror-pair fibers)"
        )
    T = _measurement(T, 3).tolist()

    i, j, k, M, gj, gk = config._memo(_reference_system)
    Ti, Tj, Tk = T[i - 1], T[j - 1], T[k - 1]
    alpha = gj + Ti * Ti - Tj * Tj
    beta = gk + Ti * Ti - Tk * Tk
    u = np.linalg.solve(M, np.array([0.5 * alpha, 0.5 * beta]))
    x = config.m(i) + u
    return SolutionSet(points=_remapping(config, (x,), T, rtol))


def _reference_system(config: SensorConfig) -> tuple:
    """invert3's best-conditioned reference receiver, a config-only constant.

    (i, j, k, M, |m_j - m_i|^2, |m_k - m_i|^2): reference i and the read-only
    2x2 matrix M with rows m_j - m_i and m_k - m_i of least condition number.
    Read it through config._memo(_reference_system).
    """
    best = None
    for i in (1, 2, 3):
        j, k = [t for t in (1, 2, 3) if t != i]
        M = np.stack([config.vec(j, i), config.vec(k, i)])
        c = np.linalg.cond(M)
        if best is None or c < best[0]:
            best = (c, i, j, k, M)
    _, i, j, k, M = best
    M.setflags(write=False)
    return i, j, k, M, float(M[0] @ M[0]), float(M[1] @ M[1])


def _remapping(config: SensorConfig, points: tuple, T: list, rtol: float) -> tuple:
    """The points (at least one) whose ranges match the floats T within rtol * d_max.

    Each range is the square root of the squared coordinate differences summed
    left to right: config.distances bit for bit, as numpy sums fewer than
    eight terms in order.
    """
    tol = rtol * config.d_max
    receivers = config._receiver_stack.tolist()
    keep = []
    for x in points:
        xs = x.tolist()
        for m, t in zip(receivers, T):
            s = 0.0
            for a, b in zip(xs, m):
                d = a - b
                s += d * d
            if not abs(math.sqrt(s) - t) <= tol:  # a NaN range misses too
                break
        else:
            keep.append(x)
    return tuple(keep)


def collinear_quadric_residual(config: SensorConfig, T) -> float:
    """Stewart quadric value at T (canonical labels) for a collinear triple.

    Zero exactly on the cone swept by the range map; the sign is positive
    off the receiver line's reach (endpoint-weighted mean square exceeding
    the middle range square).
    """
    if not isinstance(config.kind, CollinearTriple):
        raise NotCollinear("quadric residual is defined for collinear triples only")
    return _canonical_stewart(config.kind, _measurement(T, 3).tolist())


def _stewart(kind: CollinearTriple, T1: float, T2: float, T3: float) -> float:
    """The Stewart quadric at one canonical triple of Python floats.

    The squares go through the C library's pow, as ``float ** 2`` computes
    them; NumPy's array square (x * x) differs from it in the last bit on
    about one value in 1300, so batch callers evaluate this per row.  A square
    past the float range raises InvalidParam, as a non-finite range does.
    """
    rho, d21 = kind.rho, kind.d21
    try:
        return (1.0 - rho) * T1 ** 2 + rho * T2 ** 2 - T3 ** 2 - rho * (1.0 - rho) * d21 * d21
    except OverflowError:
        raise InvalidParam(f"ranges too large to square, got {[T1, T2, T3]}") from None


def _canonical_stewart(kind: CollinearTriple, T: list) -> float:
    """_stewart at the floats T, given in the original receiver order."""
    return _stewart(kind, *(T[k] for k in kind.order))


def _collinear_fiber(config: SensorConfig, T: list, rtol: float):
    """Stewart gate, then _two_sphere on the canonical endpoints (None if off the quadric)."""
    kind = config.kind
    if abs(_canonical_stewart(kind, T)) > rtol * config.d_max ** 2:
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
    T = _measurement(T, 3).tolist()
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
    from .kummer import q3_membership, quartic_residual

    T = _measurement(T, 3)
    Ts = T.tolist()
    in_octant = min(Ts) >= -rtol * config.d_max
    q3 = q3_membership(config, T, rtol=rtol)

    if config.is_collinear:
        residual = _canonical_stewart(config.kind, Ts) / config.d_max**2
        fiber_interior = 2
    else:
        residual = quartic_residual(config, T, normalized=True)
        fiber_interior = 1
    on_surface = abs(residual) <= rtol

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
    )
