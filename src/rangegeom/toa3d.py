"""Range (TOA) localization with receivers in three-dimensional space.

Two receivers see a source on the intersection of two spheres: generically a
circle around the baseline.  Three non-collinear receivers see a mirror pair
across their plane; the feasible region in range space is the solid side of
the same quartic that cuts the range surface in the planar problem (its sign
tells the two-point / one-point / empty fiber apart).  Three collinear
receivers again give circles around the receiver line.
The mirror pair is x +- h n: toa3._foot's point x on the receiver plane, and
the height h = sqrt(T_i^2 - |x - m_i|^2) along the unit normal n (unit geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (_RTOL, CollinearTriple, SensorConfig, TwoReceivers, _cross3, _from_unit,
                     _measurement)
from .errors import DegenerateConfig, DimensionMismatch, Infeasible, NotCollinear
from .kummer import _quartic_gate
from .toa2 import _two_sphere
from .toa3 import _collinear_fiber, _foot, _reference_system, _remapping


def _circle_frame(axis: np.ndarray) -> tuple:
    """Orthonormal (u, v) spanning the plane normal to axis (deterministic)."""
    k = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[k] = 1.0
    u = e - float(e @ axis) * axis
    u = u / np.linalg.norm(u)
    v = np.array(_cross3(axis.tolist(), u.tolist()))
    return u, v


@dataclass(frozen=True, eq=False)
class Circle3D:
    """A circle in space: center, radius, unit axis, and an in-plane frame."""

    center: np.ndarray
    radius: float
    axis: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def point(self, theta: float) -> np.ndarray:
        return self.center + self.radius * (
            math.cos(theta) * self.u + math.sin(theta) * self.v
        )

    def points(self, n: int = 64) -> np.ndarray:
        th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return (
            self.center
            + self.radius
            * (np.cos(th)[:, None] * self.u + np.sin(th)[:, None] * self.v)
        )


def make_circle(center, radius: float, axis) -> Circle3D:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    u, v = _circle_frame(axis)
    return Circle3D(
        center=np.asarray(center, dtype=float), radius=float(radius),
        axis=axis, u=u, v=v,
    )


@dataclass(frozen=True, eq=False)
class SolutionSet3D:
    """Solutions of a spatial range problem: points, or a whole circle."""

    points: tuple = ()
    circle: object = None

    @property
    def kind(self) -> str:
        if self.circle is not None:
            return "Circle"
        return {0: "Empty", 1: "One", 2: "Pair"}[len(self.points)]


@dataclass(frozen=True)
class Feasibility3DReport:
    """Feasibility of a range triple for three receivers in space.

    The quartic that defines the planar range surface here separates space:
    negative values are strictly realizable (mirror pair through the receiver
    plane), zero is the surface itself (source on the receiver plane), and
    positive values are unreachable.
    """

    quartic: float
    normalized: float
    verdict: str
    fiber: int


def _circle_or_point(fiber) -> SolutionSet3D:
    """Spatial solutions of a two-sphere intersection from _two_sphere."""
    if fiber is None:
        return SolutionSet3D()
    base, axis, h = fiber
    if h is None:
        return SolutionSet3D(points=(np.array(base),))
    return SolutionSet3D(circle=make_circle(base, h, axis))


def _require_3d(config: SensorConfig, n: int) -> None:
    if config.dimension != 3:
        raise DimensionMismatch("expected receivers in 3D")
    if config.n != n:
        raise DimensionMismatch(f"expected {n} receivers, got {config.n}")


def forward3d(config: SensorConfig, x) -> np.ndarray:
    """Ranges from a spatial source position (two or three receivers)."""
    if config.dimension != 3:
        raise DimensionMismatch("expected receivers in 3D")
    return config.distances(x)


def invert3d_r2(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet3D:
    """Two spheres: a circle around the baseline, a point on it, or nothing."""
    _require_3d(config, 2)
    if not isinstance(config.kind, TwoReceivers):
        raise DimensionMismatch("expected a two-receiver configuration")
    T = _measurement(T, 2)
    return _circle_or_point(
        _two_sphere(*config.receivers, float(T[0]), float(T[1]), config.d21, rtol)
    )


def classify3d_r3(config: SensorConfig, T, rtol: float = _RTOL) -> Feasibility3DReport:
    """Sign of the quartic sorts spatial range triples into fibers 2 / 1 / 0."""
    _require_3d(config, 3)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: use invert3d_r3_collinear (circle fibers)"
        )
    T = _measurement(T, 3)
    raw, normalized, on_surface = _quartic_gate(config, T, rtol)
    if min(T.tolist()) < -rtol * config.d_max:
        verdict, fiber = "Outside", 0
    elif on_surface:
        verdict, fiber = "OnSurface", 1
    elif normalized < 0.0:
        verdict, fiber = "InteriorSolid", 2
    else:
        verdict, fiber = "Outside", 0
    return Feasibility3DReport(
        quartic=raw, normalized=normalized, verdict=verdict, fiber=fiber
    )


def invert3d_r3(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet3D:
    """Three spheres, non-collinear centers: a mirror pair or its collapse.

    Raises Infeasible when the triple is off the feasible solid.
    """
    report = classify3d_r3(config, T, rtol=rtol)
    if report.verdict == "Outside":
        raise Infeasible(
            "range triple is not realizable in space",
            residuals={"quartic": report.quartic, "normalized": report.normalized},
        )
    x, u, Ti = _foot(config, _measurement(T, 3).tolist())
    if report.verdict == "OnSurface":
        return SolutionSet3D(points=(x,))
    n = config._memo(_reference_system)[7]
    u = u * config._unit
    h = _from_unit(config, math.sqrt(max(Ti * Ti - float(u @ u), 0.0)))
    return SolutionSet3D(points=(x + h * n, x - h * n))


def invert3d_r3_collinear(config: SensorConfig, T, rtol: float = _RTOL) -> SolutionSet3D:
    """Three spheres with collinear centers: circles around the receiver line.

    Stewart-incompatible or infeasible triples, and circles whose ranges miss
    T by more than rtol * d_max, give an empty set (no errors); boundary
    triples give the single on-line point.
    """
    _require_3d(config, 3)
    if not isinstance(config.kind, CollinearTriple):
        raise NotCollinear("invert3d_r3_collinear requires a collinear configuration")
    T = _measurement(T, 3).tolist()
    sol = _circle_or_point(_collinear_fiber(config, T, rtol))
    # every point of a circle about the receiver line has the same ranges
    if sol.circle is not None and not _remapping(config, (sol.circle.point(0.0),), T, rtol):
        return SolutionSet3D()
    return sol
