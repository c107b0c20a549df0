"""Two-receiver range (TOA) geometry in the plane.

With two receivers the range pair (T1, T2) is realizable exactly when it lies
in the polyhedral cone Q2 cut out by the triangle inequalities

    T1 + T2 >= d21,   |T1 - T2| <= d21,   T1, T2 >= 0.

Interior points have a two-point fiber (mirror pair across the receiver
baseline), boundary points a single point on the baseline, and exterior
points none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _RTOL, SensorConfig, TwoReceivers, _facet_verdict, _measurement
from .errors import DimensionMismatch, Infeasible, InvalidParam

# Facet identifiers, paired with slack expressions (slack >= 0 inside).
Q2_FACETS = ("T1+T2=d21", "T1-T2=d21", "T2-T1=d21")
_Q2_VERDICTS = {"Outside": ("Outside", 0), "OnFacet": ("Boundary", 1), "Interior": ("Interior", 2)}


@dataclass(frozen=True)
class Q2Class:
    """Membership report for the two-receiver feasible cone Q2.

    verdict   : "Interior" | "Boundary" | "Outside"
    residuals : facet id -> signed slack (>= 0 means satisfied)
    active    : facet ids with |slack| within tolerance
    fiber     : generic number of source points (2 interior, 1 boundary, 0 outside)
    """

    verdict: str
    residuals: dict
    active: tuple
    fiber: int


def forward2(config: SensorConfig, x) -> np.ndarray:
    """Ranges (T1, T2) from source position x."""
    _require_two(config)
    return config.distances(x)


def q2_residuals(T1: float, T2: float, d21: float) -> dict:
    """Signed slacks of the three Q2 facets (nonnegative iff inside)."""
    return {
        "T1+T2=d21": T1 + T2 - d21,
        "T1-T2=d21": d21 - (T1 - T2),
        "T2-T1=d21": d21 - (T2 - T1),
    }


def classify_pair(T1: float, T2: float, d21: float, rtol: float = _RTOL) -> Q2Class:
    """Classify a range pair against Q2 for baseline length d21.

    Shared by the planar two-receiver solver and by slice tests elsewhere
    (any two ranges plus the distance between their receivers form a Q2).
    InvalidParam when T1 or T2 is not finite.
    """
    if not (math.isfinite(T1) and math.isfinite(T2)):
        raise InvalidParam(f"ranges must be finite, got {[T1, T2]}")
    res = q2_residuals(T1, T2, d21)
    if min(T1, T2) < -rtol * d21:
        return Q2Class(verdict="Outside", residuals=res, active=(), fiber=0)
    active, verdict = _facet_verdict(res.items(), rtol, d21)
    verdict, fiber = _Q2_VERDICTS[verdict]
    return Q2Class(verdict=verdict, residuals=res, active=active, fiber=fiber)


def classify2(config: SensorConfig, T, rtol: float = _RTOL) -> Q2Class:
    """Classify a range pair for a two-receiver configuration."""
    _require_two(config)
    T1, T2 = _measurement(T, 2)
    return classify_pair(T1, T2, config.d21, rtol=rtol)


def _two_sphere(e1, e2, T1: float, T2: float, d21: float, rtol: float):
    """Intersection of the spheres |x - e1| = T1, |x - e2| = T2 in any dimension.

    None outside Q2 (d21 = |e2 - e1|); else (base, axis, h): the centre of
    the intersection circle on the baseline, the unit vector e1 -> e2 (both
    as lists of floats, each coordinate rounded as the array expressions
    e1 + a * axis and (e2 - e1) / d21 round it), and the radius, None on the
    Q2 boundary where the circle is the point base.
    """
    cls = classify_pair(T1, T2, d21, rtol=rtol)
    if cls.verdict == "Outside":
        return None
    e1, e2 = e1.tolist(), e2.tolist()
    axis = [(q - p) / d21 for p, q in zip(e1, e2)]
    a = (d21 * d21 + T1 * T1 - T2 * T2) / (2.0 * d21)
    base = [p + a * u for p, u in zip(e1, axis)]
    if cls.verdict == "Boundary":
        return base, axis, None
    return base, axis, math.sqrt(max(T1 * T1 - a * a, 0.0))


def _mirror_pair(base, axis, h) -> tuple:
    """The planar points of a _two_sphere result: a mirror pair, or one point."""
    if h is None:
        return (np.array(base),)
    (b0, b1), n0, n1 = base, h * -axis[1], h * axis[0]
    return (np.array([b0 + n0, b1 + n1]), np.array([b0 - n0, b1 - n1]))


def invert2(config: SensorConfig, T, rtol: float = _RTOL) -> tuple:
    """Source positions realizing ranges (T1, T2); raises Infeasible outside Q2.

    Interior pairs return the mirror pair of intersection points of the two
    range circles; boundary pairs return the single point on the baseline.
    """
    _require_two(config)
    if config.dimension != 2:
        raise DimensionMismatch("two-receiver inversion requires planar receivers")
    T1, T2 = _measurement(T, 2)
    fiber = _two_sphere(*config.receivers, T1, T2, config.d21, rtol)
    if fiber is None:
        raise Infeasible(
            "range pair outside the feasible cone", residuals=q2_residuals(T1, T2, config.d21)
        )
    return _mirror_pair(*fiber)


def _require_two(config: SensorConfig) -> None:
    if not isinstance(config.kind, TwoReceivers):
        raise DimensionMismatch("expected a two-receiver configuration")
