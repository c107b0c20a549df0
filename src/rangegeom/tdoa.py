"""Range-difference (TDOA) geometry for three planar receivers.

Receiver 3 is the reference: tau = (d1 - d3, d2 - d3).  Lifting a difference
pair by the unknown reference range t = d3 gives the spacetime line

    (tau1 + t, tau2 + t, t),  t >= 0,

so the TDOA problem is the slice of the TOA problem along the projection
pi(T) = (T1 - T3, T2 - T3).  Solutions are the intersections of a line with
the past null cone of the reference receiver in Minkowski R^{2,1}; the
quadratic's three coefficients (a, b, c) classify the fiber:

* a < 0: one solution (central region, inside the asymptotic ellipse E);
* a > 0, b > 0: two solutions (lens regions U_i at the corners R^i of the
  bounding hexagon P2, where R^i is the image of receiver i); U_i is the
  cone from the origin between the two tangency points that bracket R^i;
* a > 0, b < 0: no solutions (the mirrored corners);
* the arcs a = 0 (ellipse E) and b = 0 (cubic C) and the hexagon facets make
  up the boundary; E touches the hexagon at six tangency points T_i^+-.

Collinear receivers are handled by the lift itself: the quartic relation
degenerates to a linear equation in t, with ray fibers of infinite size at
the endpoint images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _RTOL, SensorConfig, _measurement, _require_planar_triple
from .errors import DegenerateConfig, RangeGeomError
from .kummer import _facet_verdict, _quartic_terms, q3_membership
from .spacetime import cross2
from .toa3 import SolutionSet, collinear_quadric_residual

_VERIFY_RTOL = 1e-7

P2_FACETS = (
    "tau1=-d31", "tau1=d31",
    "tau2=-d32", "tau2=d32",
    "tau2-tau1=-d21", "tau2-tau1=d21",
)

TANGENCY_IDS = ("T1+", "T1-", "T2+", "T2-", "T3+", "T3-")

# U_i is the cone from the origin between the tangency points on the two
# facets that meet at its corner R^i.  E is centred at the origin and touches
# the hexagon only at those points, so every a > 0, b > 0 point off the facets
# lies strictly inside exactly one of these cones.
_LENS_CONES = {1: ("T2-", "T3-"), 2: ("T1-", "T3+"), 3: ("T1+", "T2+")}


def tau_map(config: SensorConfig, x) -> np.ndarray:
    """Range differences (d1 - d3, d2 - d3) of source position(s) x."""
    _require_planar_triple(config)
    d = config.distances(x)
    return np.stack([d[..., 0] - d[..., 2], d[..., 1] - d[..., 2]], axis=-1)


def project_pi(T) -> np.ndarray:
    """Projection linking ranges to range differences: (T1-T3, T2-T3)."""
    T = np.asarray(T, dtype=float)
    return np.stack([T[..., 0] - T[..., 2], T[..., 1] - T[..., 2]], axis=-1)


def pi_fiber_line(tau) -> tuple:
    """The projection fiber over tau: base point (tau1, tau2, 0), direction (1,1,1)."""
    tau = _measurement(tau, 2, "range differences")
    return np.array([tau[0], tau[1], 0.0]), np.ones(3)


# ---------------------------------------------------------------------------
# bounding hexagon P2

@dataclass(frozen=True)
class P2Report:
    """Membership in the bounding polygon of the difference image.

    General position: hexagon |tau1| <= d31, |tau2| <= d32,
    |tau2 - tau1| <= d21.  Collinear receivers: the facet pair of the longest
    pairwise distance is implied by the others and is dropped.
    """

    residuals: dict
    verdict: str
    active: tuple


def p2_membership(config: SensorConfig, tau, rtol: float = _RTOL) -> P2Report:
    _require_planar_triple(config)
    tau = _measurement(tau, 2, "range differences")
    t1, t2 = float(tau[0]), float(tau[1])
    d21, d31, d32 = config.d21, config.d31, config.d32
    residuals = {
        "tau1=-d31": t1 + d31,
        "tau1=d31": d31 - t1,
        "tau2=-d32": t2 + d32,
        "tau2=d32": d32 - t2,
        "tau2-tau1=-d21": (t2 - t1) + d21,
        "tau2-tau1=d21": d21 - (t2 - t1),
    }
    if config.is_collinear:
        longest = max(
            [("tau2-tau1", d21), ("tau1", d31), ("tau2", d32)], key=lambda p: p[1]
        )[0]
        residuals = {k: v for k, v in residuals.items() if not k.startswith(longest + "=")}
    active, verdict = _facet_verdict(residuals, dict.fromkeys(residuals, rtol * config.d_max))
    return P2Report(residuals={k: float(v) for k, v in residuals.items()},
                    verdict=verdict, active=active)


# ---------------------------------------------------------------------------
# null-cone quadratic coefficients

@dataclass(frozen=True, eq=False)
class TdoaCoeffs:
    """Coefficients of the null-cone quadratic a*l^2 + 2b*l + c = 0.

    The solution line is x = m3 + u0 + l * v_spatial with reference range
    d3 = -l * v_time, so physical solutions have l <= 0.  a is the Minkowski
    square of the line direction (negative inside the asymptotic ellipse),
    c = |u0|^2 >= 0, and b flips sign under tau -> -tau.
    """

    a: float
    b: float
    c: float
    u0: np.ndarray
    v_spatial: np.ndarray
    v_time: float


def tdoa_coeffs(config: SensorConfig, tau) -> TdoaCoeffs:
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: the difference problem degenerates; "
            "use classify_tau (lift pipeline)"
        )
    tau = _measurement(tau, 2, "range differences")
    t1, t2 = float(tau[0]), float(tau[1])
    d31v, d32v = config.vec(3, 1), config.vec(3, 2)
    d31, d32 = config.d31, config.d32
    M = np.stack([d31v, d32v])
    u0 = np.linalg.solve(M, 0.5 * np.array([t1 * t1 - d31 * d31, t2 * t2 - d32 * d32]))
    q = t1 * d32v - t2 * d31v
    w12 = float(d31v[0] * d32v[1] - d31v[1] * d32v[0])
    s = -math.copysign(1.0, w12)
    v_spatial = s * np.array([q[1], -q[0]])
    v_time = abs(w12)
    a = float(q @ q) - w12 * w12
    b = float(u0 @ v_spatial)
    c = float(u0 @ u0)
    return TdoaCoeffs(a=a, b=b, c=c, u0=u0, v_spatial=v_spatial, v_time=v_time)


def tangency_points(config: SensorConfig) -> dict:
    """The six points where the asymptotic ellipse touches the hexagon.

    T_i^+- is the limit of tau along sources receding parallel to the
    receiver pair not involving receiver i.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("tangency points require receivers in general position")
    table = config._memo(_tangency_table)
    return {tid: pt.copy() for tid, pt in zip(TANGENCY_IDS, table)}


def _tangency_table(config: SensorConfig) -> np.ndarray:
    """The tangency points as a read-only (6, 2) array, rows in TANGENCY_IDS order.

    A config-only constant: read it through config._memo(_tangency_table).
    """
    d31v, d32v = config.vec(3, 1), config.vec(3, 2)
    rows = []
    for vec in (config.vec(3, 2), config.vec(3, 1), config.vec(2, 1)):
        u = vec / float(np.linalg.norm(vec))
        pt = np.array([float(d31v @ u), float(d32v @ u)])
        rows += [pt, -pt]
    table = np.stack(rows)
    table.setflags(write=False)
    return table


def _vertex_images(config: SensorConfig) -> np.ndarray:
    """tau of each receiver as a read-only (3, 2) array, a config-only constant."""
    images = np.stack([tau_map(config, config.m(i)) for i in (1, 2, 3)])
    images.setflags(write=False)
    return images


def _first_near(points: np.ndarray, tau: np.ndarray, tol: float):
    """Index of the first row of points within tol of tau in the max norm, else None."""
    near = (np.abs(tau - points).max(axis=1) <= tol).tolist()
    return near.index(True) if True in near else None


# ---------------------------------------------------------------------------
# inversion

def invert_tdoa(
    config: SensorConfig, tau, rtol: float = _RTOL, verify_rtol: float = _VERIFY_RTOL
) -> SolutionSet:
    """Source positions with range differences tau (general position only).

    Solves the null-cone quadratic stably, keeps past-cone roots, and
    verifies every candidate against the forward map (the verification is
    authoritative: spurious mirror roots are discarded).
    """
    co = tdoa_coeffs(config, tau)
    tau = _measurement(tau, 2, "range differences")
    d_max = config.d_max
    a, b, c = co.a, co.b, co.c
    v_norm = float(np.linalg.norm(co.v_spatial))

    scale_a = d_max ** 4
    scale_b = d_max ** 3
    lambdas = []
    if abs(a) <= rtol * scale_a:
        if abs(b) > rtol * scale_b:
            lambdas.append(-c / (2.0 * b))
    else:
        disc = b * b - a * c
        if abs(disc) <= rtol * (b * b + abs(a * c)):
            # tangency within tolerance: one double root
            lambdas.append(-b / a)
        elif disc > 0.0:
            root = math.sqrt(disc)
            if b >= 0.0:
                qq = -(b + root)
            else:
                qq = -(b - root)
            if qq != 0.0:
                lambdas.extend([qq / a, c / qq])
            else:  # b = disc = 0: double root at zero
                lambdas.append(0.0)

    points = []
    for lam in lambdas:
        if abs(lam) * v_norm <= 1e-12 * d_max:
            lam = 0.0
        if lam > 0.0:
            continue
        x = config.m(3) + co.u0 + lam * co.v_spatial
        if np.max(np.abs(tau_map(config, x) - tau)) <= verify_rtol * d_max:
            points.append(x)
    # merge numerically identical roots
    unique = []
    for p in points:
        if not any(np.linalg.norm(p - u) <= 1e-9 * d_max for u in unique):
            unique.append(p)
    return SolutionSet(points=tuple(unique))


# ---------------------------------------------------------------------------
# classification of the difference plane

@dataclass(frozen=True, eq=False)
class TauRegion:
    """Classified region of a range-difference pair.

    label     : "OutsideIm" | "EMinus" | "U_1" | "U_2" | "U_3" |
                "BoundaryArc" | "TangencyPoint" | "VertexRay" |
                "CollinearInterior"
    ids       : boundary identifiers (facet names, "E", "C", tangency or
                vertex ids) when applicable
    fiber     : generic number of sources (math.inf on vertex rays)
    residuals : hexagon facet slacks
    coeffs    : null-cone quadratic coefficients (None for collinear triples)
    lift      : lifted range triple (tau1+t, tau2+t, t) for collinear triples
    """

    label: str
    ids: tuple
    fiber: float
    residuals: dict
    coeffs: object
    lift: object


def _classify_tau_collinear(config: SensorConfig, tau, rtol: float) -> TauRegion:
    kind = config.kind
    d_max = config.d_max
    tol_lin = rtol * d_max
    tol_quad = rtol * d_max ** 2
    p2 = p2_membership(config, tau, rtol=rtol)

    # vertex images (canonical ids: R1, R2 endpoints, R3 middle)
    row = _first_near(config._memo(_vertex_images), tau, tol_lin)
    if row is not None:
        cid = f"R{kind.order.index(row) + 1}"
        if cid == "R3":
            t_mid = config.dist(row + 1, 3)
            lift = np.array([tau[0] + t_mid, tau[1] + t_mid, t_mid])
            return TauRegion(label="BoundaryArc", ids=("R3",), fiber=1,
                             residuals=p2.residuals, coeffs=None, lift=lift)
        return TauRegion(label="VertexRay", ids=(cid,), fiber=math.inf,
                         residuals=p2.residuals, coeffs=None, lift=None)

    # the Stewart quadric along the lift (tau1 + t, tau2 + t, t) is linear
    # in t: c_lin + a_lin * t
    tau_ext = np.array([tau[0], tau[1], 0.0])
    qv = tau_ext[list(kind.order)]
    rho = kind.rho
    a_lin = 2.0 * ((1.0 - rho) * qv[0] + rho * qv[1] - qv[2])
    c_lin = collinear_quadric_residual(config, tau_ext)
    if abs(a_lin) <= tol_lin:
        if abs(c_lin) <= tol_quad:
            return TauRegion(label="VertexRay", ids=("R1", "R2"), fiber=math.inf,
                             residuals=p2.residuals, coeffs=None, lift=None)
        return TauRegion(label="OutsideIm", ids=(), fiber=0,
                         residuals=p2.residuals, coeffs=None, lift=None)
    t_star = -c_lin / a_lin
    lift = np.array([tau[0] + t_star, tau[1] + t_star, t_star])
    if float(np.min(lift)) < -tol_lin:
        return TauRegion(label="OutsideIm", ids=(), fiber=0,
                         residuals=p2.residuals, coeffs=None, lift=lift)
    q3 = q3_membership(config, lift, rtol=rtol)
    if q3.verdict == "Outside":
        return TauRegion(label="OutsideIm", ids=(), fiber=0,
                         residuals=p2.residuals, coeffs=None, lift=lift)
    if q3.verdict == "OnFacet":
        return TauRegion(label="BoundaryArc", ids=q3.active, fiber=1,
                         residuals=p2.residuals, coeffs=None, lift=lift)
    return TauRegion(label="CollinearInterior", ids=(), fiber=2,
                     residuals=p2.residuals, coeffs=None, lift=lift)


def classify_tau(config: SensorConfig, tau, rtol: float = _RTOL) -> TauRegion:
    """Classify a range-difference pair: region label and generic fiber size.

    General position uses the null-cone coefficients; collinear triples use
    the lift to ranges (the returned region carries the lifted triple).
    """
    _require_planar_triple(config)
    tau = _measurement(tau, 2, "range differences")
    if config.is_collinear:
        return _classify_tau_collinear(config, tau, rtol)

    d_max = config.d_max
    p2 = p2_membership(config, tau, rtol=rtol)
    co = tdoa_coeffs(config, tau)
    if p2.verdict == "Outside":
        return TauRegion(label="OutsideIm", ids=(), fiber=0,
                         residuals=p2.residuals, coeffs=co, lift=None)
    tangency = config._memo(_tangency_table)
    row = _first_near(tangency, tau, rtol * d_max)
    if row is not None:
        return TauRegion(label="TangencyPoint", ids=(TANGENCY_IDS[row],), fiber=0,
                         residuals=p2.residuals, coeffs=co, lift=None)
    an = co.a / d_max ** 4
    bn = co.b / d_max ** 3
    if an < -rtol:
        return TauRegion(label="EMinus", ids=(), fiber=1,
                         residuals=p2.residuals, coeffs=co, lift=None)
    if abs(an) <= rtol:
        return TauRegion(label="BoundaryArc", ids=("E",), fiber=1,
                         residuals=p2.residuals, coeffs=co, lift=None)
    if bn > rtol:
        if p2.verdict == "OnFacet":
            return TauRegion(label="BoundaryArc", ids=p2.active, fiber=1,
                             residuals=p2.residuals, coeffs=co, lift=None)
        depth = {i: _cone_depth(tangency[TANGENCY_IDS.index(p)],
                                tangency[TANGENCY_IDS.index(q)], tau)
                 for i, (p, q) in _LENS_CONES.items()}
        corner = max(depth, key=depth.get)
        return TauRegion(label=f"U_{corner}", ids=(), fiber=2,
                         residuals=p2.residuals, coeffs=co, lift=None)
    if abs(bn) <= rtol:
        return TauRegion(label="BoundaryArc", ids=("C",), fiber=1,
                         residuals=p2.residuals, coeffs=co, lift=None)
    return TauRegion(label="OutsideIm", ids=(), fiber=0,
                     residuals=p2.residuals, coeffs=co, lift=None)


def _cone_depth(p: np.ndarray, q: np.ndarray, tau: np.ndarray) -> float:
    """min(s, t) for tau = s*p + t*q: positive exactly inside the cone of p and q."""
    w = cross2(p, q)
    return min(cross2(tau, q) / w, cross2(p, tau) / w)


# ---------------------------------------------------------------------------
# the lifted quadratic in t = d3

def t_quadratic(config: SensorConfig, tau) -> tuple:
    """Coefficients (A, B, C) of the quartic restricted to the lift line.

    Substituting T = (tau1 + t, tau2 + t, t) into the defining quartic leaves
    a quadratic A t^2 + B t + C: the two top coefficients vanish identically
    because the surface is ruled by the projection direction (1,1,1) at
    infinity.  Roots t correspond to null-cone roots via t = -l * |v_time|.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("collinear receivers: the lift is linear, not quadratic")
    tau = _measurement(tau, 2, "range differences")
    t1, t2 = float(tau[0]), float(tau[1])
    coeffs = np.zeros(5)
    shifts = (np.array([t1, 1.0]), np.array([t2, 1.0]), np.array([0.0, 1.0]))
    for (e1, e2, e3), coeff in config._memo(_quartic_terms).items():
        poly = np.array([1.0])
        for shift, e in zip(shifts, (e1, e2, e3)):
            for _ in range(e):
                poly = np.convolve(poly, shift)
        coeffs[: poly.shape[0]] += coeff * poly
    d_max = config.d_max
    tau_inf = max(abs(t1), abs(t2))
    if abs(coeffs[4]) > 1e-9 * d_max ** 2 or abs(coeffs[3]) > 1e-9 * d_max ** 2 * (
        d_max + tau_inf
    ):
        raise RangeGeomError(
            "lift of the quartic is not quadratic; inconsistent configuration"
        )
    return float(coeffs[2]), float(coeffs[1]), float(coeffs[0])
