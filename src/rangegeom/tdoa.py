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

For fixed receivers every quantity above is elementwise in tau, so the work
runs in row kernels over an (N, 2) array of tau (``_classify_rows``,
``_invert_rows``, ``_coeff_rows``), with the config-only constants built once
per configuration (``SensorConfig._memo``).  The kernels return plain per-row
decisions, not objects: labels, ids, fibers and lifts, and the accepted
points of each row.  ``tau_fibers``, the batch entry, hands the labels,
fibers and points on as plain tuples.  The result objects (``TauRegion``,
``TdoaCoeffs``, ``SolutionSet``) are made only for the public calls, by
``_regions``, ``_coeff_objects`` and ``_solution_sets``.  ``classify_tau``,
``invert_tdoa``, ``tdoa_coeffs`` and ``p2_membership`` are row 0 of a
one-row call to the kernels; ``classify_invert_tau`` classifies and inverts
a whole array in one pass and builds every row's objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    _RTOL,
    SensorConfig,
    _measurement,
    _measurement_rows,
    _require_planar_triple,
)
from .errors import DegenerateConfig, InvalidParam, RangeGeomError
from .kummer import (Q3_FACETS, Q3_FACETS_COLLINEAR, _collinear_facet_table, _facet_table,
                     _facet_verdict, _node_images, _quartic_terms, _slacks)
from .kummer import q3_membership  # noqa: F401  a tdoa attribute the benchmark's tracer wraps
from .spacetime import _cross2
from .toa3 import SolutionSet, _stewart

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
# the same cones as rows of the tangency table
_LENS_ROWS = np.array([[TANGENCY_IDS.index(p), TANGENCY_IDS.index(q)]
                       for p, q in _LENS_CONES.values()])
_LENS_ROWS.setflags(write=False)


def tau_map(config: SensorConfig, x) -> np.ndarray:
    """Range differences (d1 - d3, d2 - d3) of source position(s) x."""
    _require_planar_triple(config)
    d = config.distances(x)
    return d[..., :2] - d[..., 2:]


def project_pi(T) -> np.ndarray:
    """Projection linking ranges to range differences: (T1-T3, T2-T3)."""
    T = np.asarray(T, dtype=float)
    return np.stack([T[..., 0] - T[..., 2], T[..., 1] - T[..., 2]], axis=-1)


def pi_fiber_line(tau) -> tuple:
    """The projection fiber over tau: base point (tau1, tau2, 0), direction (1,1,1)."""
    tau = _measurement(tau, 2, "range differences")
    return np.array([tau[0], tau[1], 0.0]), np.ones(3)


# ---------------------------------------------------------------------------
# row helpers

def _rowdots(*pairs) -> np.ndarray:
    """Dot products of matching rows of (N, k) array pairs, as an (N, len(pairs)) array.

    Each (1, k) @ (k, 1) product of the stack goes to the BLAS ddot that a
    1-D ``x @ y`` and ``np.linalg.norm`` call, so every entry equals the
    scalar product bit for bit; ``einsum`` and ``(x * y).sum(1)`` round
    differently.
    """
    n, k = pairs[0][0].shape
    x = np.concatenate([x for x, _ in pairs], axis=1).reshape(n, len(pairs), 1, k)
    y = np.concatenate([y for _, y in pairs], axis=1).reshape(n, len(pairs), k, 1)
    return (x @ y).reshape(n, len(pairs))


def _near_rows(points: np.ndarray, taus: np.ndarray, tol: float) -> list:
    """Per row of taus, one flag per row of points: within tol in the max norm."""
    d = np.abs(taus[:, None, :] - points)
    return (np.maximum(d[..., 0], d[..., 1]) <= tol).tolist()


def _first(flags: list):
    """Index of the first True flag, else None."""
    return flags.index(True) if True in flags else None


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


def _p2_table(config: SensorConfig) -> tuple:
    """P2's facet names, read-only normals (2, k) and offsets (k,); a config-only constant.

    Column k is (c1, c2) and c0 of the ray trope projecting to facet names[k]
    of P2_FACETS: on the lift (tau1 + t, tau2 + t, t), t drops out as c1 + c2 + c3
    = 0.  The normals are 0 or +-1, so each slack is one rounding, as in t1 + d31.
    Collinear receivers drop the facet pair of the longest pairwise distance.
    """
    table = dict(zip(Q3_FACETS, config._memo(_facet_table)))
    names = P2_FACETS
    if config.is_collinear:
        longest = max([("tau2-tau1", config.d21), ("tau1", config.d31), ("tau2", config.d32)],
                      key=lambda p: p[1])[0]
        names = tuple(name for name in P2_FACETS if not name.startswith(longest + "="))
    rays = dict(zip(P2_FACETS, ("r2+", "r2-", "r1+", "r1-", "r3-", "r3+")))
    rows = np.array([table[rays[name]] for name in names])
    normals, offsets = rows[:, 1:3].T.copy(), rows[:, 0].copy()
    normals.setflags(write=False)
    offsets.setflags(write=False)
    return names, normals, offsets


def _p2_slacks(config: SensorConfig, taus: np.ndarray) -> tuple:
    """Facet names and the (N, k) facet slacks of an (N, 2) array of tau."""
    names, normals, offsets = config._memo(_p2_table)
    return names, taus @ normals + offsets


def _p2_rows(config: SensorConfig, taus: np.ndarray) -> tuple:
    """_p2_slacks with the slacks as one list of floats per row."""
    names, slack = _p2_slacks(config, taus)
    return names, slack.tolist()


def p2_membership(config: SensorConfig, tau, rtol: float = _RTOL) -> P2Report:
    _require_planar_triple(config)
    tau = _measurement(tau, 2, "range differences")
    names, rows = _p2_rows(config, tau[None])
    residuals = dict(zip(names, rows[0]))
    active, verdict = _facet_verdict(residuals.items(), rtol, config.d_max)
    return P2Report(residuals=residuals, verdict=verdict, active=active)


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


def _require_general(config: SensorConfig) -> None:
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: the difference problem degenerates; "
            "use classify_tau (lift pipeline)"
        )


def tdoa_coeffs(config: SensorConfig, tau) -> TdoaCoeffs:
    _require_general(config)
    tau = _measurement(tau, 2, "range differences")
    return _coeff_objects(config, _coeff_rows(config, tau[None]))[0]


def _line_constants(config: SensorConfig) -> tuple:
    """The null-cone line's config-only constants, read-only.

    (d31v, d32v, M, shift, w12, flip): d31v = m3 - m1 and d32v = m3 - m2 are
    the rows of M, the 2x2 system for the base point u0; shift =
    (d31^2, d32^2); w12 = cross2(d31v, d32v) is twice the signed area; flip =
    (s, -s) with s = -sign(w12) orients v_spatial.  Read it through
    config._memo(_line_constants).
    """
    m1, m2, m3 = config.receivers
    M = m3 - np.array([m1, m2])
    M.setflags(write=False)
    d31v, d32v = M
    (x31, y31), (x32, y32) = M.tolist()
    w12 = x31 * y32 - y31 * x32
    s = -math.copysign(1.0, w12)
    shift = np.array([config.d31 * config.d31, config.d32 * config.d32])
    flip = np.array([s, -s])
    shift.setflags(write=False)
    flip.setflags(write=False)
    return d31v, d32v, M, shift, w12, flip


def _coeff_rows(config: SensorConfig, taus: np.ndarray) -> tuple:
    """Arrays a, b, c, u0, v_spatial and |v_spatial|^2 of every row of an (N, 2) array of tau."""
    d31v, d32v, M, shift, w12, flip = config._memo(_line_constants)
    # a stack of one-column systems: each row is the LAPACK solve of the
    # scalar call; one multi-column solve(M, rhs.T) rounds differently
    u0 = np.linalg.solve(M, (0.5 * (taus * taus - shift))[:, :, None])[:, :, 0]
    q = taus[:, :1] * d32v - taus[:, 1:] * d31v
    v = q[:, ::-1] * flip
    dots = _rowdots((q, q), (u0, v), (u0, u0), (v, v))
    return dots[:, 0] - w12 * w12, dots[:, 1], dots[:, 2], u0, v, dots[:, 3]


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
    d31v, d32v = config._memo(_line_constants)[:2]
    rows = []
    for vec, norm in ((d32v, config.d32), (d31v, config.d31), (config.vec(2, 1), config.d21)):
        u = vec / norm
        pt = np.array([float(d31v @ u), float(d32v @ u)])
        rows += [pt, -pt]
    table = np.array(rows)
    table.setflags(write=False)
    return table


def _lens_table(config: SensorConfig) -> tuple:
    """The lens cones as read-only arrays (px, py, qx, qy, w), a config-only constant.

    Entry i - 1 is the cone of U_i, spanned by its two tangency points
    p = (px, py) and q = (qx, qy) of _LENS_CONES, with w = cross2(p, q).
    """
    tangency = config._memo(_tangency_table)
    p, q = tangency[_LENS_ROWS[:, 0]], tangency[_LENS_ROWS[:, 1]]
    w = _cross2(p, q)
    for arr in (p, q, w):
        arr.setflags(write=False)
    return p[:, 0], p[:, 1], q[:, 0], q[:, 1], w


def _vertex_images(config: SensorConfig) -> np.ndarray:
    """tau of each receiver, the projection of its image node, as a read-only (3, 2) array."""
    nodes = config._memo(_node_images)
    images = nodes[:, :2] - nodes[:, 2:]
    images.setflags(write=False)
    return images


# ---------------------------------------------------------------------------
# inversion

def invert_tdoa(config: SensorConfig, tau, rtol: float = _RTOL) -> SolutionSet:
    """Source positions with range differences tau (general position only).

    Solves the null-cone quadratic stably, keeps past-cone roots, and
    verifies every candidate against the forward map (the verification is
    authoritative: spurious mirror roots are discarded).
    """
    _require_general(config)
    tau = _measurement(tau, 2, "range differences")
    return _solution_sets(*_invert_rows(config, tau[None], rtol))[0]


def _null_cone_roots(a: float, b: float, c: float, rtol: float, scale_a: float,
                     scale_b: float) -> list:
    """Roots l of a*l^2 + 2b*l + c, by the stable formula, with the gates of invert_tdoa."""
    if abs(a) <= rtol * scale_a:
        return [-c / (2.0 * b)] if abs(b) > rtol * scale_b else []
    disc = b * b - a * c
    if abs(disc) <= rtol * (b * b + abs(a * c)):
        # tangency within tolerance: one double root
        return [-b / a]
    if disc > 0.0:
        root = math.sqrt(disc)
        if b >= 0.0:
            qq = -(b + root)
        else:
            qq = -(b - root)
        if qq != 0.0:
            return [qq / a, c / qq]
        return [0.0]  # b = disc = 0: double root at zero
    return []


def _invert_rows(config: SensorConfig, taus: np.ndarray, rtol: float, co: tuple = None) -> tuple:
    """invert_tdoa for every row of an (N, 2) array of validated tau (general position).

    Returns (x, kept): the candidate points as the rows of an (K, 2) array,
    and per row of taus the list of the indices in x of its accepted points.
    The roots are chosen per row; the candidate points and their forward-map
    check run once over all rows.  co: the arrays of _coeff_rows when the
    caller has them.
    """
    a, b, c, u0, v, vv = co if co is not None else _coeff_rows(config, taus)
    d_max = config.d_max
    scale_a, scale_b, snap = d_max ** 4, d_max ** 3, 1e-12 * d_max
    rows, lams = [], []
    for i, (ai, bi, ci, vn) in enumerate(zip(a.tolist(), b.tolist(), c.tolist(),
                                             np.sqrt(vv).tolist())):
        for lam in _null_cone_roots(ai, bi, ci, rtol, scale_a, scale_b):
            if abs(lam) * vn <= snap:
                lam = 0.0
            if not lam > 0.0:  # past-cone roots only
                rows.append(i)
                lams.append(lam)
    kept = [[] for _ in range(len(taus))]
    if not rows:
        return np.empty((0, 2)), kept
    x = (config.receivers[2] + u0.take(rows, axis=0)
         + np.array(lams)[:, None] * v.take(rows, axis=0))
    miss = np.abs(tau_map(config, x) - taus.take(rows, axis=0))
    miss = np.maximum(miss[:, 0], miss[:, 1]).tolist()
    for k, (i, m) in enumerate(zip(rows, miss)):
        found = kept[i]
        # merge numerically identical roots
        if m <= _VERIFY_RTOL * d_max and not any(
                np.linalg.norm(x[k] - x[j]) <= 1e-9 * d_max for j in found):
            found.append(k)
    return x, kept


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


def classify_tau(config: SensorConfig, tau, rtol: float = _RTOL) -> TauRegion:
    """Classify a range-difference pair: region label and generic fiber size.

    General position uses the null-cone coefficients; collinear triples use
    the lift to ranges (the returned region carries the lifted triple).
    """
    _require_planar_triple(config)
    tau = _measurement(tau, 2, "range differences")
    return _regions(config, tau[None], rtol)[0]


def classify_invert_tau(config: SensorConfig, taus, rtol: float = _RTOL) -> tuple:
    """Classify and invert every row of an (N, 2) array of range differences.

    Returns (regions, solutions): regions[i] equals classify_tau(config,
    taus[i], rtol) and solutions[i] equals invert_tdoa(config, taus[i],
    rtol).  solutions is None for collinear receivers, where invert_tdoa
    raises.  The null-cone coefficients are built once for both.
    """
    _require_planar_triple(config)
    taus = _measurement_rows(taus, 2, "range differences")
    if config.is_collinear:
        return _regions(config, taus, rtol), None
    co = _coeff_rows(config, taus)
    return (_regions(config, taus, rtol, co),
            _solution_sets(*_invert_rows(config, taus, rtol, co)))


def tau_fibers(config: SensorConfig, taus, rtol: float = _RTOL) -> tuple:
    """Region labels, fiber sizes and source points of every row of an (N, 2) array of tau.

    Returns (labels, fibers, points), plain tuples with one entry per row:
    labels[i] and fibers[i] are the label and fiber of classify_tau(config,
    taus[i], rtol), and points[i] holds the points of invert_tdoa(config,
    taus[i], rtol) as (x, y) pairs of floats, bit for bit.  points is None
    for collinear receivers, where invert_tdoa raises.  No result object is
    built.
    """
    _require_planar_triple(config)
    taus = _measurement_rows(taus, 2, "range differences")
    if config.is_collinear:
        labels, _, fibers, _ = _classify_collinear_rows(config, taus, rtol)
        return tuple(labels), tuple(fibers), None
    co = _coeff_rows(config, taus)
    labels, _, fibers, _ = _classify_rows(config, taus, rtol, co, _p2_rows(config, taus))
    x, kept = _invert_rows(config, taus, rtol, co)
    xs = list(map(tuple, x.tolist()))
    return tuple(labels), tuple(fibers), tuple([tuple([xs[k] for k in found]) for found in kept])


def _classify_rows(config: SensorConfig, taus: np.ndarray, rtol: float, co: tuple,
                   p2: tuple) -> tuple:
    """The decisions of classify_tau for every row of an (N, 2) array of validated tau.

    General position only; co and p2: the output of _coeff_rows and _p2_rows.
    Returns (labels, ids, fibers, lifts), lists with one entry per row; the
    lifts are all None here.  The tangency nearness and lens cone depths each
    run once over all rows, only when some row needs them; the label ladder
    runs per row.
    """
    d_max = config.d_max
    tol = rtol * d_max
    names, slack = p2
    outside = [min(row) < -tol for row in slack]
    tangent = None if all(outside) else _near_rows(config._memo(_tangency_table), taus, tol)
    corner = None
    an = (co[0] / d_max ** 4).tolist()
    bn = (co[1] / d_max ** 3).tolist()
    labels, ids, fibers = [], [], []
    for i, residuals in enumerate(slack):
        ids_i, fiber = (), 1
        if outside[i]:
            label, fiber = "OutsideIm", 0
        elif (tid := _first(tangent[i])) is not None:
            label, ids_i, fiber = "TangencyPoint", (TANGENCY_IDS[tid],), 0
        elif an[i] < -rtol:
            label = "EMinus"
        elif abs(an[i]) <= rtol:
            label, ids_i = "BoundaryArc", ("E",)
        elif bn[i] > rtol:
            active = tuple(n for n, v in zip(names, residuals) if v <= tol)
            if active:
                label, ids_i = "BoundaryArc", active
            else:
                corner = corner or _lens_corners(config, taus)
                label, fiber = f"U_{corner[i]}", 2
        elif abs(bn[i]) <= rtol:
            label, ids_i = "BoundaryArc", ("C",)
        else:
            label, fiber = "OutsideIm", 0
        labels.append(label)
        ids.append(ids_i)
        fibers.append(fiber)
    return labels, ids, fibers, [None] * len(labels)


def _lens_corners(config: SensorConfig, taus: np.ndarray) -> list:
    """Per row of taus, the corner i whose lens cone holds tau most deeply.

    The depth in the cone of p and q is min(s, t) for tau = s*p + t*q,
    positive exactly inside it.
    """
    px, py, qx, qy, w = config._memo(_lens_table)
    t1, t2 = taus[:, :1], taus[:, 1:]
    # cross2(tau, q) / w and cross2(p, tau) / w, on the columns
    depth = np.minimum((t1 * qy - t2 * qx) / w, (px * t2 - py * t1) / w)
    return (depth.argmax(axis=1) + 1).tolist()


def _classify_collinear_rows(config: SensorConfig, taus: np.ndarray, rtol: float) -> tuple:
    """_classify_rows for a collinear triple: the lift to ranges replaces the quadratic.

    Each lift is None or the lifted triple (tau1 + t, tau2 + t, t) as a list
    of floats.
    """
    kind = config.kind
    d_max = config.d_max
    tol_lin = rtol * d_max
    tol_quad = rtol * d_max ** 2
    vertex = _near_rows(config._memo(_vertex_images), taus, tol_lin)

    # the Stewart quadric along the lift (tau1 + t, tau2 + t, t) is linear
    # in t: c_lin + a_lin * t (canonical labels)
    order = list(kind.order)
    qv = np.concatenate((taus, np.zeros((len(taus), 1))), axis=1)[:, order]
    rho = kind.rho
    a_lin = 2.0 * ((1.0 - rho) * qv[:, 0] + rho * qv[:, 1] - qv[:, 2])
    c_lin = np.array([_stewart(kind, *row) for row in qv.tolist()], dtype=float)
    flat = np.abs(a_lin) <= tol_lin
    t_star = -c_lin / np.where(flat, 1.0, a_lin)
    lift = np.concatenate((taus + t_star[:, None], t_star[:, None]), axis=1)
    q3 = _slacks([config._memo(_collinear_facet_table)], *lift[:, order].T[:, :, None])[0]

    labels, ids, fibers, lifts = [], [], [], []
    for (t1, t2), near, is_flat, c, low, ts, lift_i, slack3 in zip(
            taus.tolist(), vertex, flat.tolist(), c_lin.tolist(), lift.min(axis=1).tolist(),
            t_star.tolist(), lift.tolist(), q3.tolist()):
        ids_i, fiber = (), 0
        if (row := _first(near)) is not None:
            # vertex images (canonical ids: R1, R2 endpoints, R3 middle)
            cid = f"R{kind.order.index(row) + 1}"
            if cid == "R3":
                t_mid = config.dist(row + 1, 3)
                lift_i = [t1 + t_mid, t2 + t_mid, t_mid]
                label, ids_i, fiber = "BoundaryArc", ("R3",), 1
            else:
                label, ids_i, fiber, lift_i = "VertexRay", (cid,), math.inf, None
        elif is_flat:
            lift_i = None
            if abs(c) <= tol_quad:
                label, ids_i, fiber = "VertexRay", ("R1", "R2"), math.inf
            else:
                label = "OutsideIm"
        elif low < -tol_lin:
            label = "OutsideIm"
        elif not math.isfinite(ts):
            raise InvalidParam(f"ranges must be finite, got {lift_i}")
        else:
            active, verdict = _facet_verdict(zip(Q3_FACETS_COLLINEAR, slack3), rtol, d_max)
            if verdict == "Outside":
                label = "OutsideIm"
            elif active:
                label, ids_i, fiber = "BoundaryArc", active, 1
            else:
                label, fiber = "CollinearInterior", 2
        labels.append(label)
        ids.append(ids_i)
        fibers.append(fiber)
        lifts.append(lift_i)
    return labels, ids, fibers, lifts


# ---------------------------------------------------------------------------
# result objects, for the public calls only

def _coeff_objects(config: SensorConfig, co: tuple) -> list:
    """One TdoaCoeffs per row of the arrays of _coeff_rows."""
    a, b, c, u0, v, _ = co
    v_time = abs(config._memo(_line_constants)[4])
    return [TdoaCoeffs(a=ai, b=bi, c=ci, u0=ui, v_spatial=vi, v_time=v_time)
            for ai, bi, ci, ui, vi in zip(a.tolist(), b.tolist(), c.tolist(), u0, v)]


def _regions(config: SensorConfig, taus: np.ndarray, rtol: float, co: tuple = None) -> tuple:
    """One TauRegion per row of an (N, 2) array of validated tau, from the kernels' decisions.

    co: the arrays of _coeff_rows when the caller has them.
    """
    p2 = _p2_rows(config, taus)
    if config.is_collinear:
        decisions, coeffs = _classify_collinear_rows(config, taus, rtol), (None,) * len(taus)
    else:
        co = co if co is not None else _coeff_rows(config, taus)
        decisions, coeffs = _classify_rows(config, taus, rtol, co, p2), _coeff_objects(config, co)
    names = p2[0]
    return tuple([TauRegion(label=label, ids=ids, fiber=fiber, residuals=dict(zip(names, slack)),
                            coeffs=c, lift=None if lift is None else np.array(lift))
                  for label, ids, fiber, lift, slack, c in zip(*decisions, p2[1], coeffs)])


def _solution_sets(x: np.ndarray, kept: list) -> tuple:
    """One SolutionSet per row of the output (x, kept) of _invert_rows."""
    return tuple([SolutionSet(points=tuple([x[k] for k in found])) for found in kept])


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
