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
runs in row kernels over an (N, 2) array of tau, with config-only constants
(``SensorConfig._memo``), composed in general position by one pipeline,
``_tau_rows``: stage 1 labels the rows outside the hexagon P2 ``OutsideIm``
from their P2 slacks alone and classifies the others (``_classify_rows``);
stage 2 inverts the rows of fiber 1 or 2 (``_invert_rows``).  ``tau_fibers``
returns both as plain tuples; ``classify_invert_tau`` and ``classify_tau`` get
result objects from ``_regions``.  The null-cone line and the collinear lift
work on the unit geometry of config.py; points, lifts and coefficients are
scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    _DUPLICATE_RTOL,
    _LIFT_BOUND,
    _LINE_BOUND,
    _MERGE_RTOL,
    _RTOL,
    _VERIFY_RTOL,
    SensorConfig,
    _facet_verdict,
    _from_unit,
    _measurement,
    _measurement_rows,
    _require_planar_triple,
    _sign,
    _solve,
    _to_unit,
)
from .errors import DegenerateConfig, InvalidParam
from .kummer import (Q3_FACETS, Q3_FACETS_COLLINEAR, _collinear_facet_table, _facet_rows,
                     _node_images, _slacks)
from .kummer import q3_membership  # noqa: F401  a tdoa attribute the benchmark's tracer wraps
from .toa3 import SolutionSet, _stewart, _stewart_gate

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
# the same cones as rows of the tangency table: the rows of the p's, then of the q's
_LENS_ROWS = tuple(tuple(TANGENCY_IDS.index(t) for t in ends) for ends in zip(*_LENS_CONES.values()))


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


# each P2 facet and the index in Q3_FACETS of the ray trope projecting to it
_P2_ROWS = tuple(zip(P2_FACETS, (Q3_FACETS.index(ray) for ray in
                                 ("r2+", "r2-", "r1+", "r1-", "r3-", "r3+"))))


def _p2_table(config: SensorConfig) -> tuple:
    """P2's facet names, read-only normals (2, k) and offsets (k,); a config-only constant.

    Column k is (c1, c2) and c0 of the ray trope projecting to facet names[k]
    of P2_FACETS (_facet_rows at the configuration's distances): on the lift
    (tau1 + t, tau2 + t, t), t drops out as c1 + c2 + c3 = 0.  The normals are
    0 or +-1, so each slack is one rounding, as in t1 + d31.  Collinear
    receivers drop the facet pair of the longest pairwise distance.
    """
    d21, d31, d32 = config.d21, config.d31, config.d32
    rows = _facet_rows(d21, d31, d32)
    columns = _P2_ROWS
    if config.is_collinear:
        longest = max([("tau2-tau1", d21), ("tau1", d31), ("tau2", d32)], key=lambda p: p[1])[0]
        columns = [(name, k) for name, k in columns if not name.startswith(longest + "=")]
    table = np.array([[rows[k][c] for _, k in columns] for c in (0, 1, 2)])
    table.setflags(write=False)
    return tuple(name for name, _ in columns), table[1:], table[0]


def _p2_slacks(config: SensorConfig, taus: np.ndarray) -> tuple:
    """Facet names and the (N, k) facet slacks of an (N, 2) array of tau."""
    names, normals, offsets = config._memo(_p2_table)
    return names, taus @ normals + offsets


def p2_membership(config: SensorConfig, tau, rtol: float = _RTOL) -> P2Report:
    _require_planar_triple(config)
    tau = _measurement(tau, 2, "range differences")
    names, slack = _p2_slacks(config, tau[None])
    residuals = dict(zip(names, slack[0].tolist()))
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
    return _coeff_objects(config, _coeff_rows(config, _line_taus(config, tau[None])))[0]


def _line_constants(config: SensorConfig) -> tuple:
    """The null-cone line's config-only constants of the unit geometry, read-only.

    (d31v, d32v, M, shift, w12, flip): d31v = m3 - m1 and d32v = m3 - m2 are
    the rows of M (validate_config's last two sides), the 2x2 system for the
    base point u0; shift = (d31^2, d32^2); w12 = cross2(d31v, d32v) is twice the
    signed area; flip = (s, -s) with s = -sign(w12) orients v_spatial.  Read it
    through config._memo(_line_constants).
    """
    M = config._sides[1:]
    d31v, d32v = M
    (x31, y31), (x32, y32) = M.tolist()
    w12 = x31 * y32 - y31 * x32
    s = -math.copysign(1.0, w12)
    shift = (np.array([config.d31, config.d32]) * config._unit) ** 2
    flip = np.array([s, -s])
    shift.setflags(write=False)
    flip.setflags(write=False)
    return d31v, d32v, M, shift, w12, flip


def _line_taus(config: SensorConfig, taus: np.ndarray) -> np.ndarray:
    """The null-cone line's input: taus times 2^-k, InvalidParam beyond _LINE_BOUND * d_max."""
    return _to_unit(config, taus, _LINE_BOUND, "tau too large for the null-cone quadratic")


def _coeff_rows(config: SensorConfig, taus: np.ndarray) -> tuple:
    """Arrays a, b, c, u0, v_spatial, |v_spatial|^2 of the unit geometry and the scale-free an =
    a / d_max^4 and bn = b / d_max^3 of every row of an (N, 2) array of _line_taus."""
    d31v, d32v, M, shift, w12, flip = config._memo(_line_constants)
    # a stack of one-column systems: each row is the LAPACK solve of the
    # scalar call; one multi-column solve(M, rhs.T) rounds differently
    u0 = _solve(M, (0.5 * (taus * taus - shift))[:, :, None])[:, :, 0]
    q = taus[:, :1] * d32v - taus[:, 1:] * d31v
    v = q[:, ::-1] * flip
    dots = _rowdots((q, q), (u0, v), (u0, u0), (v, v))
    a, b = dots[:, 0] - w12 * w12, dots[:, 1]
    d = config.d_max * config._unit
    return a, b, dots[:, 2], u0, v, dots[:, 3], a / d ** 4, b / d ** 3


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

    T_i^+ = (d31v . u, d32v . u) for the unit side u = (m3 - m2) / d32,
    (m3 - m1) / d31, (m2 - m1) / d21 (validate_config's sides, reversed), and
    T_i^- = -T_i^+, scaled back from the unit geometry.  A config-only
    constant: read it through config._memo(_tangency_table).
    """
    d21v, d31v, d32v = config._sides.tolist()
    unit = config._unit
    units = [[c / (norm * unit) for c in side] for side, norm in
             ((d32v, config.d32), (d31v, config.d31), (d21v, config.d21))]
    # each (1, 2) @ (2, 1) product of the stack is the dot of a 1-D d31v @ u, bit for bit
    left = np.array((d31v + d32v) * 3).reshape(6, 1, 2)
    right = np.array([c for u in units for c in u + u]).reshape(6, 2, 1)
    a1, b1, a2, b2, a3, b3 = ((left @ right).ravel() / unit).tolist()
    table = np.array([a1, b1, -a1, -b1, a2, b2, -a2, -b2, a3, b3, -a3, -b3]).reshape(6, 2)
    table.setflags(write=False)
    return table


def _lens_table(config: SensorConfig) -> tuple:
    """The lens cones as read-only arrays (px, py, qx, qy, w), a config-only constant.

    Entry i - 1 is the cone of U_i, spanned by its two tangency points
    p = (px, py) and q = (qx, qy) of _LENS_CONES, with w = cross2(p, q).
    """
    tangency = config._memo(_tangency_table).tolist()
    (px, py), (qx, qy) = (zip(*(tangency[k] for k in ks)) for ks in _LENS_ROWS)
    w = [a * d - b * c for a, b, c, d in zip(px, py, qx, qy)]
    table = np.array([px, py, qx, qy, w])
    table.setflags(write=False)
    return tuple(table)


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


def _null_cone_roots(a: float, b: float, c: float, an: float, bn: float, rtol: float) -> list:
    """Roots l of a*l^2 + 2b*l + c, by the stable formula, with the gates of invert_tdoa; an
    and bn: the scale-free a and b of _coeff_rows, whose config._sign classify_tau reads too."""
    if _sign(an, rtol) == 0:
        return [-c / (2.0 * b)] if _sign(bn, rtol) else []
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
    The roots are chosen per row (unit geometry); the candidate points and their
    forward-map check run once over all rows.  co: _coeff_rows' arrays, if at hand.
    """
    a, b, c, u0, v, vv, an, bn = co or _coeff_rows(config, _line_taus(config, taus))
    d_max, unit = config.d_max, config._unit
    snap = _DUPLICATE_RTOL * d_max * unit  # a root at the cone's vertex: a source at receiver 3
    rows, lams = [], []
    for i, (ai, bi, ci, ani, bni, vn) in enumerate(zip(
            a.tolist(), b.tolist(), c.tolist(), an.tolist(), bn.tolist(), np.sqrt(vv).tolist())):
        for lam in _null_cone_roots(ai, bi, ci, ani, bni, rtol):
            if abs(lam) * vn <= snap:
                lam = 0.0
            if not lam > 0.0:  # past-cone roots only
                rows.append(i)
                lams.append(lam)
    kept = [[] for _ in range(len(taus))]
    if not rows:
        return np.empty((0, 2)), kept
    # back to the caller's units: within _LINE_BOUND neither term overflows
    x = (config.receivers[2] + u0.take(rows, axis=0) / unit
         + np.array(lams)[:, None] * v.take(rows, axis=0) / unit)
    miss = np.abs(tau_map(config, x) - taus.take(rows, axis=0))
    miss = np.maximum(miss[:, 0], miss[:, 1]).tolist()
    for k, (i, m) in enumerate(zip(rows, miss)):
        found = kept[i]
        # merge numerically identical roots
        if m <= _VERIFY_RTOL * d_max and not any(
                np.linalg.norm(x[k] - x[j]) <= _MERGE_RTOL * d_max for j in found):
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
    return _regions(config, tau[None], rtol)[0][0]


def classify_invert_tau(config: SensorConfig, taus, rtol: float = _RTOL) -> tuple:
    """Classify every row of an (N, 2) array of range differences; invert the rows of fiber 1 or 2.

    Returns (regions, solutions): regions[i] equals classify_tau(config, taus[i], rtol), and
    solutions[i] equals invert_tdoa(config, taus[i], rtol) where regions[i].fiber is 1 or 2, an
    empty SolutionSet (the row is not inverted) where it is 0.  solutions is None for collinear
    receivers, where invert_tdoa raises.  The null-cone coefficients are built once for both.
    """
    _require_planar_triple(config)
    taus = _measurement_rows(taus, 2, "range differences")
    regions, inverted = _regions(config, taus, rtol, invert=True)
    return regions, None if inverted is None else _solution_sets(*inverted)


def tau_fibers(config: SensorConfig, taus, rtol: float = _RTOL) -> tuple:
    """Region labels, fiber sizes and source points of every row of an (N, 2) array of tau.

    Returns (labels, fibers, points), plain tuples with one entry per row: labels[i] and fibers[i]
    are those of classify_tau(config, taus[i], rtol); points[i] holds the points of
    invert_tdoa(config, taus[i], rtol) as (x, y) float pairs, bit for bit, where fibers[i] is 1
    or 2, and is () where it is 0.  points is None for collinear receivers, where invert_tdoa
    raises.  No result object is built.
    """
    _require_planar_triple(config)
    taus = _measurement_rows(taus, 2, "range differences")
    if config.is_collinear:
        labels, _, fibers, _ = _classify_collinear_rows(config, taus, rtol)
        return tuple(labels), tuple(fibers), None
    _, _, decided, (x, found) = _tau_rows(config, taus, rtol, invert=True)
    xs = list(map(tuple, x.tolist()))
    return (tuple([row[0] for row in decided]), tuple([row[2] for row in decided]),
            tuple([tuple([xs[j] for j in f]) if f else () for f in found]))


def _rows_of(arrays: tuple, rows: list, n: int) -> tuple:
    """The given rows of each array, or the arrays themselves when rows are all n of them."""
    return arrays if len(rows) == n else tuple([a.take(rows, axis=0) for a in arrays])


def _tau_rows(config: SensorConfig, taus: np.ndarray, rtol: float, co: tuple = None,
              invert: bool = False) -> tuple:
    """The TDOA pipeline for every row of an (N, 2) array of validated tau (general position).

    Stage 1 checks the input bound (_line_taus, unless co, _coeff_rows' all-row arrays, is
    given) and computes the P2 slacks; a row outside the P2 band is OutsideIm with fiber 0 from
    them alone, and only the other rows get coefficient rows and _classify_rows.  Stage 2, with
    invert, runs _invert_rows on the rows of fiber 1 or 2 only.  Returns (names, slack, decided,
    inverted): decided[i] is row i's (label, ids, fiber); inverted is None without invert, else
    (x, found), _invert_rows' points and per row the indices in x of its own (() if none).
    """
    n = len(taus)
    taus_u = _line_taus(config, taus) if co is None else taus  # the block's one bound check
    names, slack = _p2_slacks(config, taus)
    inside = (slack >= -rtol * config.d_max).all(axis=1).nonzero()[0].tolist()  # the P2 band
    decided, x, found = [("OutsideIm", (), 0)] * n, np.empty((0, 2)), [()] * n
    if inside:
        taus_in, slack_in, taus_u = _rows_of((taus, slack, taus_u), inside, n)
        co_in = _coeff_rows(config, taus_u) if co is None else _rows_of(co, inside, n)
        decided_in = _classify_rows(config, taus_in, rtol, co_in, names, slack_in)
        if len(inside) == n:  # no scatter on the one-row path
            decided = decided_in
        else:
            for i, row in zip(inside, decided_in):
                decided[i] = row
        if invert:
            rows = [k for k, (_, _, fiber) in enumerate(decided_in) if fiber]
            taus_inv, *co_inv = _rows_of((taus_in, *co_in), rows, len(inside))
            x, kept = _invert_rows(config, taus_inv, rtol, tuple(co_inv))
            for k, points in zip(rows, kept):
                found[inside[k]] = points
    return names, slack, decided, (x, found) if invert else None


def _classify_rows(config: SensorConfig, taus: np.ndarray, rtol: float, co: tuple, names: tuple,
                   slack: np.ndarray) -> tuple:
    """classify_tau's (label, ids, fiber) of each row that passed _tau_rows' band gate, in a list.

    co, names and slack: their arrays of _coeff_rows and their P2 facet names and slacks.  The
    tangency nearness runs once over all rows, the lens cone depths once when some row needs them.
    """
    tangent = _near_rows(config._memo(_tangency_table), taus, rtol * config.d_max)
    corner, decided = None, []
    an, bn = co[6].tolist(), co[7].tolist()
    for i, near in enumerate(tangent):
        ids_i, fiber = (), 1
        if (tid := _first(near)) is not None:
            label, ids_i, fiber = "TangencyPoint", (TANGENCY_IDS[tid],), 0
        elif (sign_a := _sign(an[i], rtol)) < 0:
            label = "EMinus"
        elif sign_a == 0:
            label, ids_i = "BoundaryArc", ("E",)
        elif (sign_b := _sign(bn[i], rtol)) > 0:
            active, _ = _facet_verdict(zip(names, slack[i].tolist()), rtol, config.d_max)
            if active:
                label, ids_i = "BoundaryArc", active
            else:
                corner = corner or _lens_corners(config, taus)
                label, fiber = f"U_{corner[i]}", 2
        elif sign_b == 0:
            label, ids_i = "BoundaryArc", ("C",)
        else:
            label, fiber = "OutsideIm", 0
        decided.append((label, ids_i, fiber))
    return decided


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
    of floats, solved on the unit geometry.  InvalidParam where some |tau|, or
    a lift t, exceeds _LIFT_BOUND * d_max.
    """
    kind, d_max, unit = config.kind, config.d_max, config._unit
    taus_u = _to_unit(config, taus, _LIFT_BOUND, "tau too large for the collinear lift")
    vertex = _near_rows(config._memo(_vertex_images), taus, rtol * d_max)

    # the Stewart quadric along the lift (tau1 + t, tau2 + t, t) is linear
    # in t: c_lin + a_lin * t (canonical labels, unit geometry)
    d, d21, rho = d_max * unit, kind.d21 * unit, kind.rho
    order = list(kind.order)
    qv = np.concatenate((taus_u, np.zeros((len(taus), 1))), axis=1)[:, order]
    a_lin = 2.0 * ((1.0 - rho) * qv[:, 0] + rho * qv[:, 1] - qv[:, 2])
    c_lin = np.array([_stewart(rho, d21, *row) for row in qv.tolist()], dtype=float)
    flat = np.abs(a_lin) <= (tol_lin := rtol * d)
    # a flat row's lift is discarded: t = 0 there keeps its slacks finite
    num, den = np.where(flat, 0.0, -c_lin), np.where(flat, 1.0, a_lin)
    if np.any(np.abs(num) > _LIFT_BOUND * d * np.abs(den)):  # |t| = |num / den|, no overflow
        raise InvalidParam(f"range differences too large for the collinear lift: a lift lies "
                           f"beyond t = {_LIFT_BOUND:g} d_max")
    t_star = num / den
    lift = np.concatenate((taus_u + t_star[:, None], t_star[:, None]), axis=1)
    columns = np.transpose(config._memo(_collinear_facet_table))  # (c0, c1, c2, c3), each (4,)
    columns[0] *= unit  # to the unit geometry: the offsets and the Gamma3 row are lengths
    columns[1:, Q3_FACETS_COLLINEAR.index("Gamma3")] *= unit
    q3 = _slacks([columns], *lift[:, order].T[:, :, None])[0]

    labels, ids, fibers, lifts = [], [], [], []
    for (t1, t2), near, is_flat, c, low, lift_i, slack3 in zip(
            taus.tolist(), vertex, flat.tolist(), c_lin.tolist(), lift.min(axis=1).tolist(),
            (lift / unit).tolist(), q3.tolist()):
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
            # the flat lift meets the quadric everywhere or nowhere
            lift_i = None
            if _stewart_gate(config, c, rtol)[1]:
                label, ids_i, fiber = "VertexRay", ("R1", "R2"), math.inf
            else:
                label = "OutsideIm"
        elif low < -tol_lin:
            label = "OutsideIm"
        else:
            active, verdict = _facet_verdict(zip(Q3_FACETS_COLLINEAR, slack3), rtol, d)
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
    """One TdoaCoeffs per row of the arrays of _coeff_rows, in the caller's units."""
    a, b, c, u0, v = co[:5]
    v_time = _from_unit(config, abs(config._memo(_line_constants)[4]), 2)
    return [TdoaCoeffs(a=_from_unit(config, ai, 4), b=_from_unit(config, bi, 3),
                       c=_from_unit(config, ci, 2), u0=ui, v_spatial=vi, v_time=v_time)
            for ai, bi, ci, ui, vi in zip(a.tolist(), b.tolist(), c.tolist(),
                                          u0 / config._unit, _from_unit(config, v, 2))]


def _regions(config: SensorConfig, taus: np.ndarray, rtol: float, invert: bool = False) -> tuple:
    """One TauRegion per row of an (N, 2) array of validated tau, and with invert _tau_rows' (x,
    found) in general position (else None).  _coeff_rows runs on every row, for the TdoaCoeffs."""
    if config.is_collinear:
        names, slack = _p2_slacks(config, taus)
        labels, ids, fibers, lifts = _classify_collinear_rows(config, taus, rtol)
        decided, coeffs, inverted = zip(labels, ids, fibers), (None,) * len(taus), None
    else:
        co = _coeff_rows(config, _line_taus(config, taus))
        names, slack, decided, inverted = _tau_rows(config, taus, rtol, co, invert)
        coeffs, lifts = _coeff_objects(config, co), (None,) * len(taus)
    return tuple([TauRegion(label=label, ids=ids, fiber=fiber, residuals=dict(zip(names, row)),
                            coeffs=c, lift=None if lift is None else np.array(lift))
                  for (label, ids, fiber), lift, row, c in zip(decided, lifts, slack.tolist(),
                                                               coeffs)]), inverted


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
    infinity.  It is the null-cone quadratic a l^2 + 2b l + c of tdoa_coeffs in
    l = -t / v_time, times 4 w12^2, where v_time = |w12| is twice the
    triangle's area: (A, B, C) = (4a, -8 |w12| b, 4 w12^2 c), those of the unit
    geometry times 2^4k, 2^5k, 2^6k (+-inf or 0.0 outside the float range).
    InvalidParam beyond _LINE_BOUND * d_max.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("collinear receivers: the lift is linear, not quadratic")
    tau = _measurement(tau, 2, "range differences")
    a, b, c = (float(k[0]) for k in _coeff_rows(config, _line_taus(config, tau[None]))[:3])
    w12 = config._memo(_line_constants)[4]
    unit_abc = (4.0 * a, -8.0 * abs(w12) * b, 4.0 * w12 * w12 * c)
    return tuple(_from_unit(config, value, degree) for value, degree in zip(unit_abc, (4, 5, 6)))
