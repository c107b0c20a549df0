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

For fixed receivers every quantity above is elementwise in tau.  Each formula
is written once and runs in one of two forms: on a *float row*, the two
Python floats of one tau, or on a *block*, the (N,) columns of an (N, 2)
array.  The config-only constants (``SensorConfig._memo``) are tuples of
floats; a formula over a table runs per row of it on a float row and on its
(k,) columns for a block (``_over``, as ``kummer._slacks`` does).  NumPy stays
only where a test or golden pins its bits: the LAPACK solve of the base point
u0 (config._solve) and one stacked matmul for the dot products (``_dots``).
Elsewhere a block runs the float formulas on its columns, the Stewart quadric
of the collinear lift among them (toa3._stewart).  One pipeline,
``_tau_rows``, composes the kernels in general position: stage 1 labels the
rows outside the hexagon P2 ``OutsideIm`` from their P2 slacks alone and
classifies the others (``_classify_rows``); stage 2 inverts the rows of fiber
1 or 2 (``_invert_rows``).  The label ladder, the lens pick and the root
choice run per row on floats in both forms; ``_tau_rows``' row split and
``_invert_rows``' candidate step are where the forms part.  The one-row calls
(classify_tau, invert_tdoa, tdoa_coeffs, t_quadratic, p2_membership, and
classify_invert_tau and tau_fibers on one row) take the float row.
``tau_fibers`` returns both stages as plain tuples; ``classify_invert_tau``
and ``classify_tau`` get result objects from ``_regions``.  The null-cone line
and the collinear lift work on the unit geometry of config.py; points, lifts
and coefficients are scaled back.
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
from .toa3 import SolutionSet, _range, _stewart, _stewart_gate

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
# the same cones as rows (p, q) of the tangency table
_LENS_ROWS = tuple(tuple(TANGENCY_IDS.index(t) for t in ends) for ends in _LENS_CONES.values())


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
# the two forms: a float row [tau1, tau2], or the (N,) columns of an (N, 2) array

def _one_row(taus: np.ndarray):
    """A validated (N, 2) array as the kernels take it: one row as a float row, else the block."""
    return taus[0].tolist() if len(taus) == 1 else taus


def _columns(taus) -> tuple:
    """tau1 and tau2: the floats of a float row, the (N,) columns of a block (contiguous)."""
    return taus if isinstance(taus, list) else taus.T.copy()


def _listed(values) -> list:
    """Per row, the Python values of a formula's result: [values] for a float row (a float, or
    the list of a table formula's k values), values.tolist() for a block's (N,) or (N, k) array."""
    return values.tolist() if isinstance(values, np.ndarray) else [values]


def _over(kernel, rows: tuple, *args):
    """kernel(rows, *args) for a kernel that makes one list entry per row of a float table, as
    kummer._slacks does: the list of its k entries for a float row.  For a block the table
    runs as one row of (k, 1) columns against the (N,) columns, and the result is (N, k)."""
    if not isinstance(args[0], np.ndarray):
        return kernel(rows, *args)
    (values,) = kernel([np.array(rows).T[:, :, None]], *args)
    return values.T


def _pairs(x, y):
    """Per row, the (2,) array (x, y): of two floats, or the rows of the (N, 2) array of two
    (N,) columns."""
    return np.stack((x, y), axis=1) if isinstance(x, np.ndarray) else [np.array((x, y))]


def _unstacked(a: np.ndarray):
    """The entries on the last axis of a NumPy result: floats of one row (shape (k,)), the
    contiguous (N,) columns of a block's (N, k)."""
    return a.tolist() if a.ndim == 1 else a.T.copy()


def _dots(x: list, y: list):
    """The dot products (x[0], x[1]) . (y[0], y[1]), (x[2], x[3]) . (y[2], y[3]), ... of
    floats or of (N,) columns, as floats or (N,) columns.

    One stacked (k, 1, 2) @ (k, 2, 1) matmul, (N, k, 1, 2) @ (N, k, 2, 1) for columns: each
    product is the BLAS ddot of a 1-D x @ y bit for bit, which x0*y0 + x1*y1 on floats is not.
    _coeff_rows' bits are pinned by the localize_tdoa_interior golden, the tests/test_census.py
    digests and test_classify_invert_tau_rows_are_the_scalar_calls.
    """
    x, y = np.array(x).T, np.array(y).T  # (2k,), or (N, 2k), which the reshapes copy C-ordered
    lead, k = x.shape[:-1], x.shape[-1] // 2
    return _unstacked((x.reshape(lead + (k, 1, 2)) @ y.reshape(lead + (k, 2, 1)))[..., 0, 0])


def _near(points: tuple, t1, t2, tol: float) -> list:
    """Per point (px, py) of a table: tau within tol of it in the max norm."""
    return [(abs(t1 - px) <= tol) & (abs(t2 - py) <= tol) for px, py in points]


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
    """P2's facet names and float rows (c0, c1, c2, c3); a config-only constant.

    Row k is the ray trope of _facet_rows, at the configuration's distances,
    that projects to facet names[k] of P2_FACETS: on the lift (tau1 + t,
    tau2 + t, t), t drops out as c1 + c2 + c3 = 0, so the slack is
    kummer._slacks at (tau1, tau2, 0).  c1 and c2 are 0 or +-1, so each slack
    is c1 tau1 + c2 tau2, one rounding, plus c0.  Collinear receivers drop the
    facet pair of the longest pairwise distance.
    """
    d21, d31, d32 = config.d21, config.d31, config.d32
    rows = _facet_rows(d21, d31, d32)
    columns = _P2_ROWS
    if config.is_collinear:
        longest = max([("tau2-tau1", d21), ("tau1", d31), ("tau2", d32)], key=lambda p: p[1])[0]
        columns = [(name, k) for name, k in columns if not name.startswith(longest + "=")]
    return tuple(name for name, _ in columns), tuple(rows[k] for _, k in columns)


def _p2_slacks(config: SensorConfig, t1, t2) -> tuple:
    """Facet names and the P2 facet slacks of tau: k floats of a float row, (N, k) of a block."""
    names, rows = config._memo(_p2_table)
    return names, _over(_slacks, rows, t1, t2, 0.0)


def p2_membership(config: SensorConfig, tau, rtol: float = _RTOL) -> P2Report:
    _require_planar_triple(config)
    names, slack = _p2_slacks(config, *_measurement(tau, 2, "range differences"))
    residuals = dict(zip(names, slack))
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
    return _coeff_objects(config, _coeff_rows(config, *_line_taus(config, tau)))[0]


def _line_constants(config: SensorConfig) -> tuple:
    """The null-cone line's config-only constants of the unit geometry.

    (d31v, d32v, M, shift, w12, flip): d31v = m3 - m1 and d32v = m3 - m2 as
    float pairs, the rows of M, a read-only (2, 2) array (validate_config's
    last two sides) for the solve of the base point u0; shift = (d31^2,
    d32^2); w12 = cross2(d31v, d32v) is twice the signed area; flip = (s, -s)
    with s = -sign(w12) orients v_spatial.  Read it through
    config._memo(_line_constants).
    """
    M = config._sides[1:]
    (x31, y31), (x32, y32) = M.tolist()
    w12 = x31 * y32 - y31 * x32
    s = -math.copysign(1.0, w12)
    r31, r32 = config.d31 * config._unit, config.d32 * config._unit
    return (x31, y31), (x32, y32), M, (r31 * r31, r32 * r32), w12, (s, -s)


def _line_taus(config: SensorConfig, taus):
    """The null-cone line's input: taus times 2^-k, InvalidParam beyond _LINE_BOUND * d_max."""
    return _to_unit(config, taus, _LINE_BOUND, "tau too large for the null-cone quadratic")


def _coeff_rows(config: SensorConfig, t1, t2) -> tuple:
    """(a, b, c, u0x, u0y, vx, vy, |v_spatial|^2, an, bn) of the unit geometry at _line_taus
    tau1, tau2, floats or (N,) columns; an = a / d_max^4 and bn = b / d_max^3 are scale-free."""
    (x31, y31), (x32, y32), M, (s31, s32), w12, (s, r) = config._memo(_line_constants)
    # one LAPACK solve per row, as a stack on a block; a multi-column solve rounds differently
    u0x, u0y = _unstacked(_solve(M, np.array([0.5 * (t1 * t1 - s31), 0.5 * (t2 * t2 - s32)]).T))
    qx, qy = t1 * x32 - t2 * x31, t1 * y32 - t2 * y31
    vx, vy = qy * s, qx * r
    qq, b, c, vv = _dots([qx, qy, u0x, u0y, u0x, u0y, vx, vy], [qx, qy, vx, vy, u0x, u0y, vx, vy])
    a = qq - w12 * w12
    d = config.d_max * config._unit
    return a, b, c, u0x, u0y, vx, vy, vv, a / d ** 4, b / d ** 3


def tangency_points(config: SensorConfig) -> dict:
    """The six points where the asymptotic ellipse touches the hexagon.

    T_i^+- is the limit of tau along sources receding parallel to the
    receiver pair not involving receiver i.
    """
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig("tangency points require receivers in general position")
    return {tid: np.array(pt) for tid, pt in zip(TANGENCY_IDS, config._memo(_tangency_table))}


def _tangency_table(config: SensorConfig) -> tuple:
    """The tangency points as six float pairs in TANGENCY_IDS order; a config-only constant.

    T_i^+ = (d31v . u, d32v . u) for the unit side u = (m3 - m2) / d32,
    (m3 - m1) / d31, (m2 - m1) / d21 (validate_config's sides, reversed), and
    T_i^- = -T_i^+, scaled back from the unit geometry: the dot products are
    _dots', whose bits test_config_memos_match_the_old_builders pins.  Read it
    through config._memo(_tangency_table).
    """
    d21v, d31v, d32v = config._sides.tolist()
    unit = config._unit
    units = [[c / (norm * unit) for c in side] for side, norm in
             ((d32v, config.d32), (d31v, config.d31), (d21v, config.d21))]
    dots = _dots((d31v + d32v) * 3, [c for u in units for c in u + u])
    a1, b1, a2, b2, a3, b3 = (p / unit for p in dots)
    return (a1, b1), (-a1, -b1), (a2, b2), (-a2, -b2), (a3, b3), (-a3, -b3)


def _lens_table(config: SensorConfig) -> tuple:
    """The lens cones as float rows (px, py, qx, qy, w), a config-only constant.

    Row i - 1 is the cone of U_i, spanned by its two tangency points
    p = (px, py) and q = (qx, qy) of _LENS_CONES, with w = cross2(p, q).  A w
    of 0.0 (a triangle so thin that p and q are parallel in floats) is kept as
    a NumPy float: a float divided by it is then +-inf or NaN, with the
    RuntimeWarning of the block form, where a Python 0.0 would raise
    ZeroDivisionError.
    """
    tangency = config._memo(_tangency_table)
    cones = []
    for kp, kq in _LENS_ROWS:
        (px, py), (qx, qy) = tangency[kp], tangency[kq]
        w = px * qy - py * qx
        cones.append((px, py, qx, qy, w if w else np.float64(w)))
    return tuple(cones)


def _vertex_images(config: SensorConfig) -> tuple:
    """tau of each receiver, the projection of its image node, as three float pairs."""
    return tuple((n1 - n3, n2 - n3) for n1, n2, n3 in config._memo(_node_images).tolist())


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
    return _solution_sets(*_invert_rows(config, tau, rtol))[0]


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


def _candidates(config: SensorConfig, lam, u0x, u0y, vx, vy) -> tuple:
    """x and y of the source points m3 + (u0 + lam * v_spatial) / 2^-k: floats or (K,) columns."""
    (m3x, m3y), unit = config._receiver_stack[2].tolist(), config._unit
    return (m3x + u0x / unit) + lam * vx / unit, (m3y + u0y / unit) + lam * vy / unit


def _invert_rows(config: SensorConfig, taus, rtol: float, co: tuple = None) -> tuple:
    """invert_tdoa for validated tau in general position: a float row, or an (N, 2) array.

    Returns (x, kept): the candidate points as the rows of an (K, 2) array,
    and per row of taus the list of the indices in x of its accepted points.
    The roots are chosen per row on floats (unit geometry).  The candidate
    step, where the two forms part, builds the points and checks them against
    the forward map: on floats for a float row (toa3._range, which matches
    config.distances), once over all candidates of a block.  Accepted points
    closer than _MERGE_RTOL * d_max (math.dist on floats) are merged.  co:
    _coeff_rows' values, if at hand.
    """
    row = isinstance(taus, list)
    a, b, c, u0x, u0y, vx, vy, vv, an, bn = co or _coeff_rows(
        config, *_columns(_line_taus(config, taus)))
    d_max, unit = config.d_max, config._unit
    snap = _DUPLICATE_RTOL * d_max * unit  # a root at the cone's vertex: a source at receiver 3
    rows, lams = [], []
    for i, (ai, bi, ci, ani, bni, vvi) in enumerate(zip(*map(_listed, (a, b, c, an, bn, vv)))):
        vn = math.sqrt(vvi)
        for lam in _null_cone_roots(ai, bi, ci, ani, bni, rtol):
            if abs(lam) * vn <= snap:
                lam = 0.0
            if not lam > 0.0:  # past-cone roots only
                rows.append(i)
                lams.append(lam)
    kept = [[] for _ in range(1 if row else len(taus))]
    if not rows:
        return np.empty((0, 2)), kept
    if row:  # each candidate on floats, and tau_map on floats
        points = [_candidates(config, lam, u0x, u0y, vx, vy) for lam in lams]
        receivers, miss = config._receiver_stack.tolist(), []
        for p in points:
            d1, d2, d3 = [_range(p, m, unit) / unit for m in receivers]
            miss.append(max(abs(d1 - d3 - taus[0]), abs(d2 - d3 - taus[1])))
        x = np.array(points)
    else:
        # back to the caller's units: within _LINE_BOUND neither term overflows
        idx = np.array(rows)
        x = np.stack(_candidates(config, np.array(lams),
                                 *(col.take(idx) for col in (u0x, u0y, vx, vy))), axis=1)
        miss = np.abs(tau_map(config, x) - taus.take(idx, axis=0))
        miss = np.maximum(miss[:, 0], miss[:, 1]).tolist()
        points = x.tolist()
    for k, (i, m) in enumerate(zip(rows, miss)):
        found = kept[i]
        # merge numerically identical roots: a row has at most two, so found is [k - 1] or empty
        if m <= _VERIFY_RTOL * d_max and not (
                found and math.dist(points[k], points[k - 1]) <= _MERGE_RTOL * d_max):
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
    return _regions(config, tau, rtol)[0][0]


def classify_invert_tau(config: SensorConfig, taus, rtol: float = _RTOL) -> tuple:
    """Classify every row of an (N, 2) array of range differences; invert the rows of fiber 1 or 2.

    Returns (regions, solutions): regions[i] equals classify_tau(config, taus[i], rtol), and
    solutions[i] equals invert_tdoa(config, taus[i], rtol) where regions[i].fiber is 1 or 2, an
    empty SolutionSet (the row is not inverted) where it is 0.  solutions is None for collinear
    receivers, where invert_tdoa raises.  The null-cone coefficients are built once for both.
    """
    _require_planar_triple(config)
    taus = _one_row(_measurement_rows(taus, 2, "range differences"))
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
    taus = _one_row(_measurement_rows(taus, 2, "range differences"))
    if config.is_collinear:
        labels, _, fibers, _ = _classify_collinear_rows(config, taus, rtol)
        return tuple(labels), tuple(fibers), None
    _, _, decided, (x, found) = _tau_rows(config, taus, rtol, invert=True)
    xs = list(map(tuple, x.tolist()))
    return (tuple([row[0] for row in decided]), tuple([row[2] for row in decided]),
            tuple([tuple([xs[j] for j in f]) if f else () for f in found]))


def _rows_of(arrays: tuple, rows: list, n: int) -> tuple:
    """The given rows of each array, or the arrays themselves when rows are all n of them."""
    if len(rows) == n:
        return arrays
    rows = np.array(rows, dtype=np.intp)
    return tuple([a.take(rows, axis=0) for a in arrays])


def _tau_rows(config: SensorConfig, taus, rtol: float, co: tuple = None,
              invert: bool = False) -> tuple:
    """The TDOA pipeline for validated tau in general position: a float row, or an (N, 2) array.

    Stage 1 checks the input bound (_line_taus, unless co, _coeff_rows' all-row values, is
    given) and computes the P2 slacks; a row outside the P2 band is OutsideIm with fiber 0 from
    them alone, and only the other rows get coefficient rows and _classify_rows.  Stage 2, with
    invert, runs _invert_rows on the rows of fiber 1 or 2 only.  Returns (names, slack, decided,
    inverted): decided[i] is row i's (label, ids, fiber); inverted is None without invert, else
    (x, found), _invert_rows' points and per row the indices in x of its own (() if none).
    """
    row = isinstance(taus, list)
    n = 1 if row else len(taus)
    taus_u = _line_taus(config, taus) if co is None else taus  # the block's one bound check
    names, slack = _p2_slacks(config, *_columns(taus))
    band = -rtol * config.d_max
    # the row split: the rows inside the P2 band
    inside = ([0] if min(slack) >= band else []) if row else \
        (slack >= band).all(axis=1).nonzero()[0].tolist()
    decided, found = [("OutsideIm", (), 0)] * n, [()] * n
    x = np.empty((0, 2)) if invert else None
    if inside:
        taus_in, slack_in, taus_u = _rows_of((taus, slack, taus_u), inside, n)
        co_in = _coeff_rows(config, *_columns(taus_u)) if co is None else _rows_of(co, inside, n)
        decided_in = _classify_rows(config, taus_in, rtol, co_in, names, slack_in)
        if len(inside) == n:  # no scatter on the one-row path
            decided = decided_in
        else:
            for i, labelled in zip(inside, decided_in):
                decided[i] = labelled
        rows = [k for k, (_, _, fiber) in enumerate(decided_in) if fiber] if invert else None
        if rows:
            taus_inv, *co_inv = _rows_of((taus_in, *co_in), rows, len(inside))
            x, kept = _invert_rows(config, taus_inv, rtol, tuple(co_inv))
            for k, points in zip(rows, kept):
                found[inside[k]] = points
    return names, slack, decided, (x, found) if invert else None


def _classify_rows(config: SensorConfig, taus, rtol: float, co: tuple, names: tuple,
                   slack) -> list:
    """classify_tau's (label, ids, fiber) of each row that passed _tau_rows' band gate, in a list.

    taus: a float row or a block; co, names and slack: its _coeff_rows values and its P2 facet
    names and slacks.  The tangency nearness runs once over all rows; the rows with a > 0 and
    b > 0, on a P2 facet or in a lens, are decided in a second pass, each on its own floats:
    its slacks and its lens cone coordinates.
    """
    t1, t2 = _columns(taus)
    tangent = _listed(_over(_near, config._memo(_tangency_table), t1, t2, rtol * config.d_max))
    decided, lens_side = [], []
    for i, (near, an, bn) in enumerate(zip(tangent, _listed(co[8]), _listed(co[9]))):
        ids_i, fiber = (), 1
        if (tid := _first(near)) is not None:
            label, ids_i, fiber = "TangencyPoint", (TANGENCY_IDS[tid],), 0
        elif (sign_a := _sign(an, rtol)) < 0:
            label = "EMinus"
        elif sign_a == 0:
            label, ids_i = "BoundaryArc", ("E",)
        elif (sign_b := _sign(bn, rtol)) > 0:
            label = None  # decided below
            lens_side.append(i)
        elif sign_b == 0:
            label, ids_i = "BoundaryArc", ("C",)
        else:
            label, fiber = "OutsideIm", 0
        decided.append((label, ids_i, fiber))
    if lens_side:
        cones = config._memo(_lens_table)
        t1, t2, slack = _rows_of((t1, t2, slack), lens_side, len(decided))
        for i, x1, x2, slack_i in zip(lens_side, _listed(t1), _listed(t2), _listed(slack)):
            active, _ = _facet_verdict(zip(names, slack_i), rtol, config.d_max)
            decided[i] = ("BoundaryArc", active, 1) if active else (
                f"U_{_deepest(_cone_coordinates(cones, x1, x2))}", (), 2)
    return decided


def _cone_coordinates(cones: tuple, t1: float, t2: float) -> list:
    """Per lens cone (px, py, qx, qy, w): (s, t) of tau = s*p + t*q, that is cross2(tau, q) / w
    and cross2(p, tau) / w, at the floats of one row."""
    return [((t1 * qy - t2 * qx) / w, (px * t2 - py * t1) / w) for px, py, qx, qy, w in cones]


def _deepest(coordinates: list) -> int:
    """The corner i whose lens cone holds tau most deeply, from its (s, t) in each cone: the
    depth min(s, t) is positive exactly inside a cone, and the first greatest wins."""
    depth = [min(s, t) for s, t in coordinates]
    return depth.index(max(depth)) + 1


def _collinear_lift_table(config: SensorConfig) -> tuple:
    """kummer._collinear_facet_table on the unit geometry, a config-only constant: the offsets
    c0 and the Gamma3 row are lengths, times 2^-k."""
    unit = config._unit
    return tuple((c0 * unit, *((c1 * unit, c2 * unit, c3 * unit) if name == "Gamma3" else
                               (c1, c2, c3)))
                 for name, (c0, c1, c2, c3) in zip(Q3_FACETS_COLLINEAR,
                                                   config._memo(_collinear_facet_table)))


def _classify_collinear_rows(config: SensorConfig, taus, rtol: float) -> tuple:
    """_classify_rows for a collinear triple: the lift to ranges replaces the quadratic.

    taus: a float row or an (N, 2) array.  Each lift is None or the lifted
    triple (tau1 + t, tau2 + t, t) as floats, solved on the unit geometry.
    InvalidParam where some |tau|, or a lift t, exceeds _LIFT_BOUND * d_max.
    """
    kind, d_max, unit = config.kind, config.d_max, config._unit
    t1, t2 = _columns(taus)
    u1, u2 = _columns(_to_unit(config, taus, _LIFT_BOUND, "tau too large for the collinear lift"))
    vertex = _listed(_over(_near, config._memo(_vertex_images), t1, t2, rtol * d_max))

    # the Stewart quadric along the lift (tau1 + t, tau2 + t, t) is linear
    # in t: c_lin + a_lin * t (canonical labels, unit geometry)
    d, rho = d_max * unit, kind.rho
    p1, p2, p3 = ((u1, u2, 0.0)[k] for k in kind.order)  # the lift at t = 0: (tau1, tau2, 0)
    a_lin = 2.0 * ((1.0 - rho) * p1 + rho * p2 - p3)
    c_lin = _stewart(rho, kind.d21 * unit, p1, p2, p3)
    flat = abs(a_lin) <= (tol_lin := rtol * d)
    # a flat row's lift is discarded: num = 0 and den = a_lin + 1 there keep its t finite
    num, den = -c_lin * (1 - flat), a_lin + flat
    if True in _listed(abs(num) > _LIFT_BOUND * d * abs(den)):  # |t| = |num / den|, no overflow
        raise InvalidParam(f"range differences too large for the collinear lift: a lift lies "
                           f"beyond t = {_LIFT_BOUND:g} d_max")
    t_star = num / den
    lift = (u1 + t_star, u2 + t_star, t_star)
    q3 = _over(_slacks, config._memo(_collinear_lift_table), *(lift[k] for k in kind.order))

    labels, ids, fibers, lifts = [], [], [], []
    for (x1, x2), near, is_flat, c, lift_u, lift_i, slack3 in zip(
            zip(_listed(t1), _listed(t2)), vertex, _listed(flat), _listed(c_lin),
            zip(*map(_listed, lift)), zip(*(_listed(v / unit) for v in lift)), _listed(q3)):
        ids_i, fiber = (), 0
        if (row := _first(near)) is not None:
            # vertex images (canonical ids: R1, R2 endpoints, R3 middle)
            cid = f"R{kind.order.index(row) + 1}"
            if cid == "R3":
                t_mid = (config.d31, config.d32, 0.0)[row]
                lift_i = [x1 + t_mid, x2 + t_mid, t_mid]
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
        elif min(lift_u) < -tol_lin:
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
    """One TdoaCoeffs per row of _coeff_rows' values, in the caller's units."""
    if config._k:  # a, b, c, u0 and v_spatial are of degree 4, 3, 2, 1 and 2
        co = [_from_unit(config, x, degree) for x, degree in zip(co, (4, 3, 2, 1, 1, 2, 2))]
    a, b, c, u0x, u0y, vx, vy = co[:7]
    v_time = _from_unit(config, abs(config._memo(_line_constants)[4]), 2)
    return [TdoaCoeffs(a=ai, b=bi, c=ci, u0=ui, v_spatial=vi, v_time=v_time)
            for ai, bi, ci, ui, vi in zip(_listed(a), _listed(b), _listed(c), _pairs(u0x, u0y),
                                          _pairs(vx, vy))]


def _regions(config: SensorConfig, taus, rtol: float, invert: bool = False) -> tuple:
    """One TauRegion per row of validated tau, a float row or an (N, 2) array, and with invert
    _tau_rows' (x, found) in general position (else None).  _coeff_rows runs on every row, for
    the TdoaCoeffs."""
    if config.is_collinear:
        names, slack = _p2_slacks(config, *_columns(taus))
        labels, ids, fibers, lifts = _classify_collinear_rows(config, taus, rtol)
        decided, coeffs, inverted = zip(labels, ids, fibers), [None] * len(labels), None
    else:
        co = _coeff_rows(config, *_columns(_line_taus(config, taus)))
        names, slack, decided, inverted = _tau_rows(config, taus, rtol, co, invert)
        coeffs = _coeff_objects(config, co)
        lifts = [None] * len(coeffs)
    return tuple([TauRegion(label=label, ids=ids, fiber=fiber, residuals=dict(zip(names, row)),
                            coeffs=c, lift=None if lift is None else np.array(lift))
                  for (label, ids, fiber), lift, row, c in zip(decided, lifts, _listed(slack),
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
    a, b, c = _coeff_rows(config, *_line_taus(config, tau))[:3]
    w12 = config._memo(_line_constants)[4]
    unit_abc = (4.0 * a, -8.0 * abs(w12) * b, 4.0 * w12 * w12 * c)
    return tuple(_from_unit(config, value, degree) for value, degree in zip(unit_abc, (4, 5, 6)))
