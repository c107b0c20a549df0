"""Independent numerical oracles used by the test suite.

These are deliberately written against the raw geometry (circle
intersections, finite differences, dense parameter sweeps) rather than
against the library's own algebra, so that agreement is evidence.
"""
import math
from collections import Counter

import numpy as np

import rangegeom as rg


def _sweep_count(anchor, other, checker, tau_anchor, tau_checker, s) -> int:
    """Sign changes of the sweep function for one circle construction.

    Candidate sources are intersections of |x - anchor| = tau_anchor + s and
    |x - m3| = s (m3 enters through `s` itself: the caller passes anchor and
    m3 as the circle pair); each branch is tested against the remaining
    receiver via f(s) = |x(s) - checker| - (tau_checker + s).
    """
    d = float(np.linalg.norm(other - anchor))
    u = (other - anchor) / d
    nvec = np.array([-u[1], u[0]])
    r1 = tau_anchor + s
    a = (d * d + r1 * r1 - s * s) / (2.0 * d)
    h2 = r1 * r1 - a * a
    valid = h2 >= 0.0
    h = np.sqrt(np.where(valid, h2, 0.0))
    base = anchor[None, :] + a[:, None] * u[None, :]
    count = 0
    for sgn in (1.0, -1.0):
        x = base + sgn * h[:, None] * nvec[None, :]
        f = np.linalg.norm(x - checker[None, :], axis=1) - (tau_checker + s)
        ok = valid[:-1] & valid[1:]
        count += int(np.sum(ok & (np.sign(f[:-1]) * np.sign(f[1:]) < 0)))
    return count


def brute_fiber(config, tau, smax: float = None, n: int = 120_000) -> int:
    """Count range-difference fiber points by sweeping the reference distance.

    Parameterize candidate sources by s = |x - m3| >= max(0, -tau1, -tau2).
    For each s the circles |x - m_i| = tau_i + s and |x - m3| = s meet in up
    to two points x±(s); a source with difference vector tau exists exactly
    where f±(s) = |x±(s) - m_j| - (tau_j + s) crosses zero, and the count of
    sign changes over the valid-s runs is the fiber size (for tau away from
    the tangency locus, where roots are simple).

    A root sitting on the m_i--m3 axis makes that construction's circles
    tangent exactly there, hiding the crossing, so the sweep is run for both
    choices of the circle pair (i = 1 and i = 2) and the larger count wins:
    a construction can only miss crossings, never invent them, and no source
    other than m3 itself lies on both axes.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if smax is None:
        smax = 120.0 * config.d_max
    s_lo = max(0.0, -tau[0], -tau[1]) + 1e-12
    m1, m2, m3 = (np.asarray(config.m(i), dtype=float) for i in (1, 2, 3))
    s = np.linspace(s_lo, smax, n)
    count_13 = _sweep_count(m1, m3, m2, tau[0], tau[1], s)
    count_23 = _sweep_count(m2, m3, m1, tau[1], tau[0], s)
    return max(count_13, count_23)


def numeric_jacobian(fun, x, h: float):
    """Central finite-difference Jacobian of fun: R^k -> R^m at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def circle_pair_intersections(c1, r1, c2, r2):
    """Intersection points of two circles; empty tuple if disjoint."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = float(np.linalg.norm(c2 - c1))
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return ()
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0.0:
        return ()
    h = np.sqrt(max(h2, 0.0))
    u = (c2 - c1) / d
    nvec = np.array([-u[1], u[0]])
    base = c1 + a * u
    if h == 0.0:
        return (base,)
    return (base + h * nvec, base - h * nvec)


def poly_eval_per_term(terms: dict, T) -> np.ndarray:
    """Polynomial value at triple(s) T, every power taken afresh for every term.

    The evaluation loop rangegeom used before its powers were shared across
    terms, kept verbatim: the reference that quartic_residual must match bit
    for bit.
    """
    T = np.asarray(T, dtype=float)
    out = np.zeros(T.shape[:-1])
    for (e1, e2, e3), coeff in terms.items():
        out = out + coeff * T[..., 0] ** e1 * T[..., 1] ** e2 * T[..., 2] ** e3
    return out


def tdoa_coeffs_per_call(config, tau) -> tuple:
    """(a, b, c, u0, v_spatial, v_time) of the null-cone quadratic, one tau at a time.

    The scalar formula rangegeom used before its coefficients were built in
    row kernels, kept verbatim (1-D dot products, a one-column solve): the
    reference that every row of tdoa._coeff_rows must match bit for bit.
    """
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
    return a, b, c, u0, v_spatial, v_time


def census_per_point(config, extent: float, resolution: int):
    """scripts/fiber_census.py's census as it was before it ran in blocks, kept verbatim.

    One classify_tau and at most one invert_tdoa call per grid point: the
    reference for the batched census's rows, counts and mismatches.
    """
    lim = extent * config.d_max
    axis = np.linspace(-lim, lim, resolution)
    rows = []
    counts = Counter()
    mismatches = 0
    for t1 in axis:
        for t2 in axis:
            region = rg.classify_tau(config, (t1, t2))
            counts[region.label] += 1
            solutions = ""
            if not config.is_collinear and region.fiber in (1, 2):
                sol = rg.invert_tdoa(config, (t1, t2))
                if len(sol.points) != region.fiber:
                    mismatches += 1
                solutions = ";".join(
                    "%.17g:%.17g" % (p[0], p[1]) for p in sol.points
                )
            fiber = "inf" if region.fiber == math.inf else str(region.fiber)
            rows.append((t1, t2, region.label, fiber, solutions))
    return rows, counts, mismatches


def q3_residuals_general(config, T1, T2, T3) -> dict:
    """The 12 facet slacks as rangegeom wrote them before its trope table, kept verbatim."""
    d21, d31, d32 = config.d21, config.d31, config.d32
    return {
        "r30": T1 + T2 - d21,
        "r3-": d21 - (T1 - T2),
        "r3+": d21 - (T2 - T1),
        "r20": T1 + T3 - d31,
        "r2-": d31 - (T1 - T3),
        "r2+": d31 - (T3 - T1),
        "r10": T2 + T3 - d32,
        "r1-": d32 - (T2 - T3),
        "r1+": d32 - (T3 - T2),
        "Gamma3": d32 * T1 + d31 * T2 - d21 * T3,
        "Gamma2": d32 * T1 - d31 * T2 + d21 * T3,
        "Gamma1": -d32 * T1 + d31 * T2 + d21 * T3,
    }


def q3_residuals_collinear(kind, Tc) -> dict:
    """The four facet slacks of a collinear triple at canonical triple(s) Tc, shape (..., 3).

    Kept verbatim from before the trope table.
    """
    T1, T2, T3 = Tc[..., 0], Tc[..., 1], Tc[..., 2]
    d21 = kind.d21
    d31 = kind.rho * d21          # endpoint-1 to middle
    d32 = (1.0 - kind.rho) * d21  # endpoint-2 to middle
    return {
        "r30": T1 + T2 - d21,
        "r2-": d31 - (T1 - T3),
        "r1-": d32 - (T2 - T3),
        "Gamma3": d32 * T1 + d31 * T2 - d21 * T3,
    }


_P2_NORMALS = np.array([[1.0, -1.0, 0.0, 0.0, -1.0, 1.0],
                        [0.0, 0.0, 1.0, -1.0, 1.0, -1.0]])


def p2_slacks(config, taus):
    """The (N, 6) hexagon slacks of an (N, 2) array of tau, before the trope table, verbatim.

    (The collinear drop of the longest pair is left to the caller.)
    """
    d21, d31, d32 = config.d21, config.d31, config.d32
    return taus @ _P2_NORMALS + np.array([d31, d31, d32, d32, d21, d21])


def gamma_quadratics(config, T1, T2) -> dict:
    """hull_boundary_classify's circumcircle-fill quadratics as written out before, verbatim."""
    a = rg.abc_from_config(config)[0]
    d21 = config.d21
    return {
        "Gamma3": T1 * T1 + T2 * T2 + 2 * a * T1 * T2 - d21 * d21,
        "Gamma2": T1 * T1 + T2 * T2 - 2 * a * T1 * T2 - d21 * d21,
        "Gamma1": T1 * T1 + T2 * T2 - 2 * a * T1 * T2 - d21 * d21,
    }


def remapping_by_distances(config, points, T, rtol: float) -> tuple:
    """The TOA inversions' remapping test as it was written on config.distances, kept verbatim.

    The reference that toa3._remapping, which works on Python floats, must
    match point for point.
    """
    miss = np.abs(config.distances(np.array(points)) - T).max(axis=-1).tolist()
    tol = rtol * config.d_max
    return tuple(x for x, m in zip(points, miss) if m <= tol)


def poly_eval_array_powers(terms, T):
    """kummer._poly_eval as it was before one triple took powers 0..2 on floats, kept verbatim.

    Every power is one array op on the whole of T: the reference that the
    float path must match bit for bit.
    """
    T = np.asarray(T, dtype=float)
    powers = {e: T ** e for e in {e for exps in terms for e in exps}}
    if T.ndim == 1:
        powers = {e: p.tolist() for e, p in powers.items()}
        out = 0.0
    else:
        powers = {e: (p[..., 0], p[..., 1], p[..., 2]) for e, p in powers.items()}
        out = np.zeros(T.shape[:-1])
    for (e1, e2, e3), coeff in terms.items():
        out = out + coeff * powers[e1][0] * powers[e2][1] * powers[e3][2]
    return out


def two_sphere_arrays(e1, e2, T1: float, T2: float, d21: float, rtol: float):
    """toa2._two_sphere as it was on arrays, kept verbatim: (base, axis, h) or None."""
    cls = rg.classify_pair(T1, T2, d21, rtol=rtol)
    if cls.verdict == "Outside":
        return None
    axis = (e2 - e1) / d21
    a = (d21 * d21 + T1 * T1 - T2 * T2) / (2.0 * d21)
    base = e1 + a * axis
    if cls.verdict == "Boundary":
        return base, axis, None
    return base, axis, math.sqrt(max(T1 * T1 - a * a, 0.0))


def mirror_pair_arrays(base, axis, h) -> tuple:
    """toa2._mirror_pair as it was on arrays, kept verbatim."""
    if h is None:
        return (base,)
    n = np.array([-axis[1], axis[0]])
    return (base + h * n, base - h * n)


def hull_fill(config, T, rtol: float):
    """hull_boundary_classify's step 3 as it was before it read the arc table's conics, verbatim.

    The fill name of a range triple on an active facet plane of Q3, or None
    where the point is not on a facet (Interior or Outside) or lies beyond
    every active facet's fill.  Steps 1 and 2 (ideal edges, the quartic) are
    left to the caller.
    """
    from rangegeom.kummer import _poly_eval
    from rangegeom.params import _abc
    from rangegeom.surface import _arc_table

    T = np.asarray(T, dtype=float)
    q3 = rg.q3_membership(config, T, rtol=rtol)
    if q3.verdict != "OnFacet":
        return None
    d_max = config.d_max
    tol_lin = rtol * d_max
    tol_quad = rtol * d_max ** 2
    a, b, c = config._memo(_abc)
    d21, d31, d32 = config.d21, config.d31, config.d32
    T1, T2, T3 = float(T[0]), float(T[1]), float(T[2])

    def inside_F(name):
        quad = _poly_eval(config._memo(_arc_table)[name]["quadratic"], T)
        if name == "Gamma3":
            chord = T1 + T2 - d21
            chord_tol = tol_lin
        elif name == "Gamma2":
            chord = (d21 - d32) * T1 + d31 * T2 - d21 * d31
            chord_tol = tol_quad
        else:  # Gamma1
            chord = d32 * T1 - (d31 - d21) * T2 - d21 * d32
            chord_tol = tol_quad
        return (
            T1 >= -tol_lin and T2 >= -tol_lin
            and quad <= tol_quad and chord >= -chord_tol
        )

    def inside_G(name):
        if name == "r30":
            s, off = T1, T3
            span, curve_c, curve_d = d21, c * d31, d31
            lo, hi = d31, d32
        elif name == "r20":
            s, off = T1, T2
            span, curve_c, curve_d = d31, c * d21, d21
            lo, hi = d21, d32
        else:  # r10
            s, off = T2, T1
            span, curve_c, curve_d = d32, -b * d21, d21
            lo, hi = d21, d31
        if not (-tol_lin <= s <= span + tol_lin):
            return False
        curve = math.sqrt(max(s * s - 2 * curve_c * s + curve_d * curve_d, 0.0))
        chord = lo + (hi - lo) * s / span
        return curve - tol_lin <= off <= chord + tol_lin

    def inside_L(name):
        table = {
            "r1+": (T2, T1, -b * d21, d21, d21),
            "r1-": (T3, T1, a * d31, d31, d31),
            "r2+": (T1, T2, c * d21, d21, d21),
            "r2-": (T3, T2, a * d32, d32, d32),
            "r3+": (T1, T3, c * d31, d31, d31),
            "r3-": (T2, T3, -b * d32, d32, d32),
        }
        s, off, curve_c, curve_d, edge_c = table[name]
        if s < -tol_lin:
            return False
        curve = math.sqrt(max(s * s + 2 * curve_c * s + curve_d * curve_d, 0.0))
        return curve - tol_lin <= off <= s + edge_c + tol_lin

    fill_name = {
        "Gamma1": "F_123", "Gamma2": "F_213", "Gamma3": "F_312",
        "r10": "G_123", "r20": "G_213", "r30": "G_312",
        "r1+": "L1+", "r1-": "L1-", "r2+": "L2+", "r2-": "L2-",
        "r3+": "L3+", "r3-": "L3-",
    }
    order = ["Gamma1", "Gamma2", "Gamma3", "r10", "r20", "r30",
             "r1+", "r1-", "r2+", "r2-", "r3+", "r3-"]
    for facet in order:
        if facet not in q3.active:
            continue
        if facet.startswith("Gamma"):
            ok = inside_F(facet)
        elif facet.endswith("0"):
            ok = inside_G(facet)
        else:
            ok = inside_L(facet)
        if ok:
            return fill_name[facet]
    return None


def homogeneous_evaluate(abc, t):
    """HomogeneousForm.evaluate as it was with the cross terms written out, verbatim."""
    t = np.asarray(t, dtype=float)
    a, b, c = abc
    sq = t * t
    quads = (
        sq[..., 1] * sq[..., 2] + sq[..., 0] * sq[..., 3],
        sq[..., 1] * sq[..., 3] + sq[..., 0] * sq[..., 2],
        sq[..., 2] * sq[..., 3] + sq[..., 0] * sq[..., 1],
    )
    val = np.sum(sq * sq, axis=-1) - 2 * a * quads[0] + 2 * b * quads[1] - 2 * c * quads[2]
    if val.ndim == 0:
        return float(val)
    return val


def homogeneous_gradient(abc, t):
    """HomogeneousForm.gradient as it was with the cross terms written out, verbatim."""
    t = np.asarray(t, dtype=float)
    a, b, c = abc
    t0, t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    g0 = 4 * t0 ** 3 - 4 * a * t0 * t3 ** 2 + 4 * b * t0 * t2 ** 2 - 4 * c * t0 * t1 ** 2
    g1 = 4 * t1 ** 3 - 4 * a * t1 * t2 ** 2 + 4 * b * t1 * t3 ** 2 - 4 * c * t0 ** 2 * t1
    g2 = 4 * t2 ** 3 - 4 * a * t1 ** 2 * t2 + 4 * b * t0 ** 2 * t2 - 4 * c * t2 * t3 ** 2
    g3 = 4 * t3 ** 3 - 4 * a * t0 ** 2 * t3 + 4 * b * t1 ** 2 * t3 - 4 * c * t2 ** 2 * t3
    return np.stack([g0, g1, g2, g3], axis=-1)


def homogeneous_hessian(abc, t):
    """HomogeneousForm.hessian as it was with the cross terms written out, verbatim."""
    t = np.asarray(t, dtype=float).reshape(4)
    a, b, c = abc
    t0, t1, t2, t3 = t
    H = np.zeros((4, 4))
    H[0, 0] = 12 * t0 ** 2 - 4 * a * t3 ** 2 + 4 * b * t2 ** 2 - 4 * c * t1 ** 2
    H[1, 1] = 12 * t1 ** 2 - 4 * a * t2 ** 2 + 4 * b * t3 ** 2 - 4 * c * t0 ** 2
    H[2, 2] = 12 * t2 ** 2 - 4 * a * t1 ** 2 + 4 * b * t0 ** 2 - 4 * c * t3 ** 2
    H[3, 3] = 12 * t3 ** 2 - 4 * a * t0 ** 2 + 4 * b * t1 ** 2 - 4 * c * t2 ** 2
    H[0, 1] = H[1, 0] = -8 * c * t0 * t1
    H[0, 2] = H[2, 0] = 8 * b * t0 * t2
    H[0, 3] = H[3, 0] = -8 * a * t0 * t3
    H[1, 2] = H[2, 1] = -8 * a * t1 * t2
    H[1, 3] = H[3, 1] = 8 * b * t1 * t3
    H[2, 3] = H[3, 2] = -8 * c * t2 * t3
    return H


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            key = (ep[0] + eq[0], ep[1] + eq[1], ep[2] + eq[2])
            out[key] = out.get(key, 0.0) + cp * cq
    return out


def degeneration_gap_by_squared_terms(config, n: int = 512, seed: int = 0, box: float = 3.0):
    """collinear_degeneration_check as it was, squaring the Stewart quadric's terms, verbatim.

    d21^2 * sigma^2 is multiplied out term by term and relabelled into the
    original receiver order before it is evaluated.  Returns the gap and the
    largest |d21^2 sigma^2| / d_max^6 over the samples, the scale of its rounding.
    """
    from rangegeom.kummer import _poly_eval

    order, rho, d21 = canonical_collinear_by_points(config.receivers)
    terms = {
        (2, 0, 0): 1.0 - rho,
        (0, 2, 0): rho,
        (0, 0, 2): -1.0,
        (0, 0, 0): -rho * (1.0 - rho) * d21 * d21,
    }
    sq = _poly_mul(terms, terms)
    sigma_sq = {}
    for exp, coeff in sq.items():
        orig = [0, 0, 0]
        for pos in range(3):
            orig[order[pos]] = exp[pos]
        sigma_sq[tuple(orig)] = coeff * d21 * d21
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.0, box * d21, size=(n, 3))
    square = _poly_eval(sigma_sq, T)
    gap = _poly_eval(quartic_terms_by_vectors(config), T) - square
    return (float(np.max(np.abs(gap)) / config.d_max ** 6),
            float(np.max(np.abs(square)) / config.d_max ** 6))


# ---------------------------------------------------------------------------
# configuration geometry as validate_config and the config-only builders had it,
# verbatim but for names: each builder reads the configuration through m, vec and
# dist, and the distances are recomputed from the receivers

def _norm(v) -> float:
    return math.sqrt(float(v @ v))


def canonical_collinear_by_points(points):
    """config._canonical_collinear as it was: dot test and norms on the points."""
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


def config_values_by_points(receivers) -> dict:
    """validate_config's values as it computed them: kind, receivers and distances.

    The distances are the old cached properties: dist(j, i) = |m_j - m_i| of
    the stored receivers, d_max their max.
    """
    from rangegeom.config import _COLLINEAR_RTOL, _DUPLICATE_RTOL

    pts = [np.asarray(p, dtype=float).reshape(-1) for p in receivers]
    dim = pts[0].shape[0]
    n = len(pts)
    dists = {}
    d_max = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dists[(i, j)] = _norm(pts[j] - pts[i])
            d_max = max(d_max, dists[(i, j)])
    for (i, j), d in dists.items():
        if d <= _DUPLICATE_RTOL * d_max:
            raise rg.DuplicateReceiver(f"receivers {i + 1} and {j + 1} coincide (d = {d:g})")

    if n == 2:
        kind = rg.TwoReceivers()
    else:
        v21 = pts[1] - pts[0]
        v31 = pts[2] - pts[0]
        if dim == 2:
            area2 = abs(float(v21[0] * v31[1] - v21[1] * v31[0]))
        else:
            area2 = _norm(np.cross(v21, v31))
        if area2 / (dists[(0, 1)] * dists[(0, 2)]) <= _COLLINEAR_RTOL:
            canonical = canonical_collinear_by_points(pts)
            assert canonical is not None  # exactly collinear points have a middle
            order, rho, d_end = canonical
            kind = rg.CollinearTriple(rho=rho, order=order, d21=d_end)
        else:
            kind = rg.GeneralTriangle()

    frozen = tuple(p.copy() for p in pts)
    d21 = _norm(frozen[1] - frozen[0])
    if n == 2:
        return dict(receivers=frozen, dimension=dim, kind=kind, d21=d21, d_max=d21)
    d31, d32 = _norm(frozen[2] - frozen[0]), _norm(frozen[2] - frozen[1])
    return dict(receivers=frozen, dimension=dim, kind=kind, d21=d21, d31=d31, d32=d32,
                d_max=max(d21, d31, d32))


def reference_system_by_cond(config) -> tuple:
    """toa3._reference_system as it was: the least np.linalg.cond of the three candidates."""
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


def quartic_terms_by_vectors(config) -> dict:
    """kummer._quartic_terms as it was: dot products of config.vec."""
    d21v, d31v, d32v = config.vec(2, 1), config.vec(3, 1), config.vec(3, 2)
    # squared lengths from dot products (not norm-then-square) keep the
    # coefficients exact on exactly-representable receiver coordinates
    g21, g31, g32 = float(d21v @ d21v), float(d31v @ d31v), float(d32v @ d32v)
    p12 = float(d21v @ d31v)   # d21 . d31
    p13 = float(d21v @ d32v)   # d21 . d32
    p23 = float(d31v @ d32v)   # d31 . d32
    return {
        (4, 0, 0): g32,
        (0, 4, 0): g31,
        (0, 0, 4): g21,
        (2, 2, 0): -2.0 * p23,
        (2, 0, 2): 2.0 * p13,
        (0, 2, 2): -2.0 * p12,
        (2, 0, 0): -2.0 * p12 * g32,
        (0, 2, 0): 2.0 * p13 * g31,
        (0, 0, 2): -2.0 * p23 * g21,
        (0, 0, 0): g21 * g31 * g32,
    }


def facet_table_by_distances(config) -> tuple:
    """kummer._facet_table as it is: _facet_rows at the three distances."""
    return rg.kummer._facet_rows(config.d21, config.d31, config.d32)


def node_images_by_distances(config) -> np.ndarray:
    """kummer._node_images as it is."""
    d21, d31, d32 = config.d21, config.d31, config.d32
    nodes = np.array([[0.0, d21, d31], [d21, 0.0, d32], [d31, d32, 0.0]])
    nodes.setflags(write=False)
    return nodes


def line_constants_by_receivers(config) -> tuple:
    """tdoa._line_constants as it was: M = m3 - (m1, m2) from the receivers."""
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


def tangency_table_by_vectors(config) -> np.ndarray:
    """tdoa._tangency_table as it was: one unit vector and two 1-D dots per pair."""
    d31v, d32v = line_constants_by_receivers(config)[:2]
    rows = []
    for vec, norm in ((d32v, config.d32), (d31v, config.d31), (config.vec(2, 1), config.d21)):
        u = vec / norm
        pt = np.array([float(d31v @ u), float(d32v @ u)])
        rows += [pt, -pt]
    table = np.array(rows)
    table.setflags(write=False)
    return table


def lens_table_by_arrays(config) -> tuple:
    """tdoa._lens_table as it was: fancy rows of the tangency table and cross2."""
    from rangegeom.spacetime import _cross2

    lens_rows = np.array([[rg.TANGENCY_IDS.index(p), rg.TANGENCY_IDS.index(q)]
                          for p, q in rg.tdoa._LENS_CONES.values()])
    tangency = tangency_table_by_vectors(config)
    p, q = tangency[lens_rows[:, 0]], tangency[lens_rows[:, 1]]
    w = _cross2(p, q)
    for arr in (p, q, w):
        arr.setflags(write=False)
    return p[:, 0], p[:, 1], q[:, 0], q[:, 1], w


def p2_table_by_facet_rows(config) -> tuple:
    """tdoa._p2_table as it was: the ray rows of the facet table, picked by name."""
    table = dict(zip(rg.Q3_FACETS, facet_table_by_distances(config)))
    names = rg.P2_FACETS
    if config.is_collinear:
        longest = max([("tau2-tau1", config.d21), ("tau1", config.d31), ("tau2", config.d32)],
                      key=lambda p: p[1])[0]
        names = tuple(name for name in rg.P2_FACETS if not name.startswith(longest + "="))
    rays = dict(zip(rg.P2_FACETS, ("r2+", "r2-", "r1+", "r1-", "r3-", "r3+")))
    rows = np.array([table[rays[name]] for name in names])
    normals, offsets = rows[:, 1:3].T.copy(), rows[:, 0].copy()
    normals.setflags(write=False)
    offsets.setflags(write=False)
    return names, normals, offsets


def plane_frame_by_vectors(config) -> tuple:
    """invert3d_r3's frame as it was built per call: QR of (d21v, d31v) and the unit normal."""
    d21v, d31v = config.vec(2, 1), config.vec(3, 1)
    Q, R = np.linalg.qr(np.stack([d21v, d31v], axis=1))
    n = np.cross(d21v, d31v)
    n = n / np.linalg.norm(n)
    return config.m(1), Q, R.T, n, float(d21v @ d21v), float(d31v @ d31v)


def circle_frame_by_arrays(axis: np.ndarray) -> tuple:
    """toa3d._circle_frame as it was, with np.cross."""
    k = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[k] = 1.0
    u = e - float(e @ axis) * axis
    u = u / np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


# ---------------------------------------------------------------------------
# the squared-range-difference solves that toa3._foot replaced, verbatim but for
# names and the argument checks

def exterior_point_by_hodge(config, T, i: int = 1):
    """toa3.exterior_point as it was: the Lorentzian cross product of the lifted
    constraint normals, with time component -T_i."""
    from rangegeom.config import _measurement
    from rangegeom.spacetime import SpacetimeVec3, hodge_cross, lift, triple_form

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


def circumcircle_by_receivers(config) -> tuple:
    """surface._circumcircle as it was: a 2x2 solve from the differences of |m|^2."""
    m1, m2, m3 = config.receivers
    A = 2.0 * np.stack([m2 - m1, m3 - m1])
    rhs = np.array([float(m2 @ m2 - m1 @ m1), float(m3 @ m3 - m1 @ m1)])
    o = np.linalg.solve(A, rhs)
    o.setflags(write=False)
    return o, float(np.linalg.norm(m1 - o))


def reference_system_3d_by_cond(config) -> tuple:
    """toa3._reference_system of a spatial triangle, from the old builders: the reference of
    least np.linalg.cond, np.linalg.qr of its two sides, and the normal of the old frame."""
    i, j, k, M, gj, gk = reference_system_by_cond(config)
    Q, R = np.linalg.qr(np.stack([config.vec(j, i), config.vec(k, i)], axis=1))
    return i, j, k, R.T, gj, gk, Q, plane_frame_by_vectors(config)[3]


def t_quadratic_exact(config, tau) -> tuple:
    """(A, B, C) of the defining quartic along the lift T = (tau1 + t, tau2 + t, t), exactly.

    The quartic's coefficients are the dot products of the receiver sides in
    Fractions of the float coordinates, and the substitution is expanded in t
    term by term; the t^4 and t^3 coefficients come out exactly zero.
    """
    from fractions import Fraction  # here: the benchmark's census loads this module

    m1, m2, m3 = ([Fraction(float(v)) for v in config.m(i)] for i in (1, 2, 3))

    def side(p, q):
        return [b - a for a, b in zip(p, q)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    d21v, d31v, d32v = side(m1, m2), side(m1, m3), side(m2, m3)
    g21, g31, g32 = dot(d21v, d21v), dot(d31v, d31v), dot(d32v, d32v)
    p12, p13, p23 = dot(d21v, d31v), dot(d21v, d32v), dot(d31v, d32v)
    terms = {
        (4, 0, 0): g32, (0, 4, 0): g31, (0, 0, 4): g21,
        (2, 2, 0): -2 * p23, (2, 0, 2): 2 * p13, (0, 2, 2): -2 * p12,
        (2, 0, 0): -2 * p12 * g32, (0, 2, 0): 2 * p13 * g31, (0, 0, 2): -2 * p23 * g21,
        (0, 0, 0): g21 * g31 * g32,
    }
    lines = ((Fraction(float(tau[0])), 1), (Fraction(float(tau[1])), 1), (0, 1))  # c0 + c1 t
    total = [Fraction(0)] * 5
    for exponents, coeff in terms.items():
        poly = [coeff]
        for (c0, c1), e in zip(lines, exponents):
            for _ in range(e):
                poly = [c0 * a + c1 * b for a, b in zip(poly + [0], [0] + poly)]
        total = [a + b for a, b in zip(total, poly + [0] * (5 - len(poly)))]
    assert total[3] == total[4] == 0
    return total[2], total[1], total[0]

