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
    from rangegeom.kummer import _abc, _arc_table, _poly_eval

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
    from rangegeom.config import _canonical_collinear
    from rangegeom.kummer import _poly_eval, _quartic_terms

    order, rho, d21 = _canonical_collinear(config.receivers)
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
    gap = _poly_eval(config._memo(_quartic_terms), T) - square
    return (float(np.max(np.abs(gap)) / config.d_max ** 6),
            float(np.max(np.abs(square)) / config.d_max ** 6))
