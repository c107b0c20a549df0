"""One power-of-two scale: every answer is equivariant under receivers and measurements times 2^k.

validate_config picks one exponent k per configuration, and the kernels work
on the unit geometry (lengths times 2^-k).  Multiplying by a power of two is
exact away from the ends of the float range, so a wide triangle, a collinear
triple and a spatial triangle scaled by 2^k, with their measurements scaled
alike, give the k = 0 verdicts, labels, fibers and hull names, the k = 0
points times 2^k bit for bit, and the k = 0 scale-free residuals, at every k
validate_config accepts (about -510 to 511).  Raw values of length degree
above two are the unit values times 2^(degree k), correctly rounded, +-inf or
0.0 outside the float range.  The suite makes RuntimeWarnings errors, and
these tests hold every warning to that.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import rangegeom as rg

WIDE = np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)])
COLLINEAR = np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)])
SPATIAL = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.8, 0.2)])
LISTED = (-500, -300, -200, -100, -30, -1, 0, 1, 30, 100, 200, 300, 500)
SOURCES = ((0.25, 0.3), (1.4, 0.9), (-0.6, 0.2), (0.5, -0.7), (0.31, 0.77), (0.45, 0.0))


def _accepted(base) -> list:
    """Every k in -600..600 at which validate_config accepts base * 2^k."""
    ks = []
    for k in range(-600, 601):
        try:
            rg.validate_config(np.ldexp(base, k))
        except rg.InvalidParam:
            continue
        ks.append(k)
    return ks


def _bits(value):
    """A value's exact bits: floats by repr of their hex, arrays by their bytes, recursively."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.tobytes())
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    return value


def _up(value, k: int):
    """value * 2^k of a float, an array or a tuple of them (exact where it matters here)."""
    if isinstance(value, (tuple, list)):
        return tuple(_up(v, k) for v in value)
    if value is None:
        return None
    return math.ldexp(value, k) if isinstance(value, float) else np.ldexp(value, k)


def _outcome(call):
    """call() or the type of the exception it raised."""
    try:
        return call()
    except rg.RangeGeomError as exc:
        return type(exc)


def _planar_answers(cfg, Ts, taus, hull_Ts, k: int = 0) -> list:
    """Every planar entry's answers at the measurements times 2^k, the points scaled back by
    2^-k, as comparable bits."""
    out = []
    for T in Ts:
        T = np.ldexp(T, k)
        rep = rg.classify3(cfg, T)
        q3 = rg.q3_membership(cfg, T)
        out.append(("classify3", rep.verdict, rep.fiber, rep.reason, rep.in_octant,
                    _bits(rep.quartic_or_quadric_residual), rep.q3.verdict, rep.q3.active,
                    q3.verdict, q3.active))
        if cfg.is_collinear:
            sol = rg.invert3_collinear(cfg, T)
        else:
            sol = rg.invert3(cfg, T)
            out.append(("quartic", _bits(rg.quartic_residual(cfg, T, normalized=True))))
        out.append(("invert", _bits(_up(sol.points, -k))))
    taus = np.ldexp(np.array(taus), k)
    for tau in taus:
        region = rg.classify_tau(cfg, tau)
        out.append(("classify_tau", region.label, region.ids, region.fiber,
                    _bits(_up(None if region.lift is None else region.lift, -k)),
                    _bits({name: _up(v, -k) for name, v in region.residuals.items()})))
        if not cfg.is_collinear:
            out.append(("invert_tdoa", _bits(_up(rg.invert_tdoa(cfg, tau).points, -k))))
    labels, fibers, points = rg.tau_fibers(cfg, taus)
    out.append(("tau_fibers", labels, fibers, None if points is None else _bits(_up(points, -k))))
    regions, solutions = rg.classify_invert_tau(cfg, taus)
    out.append(("classify_invert_tau", [(r.label, r.ids, r.fiber) for r in regions],
                None if solutions is None else _bits([_up(s.points, -k) for s in solutions])))
    for T in hull_Ts:
        comp = _outcome(lambda: rg.hull_boundary_classify(cfg, np.ldexp(T, k)))
        out.append(("hull", comp if isinstance(comp, type) else comp.name))
    return out


def _spatial_answers(cfg, Ts, k: int = 0) -> list:
    out = []
    for T in Ts:
        T = np.ldexp(T, k)
        rep = rg.classify3d_r3(cfg, T)
        out.append(("classify3d_r3", rep.verdict, rep.fiber, _bits(rep.normalized)))
        sol = _outcome(lambda: rg.invert3d_r3(cfg, T))
        out.append(("invert3d_r3", sol if isinstance(sol, type) else _bits(_up(sol.points, -k))))
    return out


def _planar_inputs(base) -> tuple:
    """Range triples, range-difference pairs and hull test triples of the k = 0 configuration."""
    cfg = rg.validate_config(base)
    Ts = [cfg.distances(np.array(x)) for x in SOURCES]
    Ts.append(Ts[0] + np.array([0.0, 0.0, 0.3]))  # off the surface
    taus = [T[:2] - T[2] for T in Ts[:-1]] + [np.array([2.0, -1.5]), np.array([0.05, -0.6])]
    if cfg.is_collinear:
        return cfg, Ts, taus, []
    m1, m2 = cfg.receivers[:2]
    hull = [Ts[0], Ts[1], Ts[2], Ts[3],
            0.5 * (cfg.distances(m1 + 0.3 * (m2 - m1)) + cfg.distances(m1 + 0.7 * (m2 - m1))),
            cfg.distances(m1 + 1.2 * (m2 - m1)) + 0.05]
    xs = rg.conic_arc(cfg, "Gamma3").sample_sources(n=7, extent=1.0)
    hull.append(0.5 * (cfg.distances(xs[2]) + cfg.distances(xs[4])))
    return cfg, Ts, taus, hull


@pytest.mark.parametrize("base", [WIDE, COLLINEAR], ids=["wide", "collinear"])
def test_planar_answers_are_equivariant_at_every_accepted_scale(base):
    ks = _accepted(base)
    assert ks == list(range(ks[0], ks[-1] + 1)) and set(LISTED) <= set(ks)
    assert ks[0] <= -509 and ks[-1] >= 511
    cfg, Ts, taus, hull = _planar_inputs(base)
    assert cfg._k == 0
    want = _planar_answers(cfg, Ts, taus, hull)
    if not cfg.is_collinear:  # the inputs reach every branch worth scaling
        names = {a[1] for a in want if a[0] == "hull"}
        assert {"V0", "G_312", "F_312"} <= names
        assert {a[1] for a in want if a[0] == "classify_tau"} >= {"EMinus", "OutsideIm"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ks:
            scaled = rg.validate_config(np.ldexp(base, k))
            assert scaled._k == k
            assert _planar_answers(scaled, Ts, taus, hull, k) == want, k


def test_spatial_answers_are_equivariant_at_every_accepted_scale():
    ks = _accepted(SPATIAL)
    assert ks == list(range(ks[0], ks[-1] + 1)) and set(LISTED) <= set(ks)
    cfg = rg.validate_config(SPATIAL)
    Ts = [cfg.distances(np.array(x)) for x in
          ((0.25, 0.3, 0.4), (1.4, 0.9, -0.2), (0.3, 0.3, 0.1), (0.31, 0.77, 0.19))]
    Ts += [Ts[0] + np.array([0.0, 0.0, 2.0]), cfg.distances(np.array([0.4, 0.2, 0.06]))]
    want = _spatial_answers(cfg, Ts)
    assert {a[1] for a in want if a[0] == "classify3d_r3"} >= {"InteriorSolid", "Outside"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ks:
            assert _spatial_answers(rg.validate_config(np.ldexp(SPATIAL, k)), Ts, k) == want, k


# ---------------------------------------------------------------------------
# raw values of length degree above two

def _scaled(value: float, e: int) -> float:
    """value * 2^e correctly rounded (float of an exact Fraction), +-inf beyond the float range."""
    try:
        return float(Fraction(value) * Fraction(2) ** e)
    except OverflowError:
        return math.copysign(math.inf, value)


@pytest.mark.parametrize("k", [-400, -300, -171, -30, 0, 30, 171, 300, 400])
def test_raw_values_are_the_unit_values_correctly_rounded(k):
    """FeasibilityReport.quartic, quartic_residual(normalized=False), classify3d_r3's quartic,
    TdoaCoeffs a, b and c, and t_quadratic are the k = 0 values times 2^(degree k): correctly
    rounded to +-inf, 0.0 or a subnormal beyond the float range, with no RuntimeWarning and
    no OverflowError.  The CLI prints an infinite value as "inf"."""
    cfg0, cfg3d0 = rg.validate_config(WIDE), rg.validate_config(SPATIAL)
    T0 = cfg0.distances(np.array([0.25, 0.3])) + np.array([0.0, 0.0, 0.01])
    tau0 = T0[:2] - T0[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, cfg3d = rg.validate_config(np.ldexp(WIDE, k)), rg.validate_config(np.ldexp(SPATIAL, k))
        T, tau = np.ldexp(T0, k), np.ldexp(tau0, k)
        pairs = [(rg.classify3(cfg, T).quartic, rg.classify3(cfg0, T0).quartic, 6),
                 (rg.quartic_residual(cfg, T), rg.quartic_residual(cfg0, T0), 6),
                 (rg.classify3d_r3(cfg3d, T).quartic, rg.classify3d_r3(cfg3d0, T0).quartic, 6)]
        batch, batch0 = (rg.quartic_residual(c, np.stack([t, 2.0 * t])) for c, t in
                         ((cfg, T), (cfg0, T0)))
        pairs += [(float(v), float(v0), 6) for v, v0 in zip(batch, batch0)]
        co, co0 = rg.tdoa_coeffs(cfg, tau), rg.tdoa_coeffs(cfg0, tau0)
        pairs += [(co.a, co0.a, 4), (co.b, co0.b, 3), (co.c, co0.c, 2),
                  (co.v_time, co0.v_time, 2)]
        pairs += list(zip(rg.t_quadratic(cfg, tau), rg.t_quadratic(cfg0, tau0), (4, 5, 6)))
        region = rg.classify_tau(cfg, tau)
        pairs.append((region.coeffs.a, co0.a, 4))
    for got, unit, degree in pairs:
        assert type(got) is float
        assert float.hex(got) == float.hex(_scaled(unit, degree * k)), (degree, got, unit)
    if k >= 300:  # past the float range: the quartic reads inf, the scale-free residual is kept
        assert math.isinf(pairs[0][0])
        assert rg.classify3(cfg, T).quartic_or_quadric_residual == \
            rg.classify3(cfg0, T0).quartic_or_quadric_residual
