"""Two-receiver range model: forward map, feasible set, inversion."""
import math

import numpy as np
import pytest
from hypothesis import assume, given

import rangegeom as rg

from conftest import away_from_receivers, band_edge, receiver_pairs, sources

_RT = 1e-9


def test_forward_pinned(pair):
    T = rg.forward2(pair, (0.5, 2.0))
    assert np.allclose(T, [np.hypot(0.5, 2.0), np.hypot(0.5, 2.0)], atol=1e-15)
    T = rg.forward2(pair, (0.25, 0.0))
    assert np.allclose(T, [0.25, 0.75], atol=1e-15)


def test_classify_interior_boundary_outside(pair):
    assert rg.classify2(pair, (1.0, 1.0)).verdict == "Interior"
    assert rg.classify2(pair, (1.0, 1.0)).fiber == 2
    on = rg.classify2(pair, (0.25, 0.75))
    assert on.verdict == "Boundary" and on.fiber == 1 and on.active == ("T1+T2=d21",)
    out = rg.classify2(pair, (5.0, 1.0))
    assert out.verdict == "Outside" and out.fiber == 0
    assert rg.classify2(pair, (-0.1, 1.0)).verdict == "Outside"


def test_q2_residuals_names():
    res = rg.q2_residuals(1.0, 1.0, 1.0)
    assert set(res) == set(rg.Q2_FACETS)
    assert res["T1+T2=d21"] == 1.0


def test_classify_pair_scalar_api():
    cls = rg.classify_pair(1.0, 1.0, 1.0)
    assert cls.verdict == "Interior"
    assert rg.classify_pair(0.2, 0.5, 1.0).verdict == "Outside"


def _q2_ladder(T1, T2, d21, rtol):
    """(verdict, active, fiber) of classify_pair, written out: the octant first, then each Q2
    slack against rtol * d21."""
    tol = rtol * d21
    res = rg.q2_residuals(T1, T2, d21)
    if min(T1, T2) < -tol:
        return "Outside", (), 0
    active = tuple(k for k in rg.Q2_FACETS if -tol <= res[k] <= tol)
    if min(res.values()) < -tol:
        return "Outside", active, 0
    return ("Boundary", active, 1) if active else ("Interior", active, 2)


# per Q2 facet: a point on it, as fractions of d21, and the direction (dT1, dT2) along which
# its slack grows by the step
_Q2_EDGES = {
    "T1+T2=d21": ((0.3, 0.7), (0.5, 0.5)),
    "T1-T2=d21": ((1.3, 0.3), (-0.5, 0.5)),
    "T2-T1=d21": ((0.3, 1.3), (0.5, -0.5)),
}


@pytest.mark.parametrize("d21", [1.0, 2.9e3])
@pytest.mark.parametrize("rtol", [1e-9, 1e-3])
def test_classify_pair_band_edges(d21, rtol):
    """One ulp either side of slack = -rtol * d21 and slack = +rtol * d21 on each Q2 facet, and
    of the octant edge T1 = -rtol * d21 (at the corner (0, d21), where two facets meet it):
    the verdict, active facets and fiber are the written-out ladder's on both sides."""
    tol = rtol * d21

    def cls(T1, T2):
        got = rg.classify_pair(T1, T2, d21, rtol)
        assert (got.verdict, got.active, got.fiber) == _q2_ladder(T1, T2, d21, rtol)
        return got

    for facet, ((p1, p2), (u1, u2)) in _Q2_EDGES.items():
        def point(t):
            return p1 * d21 + t * u1, p2 * d21 + t * u2

        for far, beyond in ((-4.0 * tol, ("Outside", (), 0)), (4.0 * tol, ("Interior", (), 2))):
            t_in, t_out = band_edge(lambda t: facet in cls(*point(t)).active, 0.0, far)
            inner, outer = cls(*point(t_in)), cls(*point(t_out))
            assert (inner.verdict, inner.active, inner.fiber) == ("Boundary", (facet,), 1)
            assert (outer.verdict, outer.active, outer.fiber) == beyond

    # the octant: T1 one ulp below -tol is Outside with no active facet, whatever its slacks
    cls(-tol, d21)
    outer = cls(math.nextafter(-tol, -math.inf), d21)
    assert (outer.verdict, outer.active, outer.fiber) == ("Outside", (), 0)


def test_invert_mirror_pair(pair):
    pts = rg.invert2(pair, (1.0, 1.0))
    assert len(pts) == 2
    got = sorted(tuple(np.round(p, 12)) for p in pts)
    root = np.sqrt(0.75)
    assert np.allclose(got, [(0.5, -root), (0.5, root)])


def test_invert_boundary_single(pair):
    pts = rg.invert2(pair, (0.25, 0.75))
    assert len(pts) == 1
    assert np.allclose(pts[0], [0.25, 0.0], atol=1e-12)


def test_invert_outside_raises(pair):
    with pytest.raises(rg.Infeasible):
        rg.invert2(pair, (5.0, 1.0))
    with pytest.raises(rg.Infeasible):
        rg.invert2(pair, (0.2, 0.5))


def test_errors(pair, right):
    with pytest.raises(rg.DimensionMismatch):
        rg.forward2(right, (0.0, 0.0))  # three receivers
    with pytest.raises(rg.DimensionMismatch):
        rg.invert2(pair, (1.0, 1.0, 1.0))


@given(receiver_pairs(), sources())
def test_round_trip(cfg, x):
    assume(away_from_receivers(cfg, x))
    T = rg.forward2(cfg, x)
    pts = rg.invert2(cfg, T)
    err = min(float(np.max(np.abs(p - x))) for p in pts)
    assert err <= _RT * cfg.d21 * 10


@given(receiver_pairs(), sources())
def test_fiber_counts(cfg, x):
    assume(away_from_receivers(cfg, x))
    T = rg.forward2(cfg, x)
    cls = rg.classify2(cfg, T)
    pts = rg.invert2(cfg, T)
    # signed distance of x from the receiver line decides the fiber
    u = (cfg.m(2) - cfg.m(1)) / cfg.d21
    offset = abs(rg.cross2(u, x - cfg.m(1)))
    if offset >= 1e-3 * cfg.d21:
        assert cls.verdict == "Interior" and cls.fiber == 2 and len(pts) == 2
    else:
        assert cls.fiber >= 1
    assert all(np.max(np.abs(rg.forward2(cfg, p) - T)) <= 1e-8 * cfg.d21 for p in pts)


@given(receiver_pairs(), sources())
def test_boundary_sources_on_line(cfg, x):
    # project the source onto the receiver line: its image is a boundary point
    u = (cfg.m(2) - cfg.m(1)) / cfg.d21
    s = float(u @ (x - cfg.m(1)))
    x_on = cfg.m(1) + s * u
    assume(away_from_receivers(cfg, x_on))
    cls = rg.classify2(cfg, rg.forward2(cfg, x_on))
    assert cls.verdict == "Boundary"
    assert cls.fiber == 1
