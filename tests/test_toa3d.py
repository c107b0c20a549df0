"""Three-dimensional range models: circles of solutions and mirrored pairs."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import rangegeom as rg

from conftest import band_edge, sources3d

_ANGLES = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)


def test_forward3d(right3d):
    T = rg.forward3d(right3d, (0.3, 0.4, 0.5))
    assert np.allclose(T, [math.sqrt(0.5), math.sqrt(0.9), math.sqrt(0.7)], atol=1e-12)


def test_two_receiver_circle(pair3d):
    sol = rg.invert3d_r2(pair3d, (1.0, 1.0))
    assert sol.kind == "Circle"
    c = sol.circle
    assert np.allclose(c.center, [0.5, 0.0, 0.0], atol=1e-12)
    assert abs(c.radius - math.sqrt(0.75)) <= 1e-12
    for th in _ANGLES:
        p = c.point(th)
        assert np.max(np.abs(rg.forward3d(pair3d, p) - [1.0, 1.0])) <= 1e-9


def test_two_receiver_axis_point(pair3d):
    sol = rg.invert3d_r2(pair3d, (0.6, 0.4))
    assert sol.kind == "One"
    assert np.allclose(sol.points[0], [0.6, 0.0, 0.0], atol=1e-12)


def test_two_receiver_empty(pair3d):
    assert rg.invert3d_r2(pair3d, (0.3, 0.2)).kind == "Empty"


def test_three_receiver_pair(right3d):
    T = rg.forward3d(right3d, (0.3, 0.4, 0.5))
    sol = rg.invert3d_r3(right3d, T)
    assert sol.kind == "Pair"
    pts = sorted((tuple(np.round(p, 9)) for p in sol.points))
    assert np.allclose(pts, [(0.3, 0.4, -0.5), (0.3, 0.4, 0.5)])


def test_three_receiver_in_plane_single(right3d):
    sol = rg.invert3d_r3(right3d, rg.forward3d(right3d, (0.3, 0.4, 0.0)))
    assert sol.kind == "One"
    assert np.allclose(sol.points[0], [0.3, 0.4, 0.0], atol=1e-9)


def test_three_receiver_at_receiver(right3d):
    sol = rg.invert3d_r3(right3d, (0.0, 1.0, 1.0))
    assert sol.kind == "One"
    assert np.allclose(sol.points[0], [0.0, 0.0, 0.0], atol=1e-9)


def test_classify3d(right3d):
    T = rg.forward3d(right3d, (0.3, 0.4, 0.5))
    rep = rg.classify3d_r3(right3d, T)
    assert rep.verdict == "InteriorSolid" and rep.fiber == 2
    assert rep.quartic < 0
    rep0 = rg.classify3d_r3(right3d, rg.forward3d(right3d, (0.3, 0.4, 0.0)))
    assert rep0.verdict == "OnSurface" and rep0.fiber == 1
    out = rg.classify3d_r3(right3d, (5.0, 1.0, 1.0))
    assert out.verdict == "Outside" and out.fiber == 0


def test_collinear3d_circle(collinear3d):
    T = rg.forward3d(collinear3d, (0.3, 0.4, 0.0))
    sol = rg.invert3d_r3_collinear(collinear3d, T)
    assert sol.kind == "Circle"
    for th in _ANGLES:
        p = sol.circle.point(th)
        assert np.max(np.abs(rg.forward3d(collinear3d, p) - T)) <= 1e-9


def test_collinear3d_incompatible_empty(collinear3d):
    assert rg.invert3d_r3_collinear(collinear3d, (1.0, 1.0, 5.0)).kind == "Empty"


def test_circle3d_api():
    circ = rg.make_circle((1.0, 2.0, 3.0), 2.0, (0.0, 0.0, 1.0))
    pts = circ.points(16)
    assert pts.shape == (16, 3)
    assert np.allclose(np.linalg.norm(pts - circ.center, axis=1), 2.0, atol=1e-12)
    assert np.allclose((pts - circ.center) @ circ.axis, 0.0, atol=1e-12)
    single = circ.point(0.3)
    assert abs(np.linalg.norm(single - circ.center) - 2.0) <= 1e-12


def test_dimension_guards(right3d, right):
    with pytest.raises(rg.DimensionMismatch):
        rg.forward3d(right, (0.3, 0.4, 0.5))
    with pytest.raises(rg.DimensionMismatch):
        rg.forward3(right3d, (0.3, 0.4))


@given(sources3d())
def test_mirror_pair_property(x):
    cfg = rg.validate_config([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    assume(min(np.linalg.norm(np.asarray(x) - np.asarray(m)) for m in cfg.receivers) > 1e-2)
    T = rg.forward3d(cfg, x)
    sol = rg.invert3d_r3(cfg, T)
    if abs(x[2]) >= 1e-3 * cfg.d_max:
        assert sol.kind == "Pair"
        p, q = sol.points
        mid = 0.5 * (p + q)
        assert abs(mid[2]) <= 1e-9 * cfg.d_max          # midpoint in the plane
        assert np.max(np.abs((p - q)[:2])) <= 1e-9 * cfg.d_max  # difference normal
    for p in sol.points:
        assert np.max(np.abs(rg.forward3d(cfg, p) - T)) <= 1e-8 * cfg.d_max


@given(sources3d())
def test_solid_inequality(x):
    cfg = rg.validate_config([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    assume(min(np.linalg.norm(np.asarray(x) - np.asarray(m)) for m in cfg.receivers) > 1e-2)
    rep = rg.classify3d_r3(cfg, rg.forward3d(cfg, x))
    assert rep.normalized <= 1e-9
    if abs(x[2]) >= 0.05 * cfg.d_max:
        assert rep.normalized < -1e-9
    elif abs(x[2]) == 0.0:
        assert abs(rep.normalized) <= 1e-9


def _circle_at_z0(circle):
    """The two points where a circle centred on z = 0, with a horizontal axis, meets z = 0."""
    assert circle.center[2] == 0.0 and circle.axis[2] == 0.0
    n = np.array([-circle.axis[1], circle.axis[0], 0.0])
    return [circle.center + circle.radius * n, circle.center - circle.radius * n]


@pytest.mark.parametrize("planar_pts, invert_planar, invert_spatial", [
    ([(0.2, -0.1), (1.3, 0.4)], rg.invert2, rg.invert3d_r2),
    ([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)], rg.invert3_collinear, rg.invert3d_r3_collinear),
    ([(1.0, 2.0), (-0.5, -1.0), (0.1, 0.2)], rg.invert3_collinear, rg.invert3d_r3_collinear),
])
def test_spatial_fibers_meet_the_plane_at_planar_fibers(planar_pts, invert_planar, invert_spatial):
    """Embedded at z = 0, a 3-D circle cuts the plane in the planar mirror pair,
    and a boundary triple gives the same single point in both dimensions."""
    planar = rg.validate_config(planar_pts)
    spatial = rg.validate_config([p + (0.0,) for p in planar_pts])
    rng = np.random.default_rng(len(planar_pts))
    e1, e2 = (np.asarray(planar.receivers[i]) for i in (0, 1))  # endpoints in both lists
    for s in rng.uniform(-1.0, 2.0, size=8):
        on_line = e1 + s * (e2 - e1)
        for x in (on_line + rng.normal(size=2), on_line):
            T = planar.distances(x)
            flat = invert_planar(planar, T)
            flat = getattr(flat, "points", flat)
            sol = invert_spatial(spatial, T)
            if x is on_line:
                assert sol.kind == "One"
                lifted = sol.points
            else:
                assert sol.kind == "Circle"
                lifted = _circle_at_z0(sol.circle)
            flat = [np.append(p, 0.0) for p in flat]
            assert len(flat) == len(lifted)
            for ours, theirs in ((flat, lifted), (lifted, flat)):
                for p in ours:
                    assert min(np.abs(p - q).max() for q in theirs) <= 1e-12 * planar.d_max


@pytest.mark.parametrize("side", [1e-60, 1e-82, 1e-150])
@pytest.mark.parametrize("z", [0.1, 0.0])
def test_tiny_spatial_triangle_is_a_triangle_and_answers(side, z):
    """The 3-D area test is taken on the unit geometry, so a triangle of sides ~1e-150 stays a
    GeneralTriangle; its scale-free quartic, where d_max^6 underflowed, and the normal of its
    plane, whose squared length underflowed, are those of the unit geometry, so both entries
    answer as at side 1, with RuntimeWarnings as errors."""
    base = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.6, 0.7, z)])
    cfg, cfg1 = rg.validate_config(base * side), rg.validate_config(base)
    assert isinstance(cfg.kind, rg.GeneralTriangle)
    x = np.array([0.3, 0.4, 0.2])
    T, T1 = cfg.distances(x * side), cfg1.distances(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep, rep1 = rg.classify3d_r3(cfg, T), rg.classify3d_r3(cfg1, T1)
        points, points1 = rg.invert3d_r3(cfg, T).points, rg.invert3d_r3(cfg1, T1).points
    assert (rep.verdict, rep.fiber) == (rep1.verdict, rep1.fiber) == ("InteriorSolid", 2)
    assert abs(rep.normalized - rep1.normalized) <= 1e-12
    assert len(points) == len(points1) == 2
    for p, p1 in zip(points, points1):
        assert np.max(np.abs(p / side - p1)) <= 1e-9


def test_quartic_gate_band_edges_agree_with_classify3():
    """One ulp either side of each edge of the band |quartic| / d_max^6 <= rtol, bisected
    along T3 on receivers in the plane z = 0: classify3d_r3 says OnSurface exactly where
    classify3 finds the triple on the range surface of the same receivers."""
    planar = [(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)]
    cfg = rg.validate_config(planar)
    cfg3 = rg.validate_config([(x, y, 0.0) for x, y in planar])
    assert cfg3._gram == cfg._gram
    rtol = 1e-9
    T1, T2, T3 = rg.forward3(cfg, (0.6, 0.35)).tolist()

    def on_surface(t):
        return rg.classify3d_r3(cfg3, (T1, T2, t), rtol).verdict == "OnSurface"

    for far in (1.0 - 1e-6, 1.0 + 1e-6):
        for t in band_edge(on_surface, T3, far * T3):
            report = rg.classify3(cfg, (T1, T2, t), rtol)
            assert on_surface(t) == (report.reason != "not on range surface")


@pytest.mark.parametrize("rtol", [1e-9, 1e-3])
def test_classify3d_r3_octant_band_edge(rtol):
    """One ulp either side of T1 = -rtol * d_max near the receiver-1 node (0, d21, d31), which
    lies on the surface: classify3d_r3 says OnSurface on the near side and Outside beyond."""
    cfg = rg.validate_config([(0.2, -0.1, 0.0), (1.3, 0.4, 0.0), (0.5, 1.1, 0.0)])
    tol = rtol * cfg.d_max

    def verdict(t):
        return rg.classify3d_r3(cfg, (t, cfg.d21, cfg.d31), rtol).verdict

    near, far = band_edge(lambda t: verdict(t) != "Outside", 0.0, -4.0 * tol)
    assert near >= -tol > far
    assert verdict(near) == "OnSurface"
    assert rg.classify3d_r3(cfg, (far, cfg.d21, cfg.d31), rtol).fiber == 0
