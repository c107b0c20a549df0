"""Receiver configuration validation and derived geometry."""
import math
import re
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import rangegeom as rg

from conftest import band_edge, collinear_triples, triangles


def test_validate_right(right):
    assert right.dimension == 2
    assert len(right.receivers) == 3
    assert right.d21 == 1.0
    assert right.d31 == 1.0
    assert abs(right.d32 - np.sqrt(2.0)) <= 1e-15
    assert right.d_max == right.d32
    assert not right.is_collinear
    assert isinstance(right.kind, rg.GeneralTriangle)


def test_validate_pair(pair):
    assert pair.dimension == 2
    assert isinstance(pair.kind, rg.TwoReceivers)
    assert pair.d21 == 1.0


def test_validate_collinear(collinear_mid):
    assert collinear_mid.is_collinear
    kind = collinear_mid.kind
    assert isinstance(kind, rg.CollinearTriple)
    assert abs(kind.rho - 0.5) <= 1e-15
    assert kind.d21 == 1.0
    # canonical order: endpoints first, middle last
    assert tuple(kind.order) == (0, 1, 2)


def test_collinear_reordering():
    cfg = rg.validate_config([(0.5, 0.0), (0.0, 0.0), (1.0, 0.0)])  # middle listed first
    assert cfg.is_collinear
    order = tuple(cfg.kind.order)
    assert order[2] == 0  # the middle receiver is receiver 1 of the input
    assert abs(cfg.kind.rho - 0.5) <= 1e-15


def test_duplicate_receiver_rejected():
    with pytest.raises(rg.DuplicateReceiver):
        rg.validate_config([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_duplicate_receiver_band_edge(scale):
    """One ulp either side of d32 = 1e-12 * d_max: receiver 3 moved off receiver 2 by the near
    distance is a duplicate, by the far one a valid configuration."""
    m1, m2 = np.array([0.2, -0.1]) * scale, np.array([1.3, 0.4]) * scale
    u = np.array([0.6, 0.8])

    def valid(e):
        try:
            rg.validate_config([m1, m2, m2 + e * u])
        except rg.DuplicateReceiver as exc:
            assert "receivers 2 and 3" in str(exc)
            return False
        return True

    def coincide(e):
        m3 = m2 + e * u
        d = [math.sqrt(float(v @ v)) for v in (m2 - m1, m3 - m1, m3 - m2)]
        return d[2] <= 1e-12 * max(d)

    far, near = band_edge(valid, 1e-10 * scale, 0.0)
    assert coincide(near) and not coincide(far)


def test_dimension_mismatch_rejected():
    with pytest.raises(rg.DimensionMismatch):
        rg.validate_config([(0.0, 0.0), (1.0, 0.0, 0.0)])
    with pytest.raises(rg.DimensionMismatch):
        rg.validate_config([(0.0,), (1.0,)])
    with pytest.raises(rg.DimensionMismatch):
        rg.validate_config([(0.0, 0.0)])
    with pytest.raises(rg.DimensionMismatch):
        rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_receiver_accessors(scalene):
    assert np.array_equal(scalene.m(1), [0.2, -0.1])
    assert np.array_equal(scalene.m(3), [0.5, 1.1])
    assert abs(scalene.dist(2, 1) - np.linalg.norm([1.1, 0.5])) <= 1e-15
    assert np.allclose(scalene.vec(2, 1), [1.1, 0.5])
    with pytest.raises(rg.DimensionMismatch):
        scalene.m(4)


def test_distances_batch(right):
    x = np.array([[0.3, 0.4], [1.0, 1.0]])
    d = right.distances(x)
    assert d.shape == (2, 3)
    assert np.allclose(d[0], [0.5, np.hypot(0.7, 0.4), np.hypot(0.3, 0.6)])


@given(triangles())
def test_triangle_invariants(cfg):
    assert not cfg.is_collinear
    assert cfg.d_max == max(cfg.d21, cfg.d31, cfg.d32)
    # strict triangle inequality for non-collinear receivers
    assert cfg.d21 + cfg.d31 > cfg.d32
    assert cfg.d21 + cfg.d32 > cfg.d31
    assert cfg.d31 + cfg.d32 > cfg.d21


@given(collinear_triples())
def test_collinear_invariants(cfg):
    kind = cfg.kind
    assert 0.0 < kind.rho < 1.0
    i, j, k = kind.order
    pts = [np.asarray(p, dtype=float) for p in cfg.receivers]
    # middle receiver sits at the convex combination of the endpoints
    recon = (1.0 - kind.rho) * pts[i] + kind.rho * pts[j]
    assert np.max(np.abs(recon - pts[k])) <= 1e-9 * cfg.d_max


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name, fixture, good", [
    ("classify2", "pair", [0.6, 0.7]),
    ("invert2", "pair", [0.6, 0.7]),
    ("classify3", "right", [0.5, 0.8, 0.7]),
    ("classify3", "collinear_mid", [0.5, 0.8, 0.4]),
    ("invert3", "right", [0.5, 0.8, 0.7]),
    ("quartic_residual", "right", [0.5, 0.8, 0.7]),
    ("classify_tau", "right", [0.1, 0.2]),
    ("invert_tdoa", "right", [0.1, 0.2]),
    ("classify3d_r3", "right3d", [0.5, 0.8, 0.7]),
    ("invert3d_r2", "pair3d", [0.6, 0.7]),
])
def test_non_finite_measurements_are_rejected(request, name, fixture, good, bad):
    cfg = request.getfixturevalue(fixture)
    for i in range(len(good)):
        T = list(good)
        T[i] = bad
        with pytest.raises(rg.InvalidParam, match="must be finite"):
            getattr(rg, name)(cfg, T)
        if name == "quartic_residual":  # and in a batch of triples
            with pytest.raises(rg.InvalidParam, match="must be finite"):
                rg.quartic_residual(cfg, [good, T])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("receivers", [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
])
def test_non_finite_receivers_are_rejected(receivers, bad):
    for i, point in enumerate(receivers):
        for k in range(len(point)):
            pts = [list(p) for p in receivers]
            pts[i][k] = bad
            with pytest.raises(rg.DimensionMismatch, match="must be finite"):
                rg.validate_config(pts)


@pytest.mark.parametrize("receivers", [
    [(0.0, 0.0), (1e160, 0.0), (3e159, 0.0)],
    [(0.0, 0.0), (1e160, 0.0), (3e159, 8e159)],
])
def test_receivers_whose_squared_sides_overflow_are_invalid(receivers):
    """Sides past the float range's square root raise InvalidParam naming the size, with no
    warning (the suite makes RuntimeWarnings errors), where the squared sides overflowed in
    the dot products and the receivers read as duplicates at d = inf.  Receivers a little
    closer, up to about 1e154 apart, still validate, in the plane and in space."""
    with pytest.raises(rg.InvalidParam, match=r"too far apart: a side of 1[.\d]*e\+160"):
        rg.validate_config(receivers)
    for pts in ([(0.0, 0.0), (1e154, 0.0), (3e153, 8e153)],
                [(0.0, 0.0), (1e154, 0.0), (3e153, 0.0)],
                [(0.0, 0.0), (9e153, 0.0), (0.0, 9e153)],
                [(0.0, 0.0, 0.0), (1e154, 0.0, 0.0), (3e153, 8e153, 1e153)],
                [(0.0, 0.0), (1e154, 0.0)]):
        cfg = rg.validate_config(pts)
        assert 1e154 <= cfg.d_max < 1.3e154
        assert all(np.isfinite(cfg._gram))


@pytest.mark.parametrize("s", [1e-160, 1e-162, 1e-165])
def test_receivers_whose_squared_sides_are_subnormal_are_invalid(s):
    """On (0,0) (s,0) (0.3s,0.8s) the squared sides are subnormal floats: at s = 1e-160 d_max
    read 1.062980776890594e-160 for 1.063014581273465e-160, and at 1e-162 distinct receivers
    raised DuplicateReceiver (d = 0).  They raise InvalidParam naming the shortest side, with
    RuntimeWarnings as errors; at s = 1e-150 the distances are those of s = 1 times s."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.InvalidParam, match=r"receivers 1 and 3 too close: a side of 8\.544e"):
            rg.validate_config([(0.0, 0.0), (s, 0.0), (0.3 * s, 0.8 * s)])
        cfg = rg.validate_config([(0.0, 0.0), (1e-150, 0.0), (3e-151, 8e-151)])
    assert abs(cfg.d_max / 1.063014581273465e-150 - 1.0) <= 1e-15
    assert abs(cfg.d31 / 8.54400374531753e-151 - 1.0) <= 1e-15


@pytest.mark.parametrize("receivers, side", [
    ([(0.0, 0.0), (1e-320, 0.0), (3e-321, 8e-321)], r"receivers 1 and 3 too close: a side of 8\.5"),
    ([(0.0, 0.0, 0.0), (1e-320, 0.0, 0.0), (3e-321, 8e-321, 1e-321)], r"1 and 3 .* of 8\.6"),
    ([(0.0, 0.0), (1e-320, 0.0)], r"receivers 1 and 2 too close: a side of 9\.99"),
])
def test_receivers_with_subnormal_coordinates_are_invalid(receivers, side):
    """Distinct receivers whose coordinates are themselves subnormal: the longest side lies
    below the side floor, so the scale, clamped there, left the unit dot products underflowing
    to 0.0, and (0,0) (1e-320,0) (3e-321,8e-321) raised DuplicateReceiver "receivers 1 and 2
    coincide (d = 0)".  The raw longest side is tested against the floor first: InvalidParam
    naming the shortest side, with RuntimeWarnings as errors.  Coincident receivers at the
    origin, whose longest side is 0.0, are still duplicates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.InvalidParam, match=side):
            rg.validate_config(receivers)
        with pytest.raises(rg.DuplicateReceiver, match=r"receivers 1 and 2 coincide \(d = 0\)"):
            rg.validate_config([(0.0, 0.0)] * len(receivers))


def test_config_holds_every_tolerance_literal():
    """No module of the package but config.py, the home of the tolerance policy, spells a float
    literal with a negative exponent (a tolerance such as 1e-9): the others import its names."""
    found = []
    for path in sorted(Path(rg.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NUMBER and re.search(r"e-\d", tok.string, re.IGNORECASE):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []
