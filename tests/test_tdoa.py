"""Range-difference model: projection, feasible regions, fibers, inversion."""
import gc
import itertools
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

import rangegeom as rg
from rangegeom import tdoa

from conftest import away_from_receivers, band_edge, collinear_triples, sources, triangles
from oracles import brute_fiber, t_quadratic_exact, tdoa_coeffs_per_call


def test_tau_map_pinned(right):
    tau = rg.tau_map(right, (0.3, 0.4))
    assert np.allclose(tau, [-0.1708203932499369, 0.1354053815799180], atol=1e-15)


def test_tau_map_batch(right):
    xs = np.array([[0.3, 0.4], [2.0, -1.0]])
    taus = rg.tau_map(right, xs)
    assert taus.shape == (2, 2)
    assert np.allclose(taus[0], rg.tau_map(right, xs[0]))


def test_projection_composition(right):
    xs = np.array([[0.3, 0.4], [2.0, -1.0], [-0.7, 0.2]])
    T = rg.forward3(right, xs)
    assert np.max(np.abs(rg.project_pi(T) - rg.tau_map(right, xs))) <= 1e-12


def test_pi_fiber_line(right):
    point, direction = rg.pi_fiber_line((0.25, -0.5))
    assert np.allclose(point, [0.25, -0.5, 0.0])
    assert np.allclose(direction, [1.0, 1.0, 1.0])
    # every point of the line projects to the same tau
    for t in (0.0, 0.7, 3.0):
        assert np.allclose(rg.project_pi(point + t * direction), [0.25, -0.5])


def test_p2_membership_names(right):
    rep = rg.p2_membership(right, (0.0, 0.0))
    assert set(rep.residuals) == set(rg.P2_FACETS)
    assert rep.verdict == "Interior"
    out = rg.p2_membership(right, (2.0, 0.0))
    assert out.verdict == "Outside"
    on = rg.p2_membership(right, (1.0, math.sqrt(2.0)))  # image of receiver 3
    assert on.verdict == "OnFacet"


def test_p2_collinear_drops_longest_pair(collinear_mid):
    rep = rg.p2_membership(collinear_mid, (0.0, 0.0))
    assert len(rep.residuals) == 4
    # the dropped pair is the endpoint separation tau1 - tau2 = +-d21 wall
    assert not any("tau2-tau1" in k for k in rep.residuals)


def test_coeffs_pinned(right):
    co = rg.tdoa_coeffs(right, (0.0, 0.0))
    assert abs(co.a + 1.0) <= 1e-12
    tau = rg.tau_map(right, (0.3, 0.4))
    co = rg.tdoa_coeffs(right, tau)
    assert abs(co.a + 0.8770461680797919) <= 1e-12


@given(triangles(), sources())
def test_coeffs_parity(cfg, x):
    tau = rg.tau_map(cfg, x)
    plus = rg.tdoa_coeffs(cfg, tau)
    minus = rg.tdoa_coeffs(cfg, -tau)
    scale3 = cfg.d_max ** 3
    scale4 = cfg.d_max ** 4
    assert abs(plus.a - minus.a) <= 1e-9 * scale4   # even
    assert abs(plus.b + minus.b) <= 1e-9 * scale3   # odd
    assert plus.c >= -1e-15                          # a squared norm


def test_coeffs_collinear_raises(collinear_mid):
    with pytest.raises(rg.DegenerateConfig):
        rg.tdoa_coeffs(collinear_mid, (0.1, 0.1))


def test_invert_recovers_pinned(right):
    tau = rg.tau_map(right, (0.3, 0.4))
    sol = rg.invert_tdoa(right, tau)
    assert sol.kind == "One"
    assert np.max(np.abs(sol.points[0] - [0.3, 0.4])) <= 1e-8


def test_invert_boundary_double_root(right):
    sol = rg.invert_tdoa(right, (-1.0, math.sqrt(2.0) - 2.0))
    assert sol.kind == "One"
    assert np.max(np.abs(sol.points[0] - [0.0, -1.0])) <= 1e-6


def test_invert_outside_empty(right):
    assert rg.invert_tdoa(right, (0.9, -0.8)).kind == "Empty"
    assert rg.invert_tdoa(right, (2.0, 0.0)).kind == "Empty"


@given(triangles(), sources())
def test_invert_round_trip(cfg, x):
    assume(away_from_receivers(cfg, x, margin=1e-2))
    tau = rg.tau_map(cfg, x)
    sol = rg.invert_tdoa(cfg, tau)
    assert sol.kind in ("One", "Two")
    err = min(float(np.max(np.abs(p - np.asarray(x)))) for p in sol.points)
    assert err <= 1e-8 * cfg.d_max
    for p in sol.points:
        assert np.max(np.abs(rg.tau_map(cfg, p) - tau)) <= 1e-8 * cfg.d_max


def test_classify_regions(right):
    # deep past region: one source
    reg = rg.classify_tau(right, rg.tau_map(right, (0.3, 0.4)))
    assert reg.label == "EMinus" and reg.fiber == 1
    # lens near each receiver image corner: two sources
    for i in (1, 2, 3):
        tau = rg.tau_map(right, right.m(i) + np.array([0.017, 0.011]))
        reg = rg.classify_tau(right, tau)
        assert reg.label == f"U_{i}" and reg.fiber == 2
    # outside the polyhedron: empty
    assert rg.classify_tau(right, (0.9, -0.8)).label == "OutsideIm"
    assert rg.classify_tau(right, (0.9, -0.8)).fiber == 0
    # mirrored lens: empty (the reflected corners are not in the image)
    tau_m = -rg.tau_map(right, right.m(1) + np.array([0.017, 0.011]))
    assert rg.classify_tau(right, tau_m).label == "OutsideIm"


@pytest.mark.parametrize("receivers", [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)],
    [(0.0, 0.0), (1.0, 0.0), (0.3, 1e-2)],
    [(0.0, 0.0), (1.0, 0.0), (0.35, 1e-3)],
])
def test_lens_label_along_the_corner_facets(receivers):
    # U_i touches the hexagon along the facet segments from R^i to the two
    # tangency points next to it; just inside them, every lens point is U_i
    cfg = rg.validate_config(receivers)
    tp = rg.tangency_points(cfg)
    bracketing = {1: ("T2-", "T3-"), 2: ("T1-", "T3+"), 3: ("T1+", "T2+")}
    hits = 0
    for i, tids in bracketing.items():
        corner = rg.tau_map(cfg, cfg.m(i))
        for tid in tids:
            for s in np.linspace(0.05, 0.95, 19):
                for shrink in (1e-3, 1e-6):
                    tau = (1.0 - shrink) * (corner + s * (tp[tid] - corner))
                    label = rg.classify_tau(cfg, tau).label
                    if label.startswith("U_"):
                        assert label == f"U_{i}", (tid, s, shrink)
                        hits += 1
    assert hits > 0
    if receivers[2] == (0.3, 1e-2):
        # in U_3, though about five times nearer the corner R^1 than R^3
        assert rg.classify_tau(cfg, (-0.2, 0.68)).label == "U_3"


def test_tangency_points(right):
    tp = rg.tangency_points(right)
    assert set(tp) == set(rg.TANGENCY_IDS)
    for tid, pt in tp.items():
        co = rg.tdoa_coeffs(right, pt)
        disc = co.b * co.b - co.a * co.c
        assert abs(co.a) <= 1e-10
        assert abs(co.b) <= 1e-10
        assert abs(disc) <= 1e-10
        assert rg.classify_tau(right, pt).label == "TangencyPoint"


def test_tangency_points_mutation_leaves_later_calls_intact(scalene):
    first = rg.tangency_points(scalene)
    expected = {tid: pt.copy() for tid, pt in first.items()}
    for pt in first.values():
        pt[:] = 0.0
    first.clear()
    again = rg.tangency_points(scalene)
    assert again.keys() == expected.keys()
    for tid, pt in again.items():
        assert pt.tobytes() == expected[tid].tobytes()
        assert rg.classify_tau(scalene, pt).ids == (tid,)


@given(triangles())
def test_tangency_points_property(cfg):
    for pt in rg.tangency_points(cfg).values():
        co = rg.tdoa_coeffs(cfg, pt)
        scale4 = cfg.d_max ** 4
        assert abs(co.a) <= 1e-9 * scale4
        disc = co.b * co.b - co.a * co.c
        assert abs(disc) <= 1e-9 * scale4 * scale4 / cfg.d_max ** 2


def test_t_quadratic_matches_lift(right):
    for x in ((0.3, 0.4), (1.017, 0.011), (-0.4, 2.0)):
        tau = rg.tau_map(right, x)
        A, B, C = rg.t_quadratic(right, tau)
        d3 = float(np.linalg.norm(np.asarray(x) - right.m(3)))
        val = A * d3 * d3 + B * d3 + C
        scale = max(abs(A), abs(B), abs(C))
        assert abs(val) <= 1e-9 * scale
        # root correspondence with the null-cone quadratic
        co = rg.tdoa_coeffs(right, tau)
        lam = np.roots([co.a, 2.0 * co.b, co.c])
        if np.all(np.isreal(lam)):
            t_from = np.sort(-np.real(lam) * co.v_time)
            t_dir = np.sort(np.roots([A, B, C]).real)
            assert np.max(np.abs(t_from - t_dir)) <= 1e-10


@pytest.mark.parametrize("h", [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_t_quadratic_matches_the_exact_lift(h):
    """(A, B, C) within 1e-9 of the largest exact coefficient of the quartic expanded along the
    lift, on triangles (0,0) (1,0) (x, h) down to nearly collinear ones, at the tau of sources
    near the receivers and far from them."""
    rng = np.random.default_rng(19)
    for x in (0.4, 1.3, -0.3):
        cfg = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (x, h)])
        sources = np.concatenate([rng.uniform(-3.0, 3.0, size=(30, 2)),
                                  rng.uniform(-100.0, 100.0, size=(10, 2))])
        for tau in rg.tau_map(cfg, sources):
            exact = t_quadratic_exact(cfg, tau)
            got = rg.t_quadratic(cfg, tau)
            err = max(abs(Fraction(g) - e) for g, e in zip(got, exact))
            assert err <= Fraction(1e-9) * max(map(abs, exact)), (tau, got, exact)


@settings(max_examples=30)
@given(triangles(), sources(box=3.0))
def test_fiber_against_brute_oracle(cfg, x):
    assume(away_from_receivers(cfg, x, margin=2e-2))
    # the sweep oracle intersects circles about receivers 1 and 3, which
    # become tangent (and the root uncountable) for sources on their axis
    pts = [np.asarray(p, dtype=float) for p in cfg.receivers]
    u13 = pts[0] - pts[2]
    dist_line = abs(rg.cross2(u13 / np.linalg.norm(u13), np.asarray(x) - pts[2]))
    assume(dist_line >= 0.05 * cfg.d_max)
    tau = rg.tau_map(cfg, x)
    co = rg.tdoa_coeffs(cfg, tau)
    scale4 = cfg.d_max ** 4
    scale3 = cfg.d_max ** 3
    # stay away from the fold arcs and tangency points, where finite grids
    # and double roots make counting ambiguous
    assume(abs(co.a) >= 1e-3 * scale4)
    assume(abs(co.b) >= 1e-3 * scale3)
    for pt in rg.tangency_points(cfg).values():
        assume(np.max(np.abs(tau - pt)) >= 0.05 * cfg.d_max)
    reg = rg.classify_tau(cfg, tau)
    assert reg.fiber in (1, 2)
    assert brute_fiber(cfg, tau) == reg.fiber


def test_collinear_image_structure(collinear_mid):
    cfg = collinear_mid
    # off the line: two mirrored sources, lift matches the range triple
    tau = rg.tau_map(cfg, (0.3, 0.4))
    reg = rg.classify_tau(cfg, tau)
    assert reg.label == "CollinearInterior" and reg.fiber == 2
    assert np.max(np.abs(reg.lift - rg.forward3(cfg, (0.3, 0.4)))) <= 1e-9
    sol = rg.invert3_collinear(cfg, reg.lift)
    assert sol.kind == "Two"
    # endpoint vertex images carry infinite fibers (whole rays collapse)
    for i, rid in ((1, "R1"), (2, "R2")):
        reg_v = rg.classify_tau(cfg, rg.tau_map(cfg, cfg.m(i)))
        assert reg_v.label == "VertexRay"
        assert reg_v.fiber == math.inf
        assert rid in reg_v.ids
    # sources on the outer rays map to the endpoint vertex image
    tau_far = rg.tau_map(cfg, (-2.7, 0.0))
    assert np.max(np.abs(tau_far - rg.tau_map(cfg, cfg.m(1)))) <= 1e-12
    # middle receiver image is an ordinary boundary point
    reg_m = rg.classify_tau(cfg, rg.tau_map(cfg, cfg.m(3)))
    assert reg_m.label == "BoundaryArc" and reg_m.ids == ("R3",)
    # the open edge between the endpoint images is excluded
    mid = 0.5 * (rg.tau_map(cfg, cfg.m(1)) + rg.tau_map(cfg, cfg.m(2)))
    assert rg.classify_tau(cfg, mid).label == "OutsideIm"


@given(collinear_triples(), sources())
def test_collinear_tau_fibers(cfg, x):
    assume(away_from_receivers(cfg, x, margin=1e-2))
    x = np.asarray(x, dtype=float)
    i, j, _ = cfg.kind.order
    pts = [np.asarray(p, dtype=float) for p in cfg.receivers]
    u = (pts[j] - pts[i]) / cfg.kind.d21
    offset = abs(rg.cross2(u, x - pts[i]))
    assume(offset >= 1e-3 * cfg.d_max)
    tau = rg.tau_map(cfg, x)
    reg = rg.classify_tau(cfg, tau)
    assert reg.label == "CollinearInterior"
    assert reg.fiber == 2
    assert reg.lift is not None
    sol = rg.invert3_collinear(cfg, reg.lift)
    err = min(float(np.max(np.abs(p - x))) for p in sol.points)
    assert err <= 1e-7 * cfg.d_max


def test_tau_region_errors(right, pair):
    with pytest.raises(rg.DimensionMismatch):
        rg.tau_map(pair, (0.3, 0.4))
    with pytest.raises(rg.DimensionMismatch):
        rg.invert_tdoa(right, (0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# the row kernels: classify_invert_tau against the scalar calls

def _bits(value):
    """A comparable form of a result field: floats by hex, arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", [(k, _bits(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_bits(v) for v in value])
    return (type(value).__name__, value)


def _region_bits(region):
    co = region.coeffs
    coeffs = None if co is None else _bits((co.a, co.b, co.c, co.u0, co.v_spatial, co.v_time))
    return (region.label, region.ids, _bits(region.fiber), _bits(region.residuals),
            _bits(region.lift), coeffs)


def _bisect_b(cfg, lo, hi):
    """A tau between lo and hi where the coefficient b changes sign."""
    sign_lo = rg.tdoa_coeffs(cfg, lo).b > 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (rg.tdoa_coeffs(cfg, mid).b > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo


def _probe_taus(cfg, seed: int) -> np.ndarray:
    """Seeded tau rows on and around every boundary of the difference plane."""
    rng = np.random.default_rng(seed)
    dm = cfg.d_max
    d21, d31, d32 = cfg.d21, cfg.d31, cfg.d32
    images = rg.tau_map(cfg, np.array(cfg.receivers))
    s = rng.uniform(-1.0, 1.0, size=8)
    facets = [np.stack([np.full(8, sign * d31), s * d32], axis=1) for sign in (-1, 1)]
    facets += [np.stack([s * d31, np.full(8, sign * d32)], axis=1) for sign in (-1, 1)]
    facets += [np.stack([s * d21, s * d21 + sign * d21], axis=1) for sign in (-1, 1)]
    lens = rg.tau_map(cfg, np.array(cfg.receivers) + rng.normal(size=(3, 2)) * 0.02 * dm)
    parts = [images, images * (1.0 - 1e-12), *facets, lens, -lens,
             rng.uniform(-1.3, 1.3, size=(40, 2)) * dm,
             rg.tau_map(cfg, rng.normal(size=(40, 2)) * dm + images.mean(axis=0)),
             np.array([[2.0, 0.0], [0.9, -0.8], [-3.0, 5.0]]) * dm]
    if not cfg.is_collinear:
        tangency = np.array(list(rg.tangency_points(cfg).values()))
        parts += [tangency, tangency * (1.0 + 1e-10), tangency * (1.0 - 1e-7)]
        # a = 0 on the ellipse E: |t1 d32v - t2 d31v| = |w12|
        d31v, d32v = cfg.vec(3, 1), cfg.vec(3, 2)
        w12 = abs(rg.cross2(d31v, d32v))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=8)
        on_e = np.linalg.solve(np.stack([d32v, -d31v], axis=1),
                               w12 * np.stack([np.cos(theta), np.sin(theta)]))
        parts.append(on_e.T)
        # b = 0 on the cubic C, between probes of opposite sign
        probes = rng.uniform(-1.0, 1.0, size=(24, 2)) * dm
        signs = [rg.tdoa_coeffs(cfg, t).b > 0.0 for t in probes]
        parts.append(np.array([_bisect_b(cfg, probes[k], probes[k + 1])
                               for k in range(23) if signs[k] != signs[k + 1]]).reshape(-1, 2))
    return np.concatenate(parts)


_ROW_RECEIVERS = [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)],
    [(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)],
    [(0.0, 0.0), (1.0, 0.0), (0.35, 1e-3)],
    [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)],
]


def _probe_seed(receivers) -> int:
    return len(receivers[2]) + int(1e3 * receivers[2][0])


@pytest.mark.parametrize("receivers", _ROW_RECEIVERS)
@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_classify_invert_tau_rows_are_the_scalar_calls(receivers, rtol):
    cfg = rg.validate_config(receivers)
    taus = _probe_taus(cfg, seed=_probe_seed(receivers))
    regions, solutions = rg.classify_invert_tau(cfg, taus, rtol)
    assert len(regions) == len(taus)
    for tau, region in zip(taus, regions):
        assert _region_bits(region) == _region_bits(rg.classify_tau(cfg, tau, rtol))
    labels = {region.label for region in regions}
    if cfg.is_collinear:
        assert solutions is None
        assert {"VertexRay", "CollinearInterior", "OutsideIm"} <= labels
        return
    want = {"TangencyPoint", "BoundaryArc", "OutsideIm"}
    if receivers[2][1] > 0.1:  # thin triangles have narrow lenses and no EMinus at all
        want |= {"EMinus", "U_1", "U_2", "U_3"}
    assert want <= labels
    assert len(solutions) == len(taus)
    for tau, region, sol in zip(taus, regions, solutions):
        assert _bits(sol.points) == _bits(rg.invert_tdoa(cfg, tau, rtol).points)
        # and the coefficients are those of the scalar formula
        co = region.coeffs
        assert _bits((co.a, co.b, co.c, co.u0, co.v_spatial, co.v_time)) == _bits(
            tdoa_coeffs_per_call(cfg, tau))


def test_classify_invert_tau_empty_and_single_row(scalene, collinear_mid):
    assert rg.classify_invert_tau(scalene, np.empty((0, 2))) == ((), ())
    assert rg.classify_invert_tau(collinear_mid, np.empty((0, 2))) == ((), None)
    assert rg.tau_fibers(scalene, np.empty((0, 2))) == ((), (), ())
    assert rg.tau_fibers(collinear_mid, np.empty((0, 2))) == ((), (), None)
    tau = rg.tau_map(scalene, (0.3, 0.4))
    (region,), (sol,) = rg.classify_invert_tau(scalene, [tau.tolist()])
    assert _region_bits(region) == _region_bits(rg.classify_tau(scalene, tau))
    assert _bits(sol.points) == _bits(rg.invert_tdoa(scalene, tau).points)


def _vertex_probes(cfg, seed: int) -> np.ndarray:
    """Seeded tau rows 1e-9 to 1e-6 d_max from each vertex image, in the max norm."""
    rng = np.random.default_rng(seed)
    images = np.array(tdoa._vertex_images(cfg))
    r = 10.0 ** rng.uniform(-9.0, -6.0, size=(3, 40, 1)) * cfg.d_max
    d = rng.normal(size=(3, 40, 2))
    return (images[:, None, :] + d / np.abs(d).max(axis=2, keepdims=True) * r).reshape(-1, 2)


@pytest.mark.parametrize("batch", [rg.classify_invert_tau, rg.tau_fibers])
def test_batch_entries_classify_only_rows_inside_p2_and_invert_only_fibers_1_and_2(
        monkeypatch, scalene, collinear_mid, batch):
    """The pipeline hands the classifier, _classify_rows or for collinear receivers
    _classify_collinear_rows, only the rows inside the P2 band, and _invert_rows only the rows
    of fiber 1 or 2 (none for collinear receivers); classify_invert_tau's other rows get an
    empty SolutionSet.  The collinear probes include rows near the vertex images."""
    for cfg, classifier in ((scalene, "_classify_rows"),
                            (collinear_mid, "_classify_collinear_rows")):
        taus = _probe_taus(cfg, seed=7)
        if cfg.is_collinear:
            taus = np.concatenate([taus, _vertex_probes(cfg, seed=7)])
        seen = {classifier: [], "_invert_rows": []}
        for name, real in [(name, getattr(tdoa, name)) for name in seen]:
            def counted(config, rows, *args, real=real, name=name):
                seen[name].extend(rows.tolist())
                return real(config, rows, *args)
            monkeypatch.setattr(tdoa, name, counted)
        out = batch(cfg, taus)
        monkeypatch.undo()
        regions = [rg.classify_tau(cfg, tau) for tau in taus]
        tol = 1e-9 * cfg.d_max
        assert seen[classifier] == [tau.tolist() for tau, region in zip(taus, regions)
                                    if min(region.residuals.values()) >= -tol]
        assert seen["_invert_rows"] == [tau.tolist() for tau, region in zip(taus, regions)
                                        if region.fiber in (1, 2) and not cfg.is_collinear]
        fibers = {region.fiber for region in regions}
        assert fibers == ({0, 1, 2, math.inf} if cfg.is_collinear else {0, 1, 2})
        if batch is rg.classify_invert_tau and not cfg.is_collinear:
            assert all(sol.points == () for region, sol in zip(regions, out[1])
                       if region.fiber == 0)


@pytest.mark.parametrize("middle", [0.5, 0.3])  # collinear_mid's receivers, and off-centre
@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_collinear_rows_outside_the_p2_band_are_outside_im(middle, order, rtol):
    """Rows 1e-9 to 1e-6 d_max from the vertex images of (0,0) (1,0) (middle,0), in each
    receiver order: classify_tau, classify_invert_tau and tau_fibers give every row the same
    label and fiber, and label each row outside the P2 band OutsideIm with fiber 0, the rule
    of general position."""
    cfg = rg.validate_config(np.array([(0.0, 0.0), (1.0, 0.0), (middle, 0.0)])[list(order)])
    taus = _vertex_probes(cfg, seed=sum(k * 10 ** i for i, k in enumerate(order)))
    regions, _ = rg.classify_invert_tau(cfg, taus, rtol)
    labels, fibers, _ = rg.tau_fibers(cfg, taus, rtol)
    outside = 0
    for tau, region, label, fiber in zip(taus, regions, labels, fibers):
        one = rg.classify_tau(cfg, tau, rtol)
        assert _region_bits(one) == _region_bits(region)
        assert (label, _bits(fiber)) == (one.label, _bits(one.fiber))
        if min(one.residuals.values()) < -rtol * cfg.d_max:
            outside += 1
            assert (one.label, one.ids, one.fiber) == ("OutsideIm", (), 0)
    assert outside < len(taus)
    if rtol == 1e-9:  # the probes reach a thousand band widths out
        assert outside


@pytest.mark.parametrize("receivers", [_ROW_RECEIVERS[4], _ROW_RECEIVERS[5],
                                       [(2.0, 1.0), (4.5, 1.0), (3.0, 1.0)]])
@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_collinear_rows_outside_p2_keep_their_lift(receivers, rtol):
    """A collinear row outside the P2 band still carries the lift (tau1 + t, tau2 + t, t) of its
    line: the lift lies on the Stewart quadric, and is None only on a flat row, where the
    quadric does not change along the line (its slope in t within rtol * d_max of 0)."""
    cfg = rg.validate_config(receivers)
    rng = np.random.default_rng(_probe_seed(receivers))
    kind, dm = cfg.kind, cfg.d_max
    # along the lift the quadric's slope in t is 2 w . tau, w the weights (1 - rho, rho, -1)
    # of the canonical (tau1, tau2, 0); flat rows lie on the line w . tau = 0
    weight = (1.0 - kind.rho, kind.rho, -1.0)
    w = np.array([weight[kind.order.index(k)] for k in (0, 1)])
    flat = np.array([w[1], -w[0]]) / np.abs(w).max()
    taus = np.concatenate([rng.uniform(-1.3, 1.3, size=(200, 2)) * dm, _probe_taus(cfg, seed=3),
                           np.outer([0.5, 1.2, 2.0, -1.7, 40.0], flat) * dm])
    regions, _ = rg.classify_invert_tau(cfg, taus, rtol)
    outside = [(tau, region) for tau, region in zip(taus, regions)
               if min(region.residuals.values()) < -rtol * dm]
    assert len(outside) > 100
    n_flat = 0
    for tau, region in outside:
        slope = 2.0 * abs(w @ tau)
        if region.lift is None:
            n_flat += 1
            assert slope <= 1.01 * rtol * dm
            continue
        assert slope >= 0.99 * rtol * dm
        T = region.lift
        assert np.abs(T[:2] - T[2] - tau).max() <= 1e-12 * (dm + np.abs(T).max())
        scale = dm * dm + float(T @ T)
        assert abs(rg.collinear_quadric_residual(cfg, T)) <= 1e-12 * scale
    assert n_flat >= 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_invert_tau_rejects_a_non_finite_row(scalene, collinear_mid, bad):
    for cfg in (scalene, collinear_mid):
        with pytest.raises(rg.InvalidParam):
            rg.classify_tau(cfg, (bad, 0.1))
        for batch in (rg.classify_invert_tau, rg.tau_fibers):
            with pytest.raises(rg.InvalidParam):
                batch(cfg, [[0.1, 0.2], [bad, 0.1]])


@pytest.mark.parametrize("k", [-300, 0, 300])
def test_tdoa_input_bound_is_a_multiple_of_d_max(right, k):
    """The null-cone line's one input bound is |tau| <= _LINE_BOUND * d_max (1e40 d_max).  On
    the right triangle scaled by 2^k every entry answers at it, with RuntimeWarnings as
    errors, and just beyond it and at 1e78 * 2^k every entry raises."""
    cfg = rg.validate_config(np.ldexp(np.array(right.receivers), k))
    bound = 1e40 * cfg.d_max
    inside = np.array([0.1, 0.2]) * cfg.d_max
    calls = (rg.classify_tau, rg.invert_tdoa, rg.tdoa_coeffs, rg.t_quadratic,
             lambda cfg, tau: rg.classify_invert_tau(cfg, [inside, tau]),
             lambda cfg, tau: rg.tau_fibers(cfg, [tau, inside]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in ((bound, -bound), (bound, bound), (-bound, 0.3 * cfg.d_max)):
            assert rg.classify_tau(cfg, tau).label == "OutsideIm"
            assert rg.invert_tdoa(cfg, tau).kind == "Empty"
            for call in calls:
                call(cfg, tau)
        for big in (math.nextafter(bound, math.inf), math.ldexp(1e78, k)):
            for tau in ((big, -big), (0.3 * cfg.d_max, -big)):
                for call in calls:
                    with pytest.raises(rg.InvalidParam, match="too large for the null-cone"):
                        call(cfg, tau)


def test_tdoa_input_bound_holds_on_scaled_and_thin_triangles():
    """At the bound, in seeded directions, on triangles of heights 1 to 1e-9 and scales
    1e-150 to 1e150, the kernels' products stay finite and no RuntimeWarning is raised."""
    rng = np.random.default_rng(43)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            apex = (rng.uniform(-0.5, 1.5), 10.0 ** rng.uniform(-9.0, 0.0))
            cfg = rg.validate_config(np.array([(0.0, 0.0), (1.0, 0.0), apex]) * scale)
            bound = 1e40 * cfg.d_max
            for _ in range(10):
                tau = rng.normal(size=2)
                tau = np.clip(tau * (bound / np.abs(tau).max()), -bound, bound)
                co = tdoa._coeff_rows(cfg, *tdoa._line_taus(cfg, np.array([tau, -tau])).T)
                assert all(np.isfinite(col).all() for col in co)
                rg.classify_invert_tau(cfg, [tau, -tau])
                assert all(np.isfinite(p).all() for p in rg.invert_tdoa(cfg, tau).points)


def test_collinear_lift_input_bound():
    """On (0,0) (s,0) (0.3s,0) and its near-collinear (0.3s, 1e-10 s) apex, tau = (0.1, 0.2)
    is OutsideIm at s = 1e60, 1e100 and 1e150 with RuntimeWarnings as errors; at 1e150 the
    discarded lift of that flat row had overflowed its facet slacks.  Past _LIFT_BOUND * d_max
    (1e150 d_max), for tau or for a lift t (a slope within rtol = 0 of flat), every entry
    raises."""
    def collinear(s, apex=(0.3, 0.0)):
        return rg.validate_config(np.array([(0.0, 0.0), (1.0, 0.0), apex]) * s)

    calls = (rg.classify_tau, lambda cfg, tau: rg.classify_invert_tau(cfg, [(0.1, 0.2), tau]),
             lambda cfg, tau: rg.tau_fibers(cfg, [tau, (0.1, 0.2)]))
    rng = np.random.default_rng(44)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e60, 1e100, 1e150):
            for apex in ((0.3, 0.0), (0.3, 1e-10)):
                cfg = collinear(s, apex)
                assert cfg.is_collinear
                assert rg.classify_tau(cfg, (0.1, 0.2)).label == "OutsideIm"
                assert rg.tau_fibers(cfg, [(0.1, 0.2)])[0] == ("OutsideIm",)
        for cfg, tau in ((collinear(1.0), (1.1e150, 0.1)), (collinear(1e-150), (1.1e0, 0.0)),
                         (collinear(1e150), (math.nextafter(1e300, math.inf), -0.5))):
            for call in calls:
                with pytest.raises(rg.InvalidParam, match="collinear lift"):
                    call(cfg, tau)
        # its lift t is about 1.5e199 d_max: flat within the default rtol, not within 0
        assert rg.classify_tau(collinear(1.0), (1e-200, 0.0)).label in ("VertexRay", "OutsideIm")
        with pytest.raises(rg.InvalidParam, match="a lift lies beyond"):
            rg.classify_tau(collinear(1.0), (1e-200, 0.0), rtol=0.0)
        # within the bound every row answers or raises InvalidParam, and nothing overflows
        for _ in range(40):
            cfg = collinear(10.0 ** rng.uniform(-150.0, 153.0), (rng.uniform(0.05, 0.95), 0.0))
            tau = rng.normal(size=2)
            for big in (1e150 * cfg.d_max, cfg.d_max, 1e-3 * cfg.d_max):
                try:
                    rg.tau_fibers(cfg, [tau * (big / np.abs(tau).max()), -tau * cfg.d_max])
                except rg.InvalidParam as exc:
                    assert "collinear lift" in str(exc)


def test_e_gate_band_edges_agree_with_the_linear_root_branch():
    """One ulp either side of each edge of the band |a| / d_max^4 <= rtol, bisected along
    rays through the ellipse E: classify_tau labels the point BoundaryArc E exactly where
    invert_tdoa takes the linear root -c / 2b."""
    cfg = rg.validate_config([(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)])
    assert math.frexp(cfg.d_max)[0] != 0.5  # d_max is not a power of two
    d31v, d32v, _, _, w12, _ = cfg._memo(tdoa._line_constants)
    d31v, d32v = np.array(d31v), np.array(d32v)
    rtol = 1e-9

    def on_e(tau):
        region = rg.classify_tau(cfg, tau, rtol)
        return region.label == "BoundaryArc" and region.ids == ("E",)

    def linear_root(tau):
        a, b, c, *_, an, bn = tdoa._coeff_rows(cfg, *tdoa._line_taus(cfg, tau.tolist()))
        return tdoa._null_cone_roots(a, b, c, an, bn, rtol) == [-c / (2.0 * b)]

    for theta in np.linspace(0.3, 0.3 + 2.0 * math.pi, 7, endpoint=False):
        u = np.array([math.cos(theta), math.sin(theta)])
        r_e = abs(w12) / np.linalg.norm(u[0] * d32v - u[1] * d31v)  # a = 0 on E
        for far in (0.5, 1.5):
            for r in band_edge(lambda r: on_e(r * u), r_e, far * r_e):
                assert on_e(r * u) == linear_root(r * u)


def test_classify_invert_tau_rejects_other_shapes(scalene, pair, right3d):
    for batch in (rg.classify_invert_tau, rg.tau_fibers):
        for taus in ([0.1, 0.2], [[0.1, 0.2, 0.3]], np.zeros((2, 2, 2))):
            with pytest.raises(rg.DimensionMismatch):
                batch(scalene, taus)
        for cfg in (pair, right3d):
            with pytest.raises(rg.DimensionMismatch):
                batch(cfg, [[0.1, 0.2]])


def _assert_tau_fibers_are_classify_invert_tau(cfg, taus, rtol=1e-9):
    """tau_fibers' labels and fibers are classify_invert_tau's; in general position its points
    are the solutions' bit for bit where the fiber is 1 or 2, and () where it is 0."""
    labels, fibers, points = rg.tau_fibers(cfg, taus, rtol)
    regions, solutions = rg.classify_invert_tau(cfg, taus, rtol)
    assert type(labels) is tuple and type(fibers) is tuple
    assert labels == tuple(region.label for region in regions)
    assert [_bits(f) for f in fibers] == [_bits(region.fiber) for region in regions]
    if cfg.is_collinear:
        assert points is None and solutions is None
        return fibers
    assert type(points) is tuple and len(points) == len(taus)
    for found, sol, fiber in zip(points, solutions, fibers):
        if fiber == 0:  # not inverted
            assert found == ()
            continue
        assert type(found) is tuple and len(found) == len(sol.points)
        for pair, point in zip(found, sol.points):
            assert type(pair) is tuple and all(type(v) is float for v in pair)
            assert [v.hex() for v in pair] == [float(v).hex() for v in point]
    return fibers


@pytest.mark.parametrize("receivers", _ROW_RECEIVERS)
@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_tau_fibers_are_the_labels_fibers_and_points_of_classify_invert_tau(receivers, rtol):
    cfg = rg.validate_config(receivers)
    taus = _probe_taus(cfg, seed=_probe_seed(receivers))
    assert 0 in _assert_tau_fibers_are_classify_invert_tau(cfg, taus, rtol)


@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_tau_fibers_p2_band_edges_agree_with_classify_tau(scalene, rtol):
    """One ulp either side of slack = -rtol * d_max on each of the six facets of P2, bisected
    along the facet's outward normal from three points of the facet: tau_fibers, which labels
    the rows outside the band from their P2 slacks alone, gives classify_tau's label and
    fiber, and classify_invert_tau's points where the fiber is 1 or 2.  And one ulp either
    side of the inner band edge, slack = +rtol * d_max, on the lens side of each facet (between
    its tangency point and its corner R^i): BoundaryArc on the facet within it, U_i beyond."""
    cfg = scalene
    tol = rtol * cfg.d_max
    names, rows = cfg._memo(tdoa._p2_table)
    normals, offsets = np.array(rows)[:, 1:3].T, np.array(rows)[:, 0]
    assert len(names) == 6
    images = np.array(tdoa._vertex_images(cfg))
    corners = np.concatenate([images, -images])

    def inside(tau):
        return min(rg.classify_tau(cfg, tau, rtol).residuals.values()) >= -tol

    edges = []
    for k in range(6):
        n = normals[:, k]
        ends = corners[np.abs(corners @ n + offsets[k]) <= 1e-12 * cfg.d_max]
        assert len(ends) == 2  # the facet's two corners
        for s in (0.25, 0.5, 0.75):
            on_facet = (1.0 - s) * ends[0] + s * ends[1]
            for t in band_edge(lambda t: inside(on_facet - t * n), 0.0, 4.0 * tol):
                edges.append(on_facet - t * n)
    taus = np.array(edges)
    labels, fibers, _ = rg.tau_fibers(cfg, taus, rtol)
    for tau, label, fiber in zip(taus, labels, fibers):
        region = rg.classify_tau(cfg, tau, rtol)
        assert (label, _bits(fiber)) == (region.label, _bits(region.fiber))
        assert rg.tau_fibers(cfg, [tau], rtol)[:2] == ((label,), (fiber,))
    # the out-of-band side of every edge is OutsideIm; the in-band side reaches the ladder
    assert set(labels[1::2]) == {"OutsideIm"}
    _assert_tau_fibers_are_classify_invert_tau(cfg, taus, rtol)

    for k in range(6):
        n = normals[:, k]
        on = lambda points: points[np.abs(points @ n + offsets[k]) <= 1e-12 * cfg.d_max]
        (corner,), (touch,) = on(images), on(np.array(cfg._memo(tdoa._tangency_table)))
        inner = []
        for s in (0.25, 0.5, 0.75):
            on_facet = (1.0 - s) * touch + s * corner
            slack = lambda t: rg.classify_tau(cfg, on_facet + t * n, rtol).residuals[names[k]]
            edge = band_edge(lambda t: slack(t) <= tol, 0.0, 4.0 * tol)
            inner.extend(on_facet + t * n for t in edge)
        labels, fibers, _ = rg.tau_fibers(cfg, np.array(inner), rtol)
        for tau, label, fiber in zip(inner, labels, fibers):
            region = rg.classify_tau(cfg, tau, rtol)
            assert (label, fiber) == (region.label, region.fiber)
        assert [rg.classify_tau(cfg, tau, rtol).ids for tau in inner[::2]] == [(names[k],)] * 3
        assert labels[::2] == ("BoundaryArc",) * 3 and fibers == (1, 2) * 3
        assert len(set(labels[1::2])) == 1 and labels[1].startswith("U_")
        _assert_tau_fibers_are_classify_invert_tau(cfg, np.array(inner), rtol)


@pytest.mark.parametrize("receivers", _ROW_RECEIVERS[:4])
def test_tau_fibers_on_blocks_outside_inside_and_across_p2(receivers):
    """Blocks of fiber_census.py's 161^2 grid that lie entirely outside P2 (the first one:
    there |tau1| >= 1.155 d_max > d31) and across its boundary (the centre one), and a block
    entirely inside it: tau_fibers equals classify_invert_tau, with RuntimeWarnings as errors."""
    cfg = rg.validate_config(receivers)
    axis = np.linspace(-1.2 * cfg.d_max, 1.2 * cfg.d_max, 161)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    centre = len(grid) // 2 // 512 * 512
    rng = np.random.default_rng(_probe_seed(receivers))
    inside_p2 = rg.tau_map(cfg, rng.normal(size=(512, 2)) * cfg.d_max)
    tol = 1e-9 * cfg.d_max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for taus, outside in ((grid[:512], {True}), (grid[centre:centre + 512], {True, False}),
                              (inside_p2, {False})):
            slack = tdoa._p2_slacks(cfg, *taus.T)[1]
            assert set((slack.min(axis=1) < -tol).tolist()) == outside
            fibers = _assert_tau_fibers_are_classify_invert_tau(cfg, taus)
            assert any(fibers) == (False in outside)


@pytest.mark.parametrize("receivers", [  # the receivers in general position of test_census.py
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)],
    [(3.0, -1.0), (5.5, -1.0), (4.5, 0.75)],
    [(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)],
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-3)],
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-5)],
    [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-6)],
])
def test_no_fiber_0_row_of_the_census_grid_has_a_source(receivers):
    """tau_fibers and classify_invert_tau invert only the rows of fiber 1 or 2, so they cannot
    show a source at a fiber-0 point.  invert_tdoa does not classify: on fiber_census.py's
    41^2 grid it finds no point at any row of fiber 0."""
    cfg = rg.validate_config(receivers)
    axis = np.linspace(-1.2 * cfg.d_max, 1.2 * cfg.d_max, 41)
    taus = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    regions, _ = rg.classify_invert_tau(cfg, taus)
    fiber_0 = [(region.label, rg.invert_tdoa(cfg, tau).points)
               for tau, region in zip(taus, regions) if region.fiber == 0]
    assert fiber_0
    assert [(label, points) for label, points in fiber_0 if points] == []


@pytest.mark.parametrize("s", [1e-60, 1e-70, 1e-76, 1e-78, 1e-82, 1e-120, 1e-150])
def test_tiny_receivers_recover_the_source(s):
    """On (0,0) (s,0) (0.3s,0.8s) with the tau of the source (0.2s, 0.3s), b*b and a*c of the
    null-cone quadratic underflowed from about s = 1e-60, where invert_tdoa returned Empty for
    an EMinus point, and below about 1.2e-77, where d_max^4 is no normal float, every entry
    raised.  On the unit geometry every entry recovers the source down to the side floor
    (about 1.5e-154), with RuntimeWarnings as errors."""
    cfg = rg.validate_config(np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)]) * s)
    x = np.array([0.2, 0.3]) * s
    tau = rg.tau_map(cfg, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        region = rg.classify_tau(cfg, tau)
        (point,) = rg.invert_tdoa(cfg, tau).points
        labels, fibers, points = rg.tau_fibers(cfg, [tau, -tau])
    assert (region.label, region.fiber) == ("EMinus", 1)
    assert np.max(np.abs(point - x)) <= 1e-9 * cfg.d_max
    assert (labels[0], fibers[0]) == ("EMinus", 1)
    assert points[0] == (tuple(point.tolist()),)


@pytest.mark.xfail(strict=True, reason="the lens cones of this triangle have w = 0.0; the "
                   "well-conditioned TDOA line of ROADMAP item 2 should mend it")
def test_h_1e_9_triangle_fiber_is_the_number_of_points():
    """validate_config accepts (0,0) (1,0) (0.4,1e-9) as a GeneralTriangle, but every w of
    _lens_table is 0.0 there.  Near the tau of the source (-1.3017, 0.2838) classify_tau warns
    "divide by zero" in _cone_coordinates and answers U_1 with fiber 2; invert_tdoa finds no
    point."""
    cfg = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.4, 1e-9)])
    tau = np.array([-0.3929241, 0.59392668])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fiber = rg.classify_tau(cfg, tau).fiber
        points = rg.invert_tdoa(cfg, tau).points
    assert fiber == len(points)


def test_line_constants_are_read_only_and_die_with_their_configuration():
    """The TDOA memos are tuples of floats, except the read-only (2, 2) array M that the solve
    for u0 takes, and they hold no reference to the configuration."""
    cfg = rg.validate_config([(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)])
    lens_tau = rg.tau_map(cfg, cfg.m(1) + np.array([0.017, 0.011]))
    regions, _ = rg.classify_invert_tau(cfg, [rg.tau_map(cfg, (0.3, 0.4)), lens_tau])
    assert regions[1].label == "U_1"
    d31v, d32v, M, shift, w12, flip = cfg._constants[tdoa._line_constants]
    assert d31v == tuple(cfg.vec(3, 1).tolist()) and d32v == tuple(cfg.vec(3, 2).tolist())
    assert M.tobytes() == np.stack([cfg.vec(3, 1), cfg.vec(3, 2)]).tobytes()
    assert w12 == rg.cross2(d31v, d32v) and flip == (-1.0, 1.0)
    with pytest.raises(ValueError):
        M[...] = 0.0
    for build in (tdoa._line_constants, tdoa._tangency_table, tdoa._lens_table, tdoa._p2_table):
        value = cfg._constants[build]
        flat = [v for part in value if part is not M
                for v in (part if isinstance(part, tuple) else (part,))]
        assert isinstance(value, tuple) and all(
            isinstance(v, (float, str, tuple)) for v in flat), build.__name__
    ref = weakref.ref(cfg)
    del cfg, regions, d31v, d32v, M, shift, flip, value, flat
    gc.collect()
    assert ref() is None
