"""Three-receiver planar range model: forward, Jacobian, inversion, feasibility."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given

import rangegeom as rg
from rangegeom import kummer

from conftest import away_from_receivers, collinear_triples, sources, triangles
from oracles import numeric_jacobian

_RT = 1e-9


def test_forward_pinned(right):
    T = rg.forward3(right, (0.3, 0.4))
    assert np.allclose(T, [0.5, 0.8062257748298549, 0.6708203932499369], atol=1e-15)


def test_forward_batch(right):
    xs = np.array([[0.3, 0.4], [2.0, -1.0]])
    T = rg.forward3(right, xs)
    assert T.shape == (2, 3)
    assert np.allclose(T[0], rg.forward3(right, xs[0]))


def test_invert_pinned(right):
    sol = rg.invert3(right, (0.5, 0.8062257748298549, 0.6708203932499369))
    assert sol.kind == "One"
    assert np.allclose(sol.points[0], [0.3, 0.4], atol=1e-9)


def test_invert_receiver_image(right):
    sol = rg.invert3(right, (0.0, 1.0, 1.0))
    assert sol.kind == "One"
    assert np.allclose(sol.points[0], [0.0, 0.0], atol=1e-9)


def test_invert_infeasible_empty(right):
    assert rg.invert3(right, (1.0, 1.0, 1.0)).kind == "Empty"
    assert rg.invert3(right, (9.0, 9.0, 9.0)).kind == "Empty"


_MEMO_SHAPES = (
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(-3.0, 2.0), (5.0, 2.5), (1.0, 2.5 + 1e-4)],
    [(1e3, -2e3), (4e3, 1e3), (-5e2, 3e3)],
)


def _memo_queries(receivers, seed):
    """12 range triples of one shape, every second one noisy."""
    pts = np.array(receivers)
    rng = np.random.default_rng(seed)
    xs = pts.mean(axis=0) + rng.normal(size=(12, 2)) * np.ptp(pts)
    return [rng.normal(size=3) * 1e-3 * np.ptp(pts) * (n % 2) + T
            for n, T in enumerate(rg.forward3(rg.validate_config(pts), xs))]


def test_invert3_memo_interleaved_configs_match_fresh_configs():
    queries = [_memo_queries(r, seed) for seed, r in enumerate(_MEMO_SHAPES)]
    fresh = [[[p.tobytes() for p in rg.invert3(rg.validate_config(r), T, rtol=1e-3).points]
              for T in Ts] for r, Ts in zip(_MEMO_SHAPES, queries)]
    assert all(any(points) for points in fresh)
    configs = [rg.validate_config(r) for r in _MEMO_SHAPES]
    for _ in range(2):
        for n in range(len(queries[0])):
            for cfg, Ts, expected in zip(configs, queries, fresh):
                got = [p.tobytes() for p in rg.invert3(cfg, Ts[n], rtol=1e-3).points]
                assert got == expected[n]


@pytest.mark.parametrize("receivers", [_MEMO_SHAPES[1], [(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)]])
def test_config_constants_die_with_their_configuration(receivers):
    cfg = rg.validate_config(receivers)
    x = (0.4, 0.7)
    T = rg.forward3(cfg, x)
    rg.classify3(cfg, T)
    if cfg.is_collinear:
        rg.invert3_collinear(cfg, T)
    else:
        rg.invert3(cfg, T)
    rg.classify_tau(cfg, rg.tau_map(cfg, x))
    rg.abc_from_config(cfg)
    built = {kummer._abc, kummer._node_images}
    if cfg.is_collinear:
        rg.classify_tau(cfg, rg.tau_map(cfg, cfg.m(1)))
        built |= {kummer._collinear_facet_table}
        with pytest.raises(rg.DegenerateConfig):
            rg.nodes_and_tropes(cfg)
        assert kummer._nodes_and_tropes not in cfg._constants
    else:
        nat = rg.nodes_and_tropes(cfg)
        assert rg.nodes_and_tropes(cfg) is nat
        assert rg.tangent_cone(cfg, "f2++").node is nat.node("f2++")
        built |= {kummer._nodes_and_tropes}
        rg.homogeneous_form(cfg)
        for label in rg.ARC_LABELS:
            rg.conic_arc(cfg, label).sample_sources(n=3)
        node = cfg._memo(kummer._node_images)[0]
        rg.hull_boundary_classify(cfg, node + 0.5 * cfg.d_max)  # an ideal edge
        rg.hull_boundary_classify(cfg, rg.conic_arc(cfg, "Gamma3").sample(n=3)[1])
        built |= {kummer._facet_table, kummer._arc_table, kummer._circumcircle}
    assert built <= set(cfg._constants)
    with pytest.raises(ValueError):
        cfg._memo(kummer._node_images)[...] = 0.0
    if not cfg.is_collinear:
        with pytest.raises(ValueError):
            cfg._memo(kummer._circumcircle)[0][...] = 0.0
        for node in nat.nodes:
            with pytest.raises(ValueError):
                node.homogeneous[...] = 0.0
        for trope in nat.tropes:
            with pytest.raises(ValueError):
                trope.affine[...] = 0.0
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None


def test_invert_collinear_raises(collinear_mid):
    with pytest.raises(rg.DegenerateConfig):
        rg.invert3(collinear_mid, (1.0, 1.0, 1.0))


def test_exterior_point_pinned(right):
    ep = rg.exterior_point(right, (0.5, 0.8062258, 0.6708204), i=1)
    assert abs(ep.x - 0.3) <= 1e-6 and abs(ep.y - 0.4) <= 1e-6
    assert abs(ep.t + 0.5) <= 1e-12


def test_exterior_point_reference_independence(right):
    T = rg.forward3(right, (0.3, 0.4))
    pts = [rg.exterior_point(right, T, i=i) for i in (1, 2, 3)]
    for ep, Ti in zip(pts, T):
        assert abs(ep.t + Ti) <= 1e-12  # time component pinned to -T_i
    for ep in pts[1:]:
        assert abs(ep.x - pts[0].x) <= 1e-12
        assert abs(ep.y - pts[0].y) <= 1e-12


def test_exterior_point_receiver_image(right):
    ep = rg.exterior_point(right, (0.0, 1.0, 1.0), i=1)
    assert abs(ep.x) <= 1e-12 and abs(ep.y) <= 1e-12


def test_exterior_point_errors(right, collinear_mid):
    with pytest.raises(rg.DegenerateConfig):
        rg.exterior_point(collinear_mid, (1.0, 1.0, 1.0))
    with pytest.raises(rg.DimensionMismatch):
        rg.exterior_point(right, (1.0, 1.0, 1.0), i=4)


def test_jacobian_rows_unit(right):
    rep = rg.jacobian3(right, (0.3, 0.4))
    assert rep.matrix.shape == (3, 2)
    assert np.allclose(np.linalg.norm(rep.matrix, axis=1), 1.0, atol=1e-12)
    assert rep.rank == 2 and not rep.degenerate


def test_jacobian_rank_one_on_collinear_line(collinear_mid):
    rep = rg.jacobian3(collinear_mid, (2.0, 0.0))
    assert rep.rank == 1 and rep.degenerate
    rep = rg.jacobian3(collinear_mid, (2.0, 0.5))
    assert rep.rank == 2 and not rep.degenerate


def test_jacobian_at_receiver_raises(right):
    with pytest.raises(rg.AtReceiver):
        rg.jacobian3(right, (0.0, 0.0))


def test_classify_feasible(right):
    rep = rg.classify3(right, rg.forward3(right, (0.3, 0.4)))
    assert rep.verdict == "Feasible"
    assert rep.fiber == 1
    assert rep.in_octant
    assert abs(rep.quartic_or_quadric_residual) <= 1e-10


def test_classify_infeasible_reasons(right):
    off = rg.classify3(right, (1.0, 1.0, 1.0))
    assert off.verdict == "Infeasible" and off.fiber == 0
    assert off.reason == "not on range surface"
    neg = rg.classify3(right, (-0.1, 1.0, 1.0))
    assert neg.verdict == "Infeasible" and not neg.in_octant


@given(triangles(), sources())
def test_round_trip(cfg, x):
    assume(away_from_receivers(cfg, x))
    T = rg.forward3(cfg, x)
    sol = rg.invert3(cfg, T)
    assert sol.kind == "One"
    assert np.max(np.abs(sol.points[0] - x)) <= 10 * _RT * cfg.d_max


@given(triangles(), sources())
def test_reference_independence(cfg, x):
    T = rg.forward3(cfg, x)
    pts = [rg.exterior_point(cfg, T, i=i) for i in (1, 2, 3)]
    for ep in pts[1:]:
        assert abs(ep.x - pts[0].x) <= _RT * cfg.d_max
        assert abs(ep.y - pts[0].y) <= _RT * cfg.d_max


@given(triangles(), sources())
def test_jacobian_matches_finite_differences(cfg, x):
    assume(away_from_receivers(cfg, x, margin=1e-2))
    h = 1e-6 * cfg.d_max
    J = rg.jacobian3(cfg, x).matrix
    J_fd = numeric_jacobian(lambda p: rg.forward3(cfg, p), np.asarray(x, float), h)
    assert np.max(np.abs(J - J_fd)) <= 1e-5


@given(triangles(), sources())
def test_transversality(cfg, x):
    assume(away_from_receivers(cfg, x, margin=1e-2))
    x = np.asarray(x, dtype=float)
    pts = [cfg.m(i) for i in (1, 2, 3)]
    # off the receiver lines, where a pair of range circles would be tangent
    for a in range(3):
        for b in range(a + 1, 3):
            u = pts[b] - pts[a]
            u = u / np.linalg.norm(u)
            assume(abs(rg.cross2(u, x - pts[a])) >= 1e-3 * cfg.d_max)
    rep = rg.jacobian3(cfg, x)
    assert rep.rank == 2
    rows = rep.matrix
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(rg.cross2(rows[a], rows[b])) > 1e-9


@given(collinear_triples(), sources())
def test_collinear_mirror_fibers(cfg, x):
    assume(away_from_receivers(cfg, x, margin=1e-2))
    T = rg.forward3(cfg, x)
    sol = rg.invert3_collinear(cfg, T)
    # distance of the source from the receiver line
    i, j, _ = cfg.kind.order
    pts = [np.asarray(p, dtype=float) for p in cfg.receivers]
    u = (pts[j] - pts[i]) / cfg.kind.d21
    offset = abs(rg.cross2(u, np.asarray(x, float) - pts[i]))
    if offset >= 1e-3 * cfg.d_max:
        assert sol.kind == "Two"
        mid = 0.5 * (sol.points[0] + sol.points[1])
        # mirror pair: midpoint on the line, difference normal to it
        assert abs(rg.cross2(u, mid - pts[i])) <= 1e-8 * cfg.d_max
        assert abs(float(u @ (sol.points[0] - sol.points[1]))) <= 1e-8 * cfg.d_max
    elif offset <= 1e-12 * cfg.d_max:
        assert sol.kind == "One"
    for p in sol.points:
        assert np.max(np.abs(rg.forward3(cfg, p) - T)) <= 1e-8 * cfg.d_max


def test_collinear_compatibility_pinned(collinear_mid):
    T = rg.forward3(collinear_mid, (0.3, 0.4))
    assert abs(rg.collinear_quadric_residual(collinear_mid, T)) <= 1e-12
    rep = rg.classify3(collinear_mid, T)
    assert rep.verdict == "Feasible" and rep.fiber == 2


_BIG = 1e155  # finite, but its square overflows a float


@pytest.mark.parametrize("entry", [
    lambda cfg, cfg3d: rg.classify_tau(cfg, (_BIG, -_BIG)),
    lambda cfg, cfg3d: rg.tau_fibers(cfg, np.array([[0.1, 0.2], [_BIG, -_BIG]])),
    lambda cfg, cfg3d: rg.classify3(cfg, (_BIG, _BIG, _BIG)),
    lambda cfg, cfg3d: rg.invert3_collinear(cfg, (_BIG, _BIG, _BIG)),
    lambda cfg, cfg3d: rg.collinear_quadric_residual(cfg, (_BIG, 1.0, 1.0)),
    lambda cfg, cfg3d: rg.invert3d_r3_collinear(cfg3d, (1.0, _BIG, 1.0)),
], ids=["classify_tau", "tau_fibers", "classify3", "invert3_collinear",
        "collinear_quadric_residual", "invert3d_r3_collinear"])
def test_collinear_ranges_whose_squares_overflow_are_invalid(collinear_mid, collinear3d, entry):
    with pytest.raises(rg.InvalidParam):
        entry(collinear_mid, collinear3d)


def test_collinear_inversion_remaps_noisy_triples(collinear_mid, collinear3d):
    """Noisy collinear triples at the matched tolerance: mirror pairs and circles re-map to T.

    The Stewart gate and the endpoint pair alone accept mirror points whose
    middle range misses T by more than rtol * d_max (sources near the middle
    receiver); those must be dropped.
    """
    rng = np.random.default_rng(0)
    sigma, rtol = 1e-4, 1e-3  # rtol = 10 sigma / d_max, as noise_sweep.py matches it
    pairs = 0
    for _ in range(200):
        x = np.array([0.5, 0.0]) + rng.uniform(-0.1, 0.1, size=2)
        T = collinear_mid.distances(x) + rng.normal(0.0, sigma, size=3)
        points = rg.invert3_collinear(collinear_mid, T, rtol=rtol).points
        circle = rg.invert3d_r3_collinear(collinear3d, T, rtol=rtol).circle
        if len(points) == 2:
            pairs += 1
            for p in points:
                assert np.max(np.abs(collinear_mid.distances(p) - T)) <= rtol
        if circle is not None:
            assert np.max(np.abs(collinear3d.distances(circle.point(0.0)) - T)) <= rtol
    assert pairs > 100  # the filter drops the misses, not the fibers


@pytest.mark.parametrize("x", [(0.5, 1e-5), (0.4, 1e-5)])
def test_collinear_boundary_band_keeps_the_line_point(collinear_mid, collinear3d, x):
    """Exact ranges of a source within the Q2 boundary tolerance of the receiver line.

    The endpoint pair is snapped onto the boundary, so the answer is the
    single on-line point, although its middle range misses T by about the
    source's height.
    """
    T = rg.forward3(collinear_mid, x)
    rep = rg.classify3(collinear_mid, T)
    assert rep.verdict == "Feasible" and rep.fiber == 1
    sol = rg.invert3_collinear(collinear_mid, T)
    assert len(sol.points) == 1
    assert np.allclose(sol.points[0], (x[0], 0.0), atol=1e-12)
    sol3 = rg.invert3d_r3_collinear(collinear3d, T)
    assert sol3.circle is None and len(sol3.points) == 1
    assert np.allclose(sol3.points[0], (x[0], 0.0, 0.0), atol=1e-12)
