"""Quartic surface geometry: residuals, nodes, tropes, arcs, curvature, hull."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

import rangegeom as rg

from conftest import away_from_receivers, sources, triangles
from oracles import (
    degeneration_gap_by_squared_terms,
    homogeneous_evaluate,
    homogeneous_gradient,
    homogeneous_hessian,
    hull_fill,
    poly_eval_per_term,
)

_RT = 1e-9

# receiver sets for the checks against the written-out formulas in oracles.py
_SHAPES = {
    "right": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "scalene": [(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)],
    "obtuse": [(0.0, 0.0), (1.0, 0.0), (1.4, 0.5)],
    "thin": [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-2)],
}


# ---------------------------------------------------------------------------
# quartic residual

def test_quartic_exact_value_unit_right_triangle(right):
    assert rg.quartic_residual(right, (1.0, 1.0, 1.0)) == -2.0


def test_quartic_zero_on_image(right):
    T = rg.forward3(right, (0.3, 0.4))
    assert abs(rg.quartic_residual(right, T, normalized=True)) <= 1e-12


def test_quartic_batch(right):
    Ts = np.array([[1.0, 1.0, 1.0], [0.5, 0.8062257748298549, 0.6708203932499369]])
    vals = rg.quartic_residual(right, Ts)
    assert vals.shape == (2,)
    assert vals[0] == -2.0 and abs(vals[1]) <= 1e-12


def test_quartic_normalization_scale_invariance(right):
    big = rg.validate_config([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)])
    r_small = rg.quartic_residual(right, (1.0, 1.0, 1.0), normalized=True)
    r_big = rg.quartic_residual(big, (100.0, 100.0, 100.0), normalized=True)
    assert abs(r_small - r_big) <= 1e-12


@given(triangles(), sources())
def test_quartic_membership_property(cfg, x):
    T = rg.forward3(cfg, x)
    assert abs(rg.quartic_residual(cfg, T, normalized=True)) <= 1e-10


@given(triangles())
def test_quartic_even_symmetry(cfg):
    T = np.array([0.4, 1.1, 0.9]) * cfg.d_max
    base = rg.quartic_residual(cfg, T, normalized=True)
    for signs in ((-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)):
        assert abs(rg.quartic_residual(cfg, T * signs, normalized=True) - base) <= 1e-12


def _triangle_and_triples(height, scale, seed):
    """A turned, shifted triangle of the given height over a unit baseline
    (times scale), with 40 exact and 40 noisy range triples of it."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    pts = (np.array([[0.0, 0.0], [1.0, 0.0], [rng.uniform(-0.5, 1.5), height]]) @ rot.T
           + rng.normal(size=2)) * scale
    cfg = rg.validate_config(pts)
    xs = pts.mean(axis=0) + rng.normal(size=(80, 2)) * 2.0 * scale
    T = rg.forward3(cfg, xs)
    T[40:] += rng.normal(size=(40, 3)) * scale * 10.0 ** rng.uniform(-9.0, -1.0, size=(40, 1))
    return cfg, pts, T


@pytest.mark.parametrize("height", [1.0, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_quartic_residual_bit_exact_against_per_term_loop(height, scale):
    cfg, _, T = _triangle_and_triples(height, scale, seed=int(-math.log10(height)) * 7 + 3)
    assert not cfg.is_collinear
    terms = dict(rg.kummer._quartic_terms(cfg))
    norm = cfg.d_max ** 6
    for t in T:
        ref = poly_eval_per_term(terms, t)
        assert rg.quartic_residual(cfg, t) == float(ref)
        assert rg.quartic_residual(cfg, t, normalized=True) == float(ref / norm)
    ref = poly_eval_per_term(terms, T)
    assert np.array_equal(rg.quartic_residual(cfg, T), ref)
    assert np.array_equal(rg.quartic_residual(cfg, T, normalized=True), ref / norm)
    assert np.array_equal(rg.quartic_residual(cfg, T.reshape(8, 10, 3)), ref.reshape(8, 10))


@pytest.mark.parametrize("height", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_classify3d_quartic_bit_exact_against_per_term_loop(height, scale):
    _, pts, _ = _triangle_and_triples(height, scale, seed=11)
    cfg = rg.validate_config(np.c_[pts, np.array([0.0, 0.1, 0.25]) * scale])
    terms = dict(rg.kummer._quartic_terms(cfg))
    rng = np.random.default_rng(5)
    xs = np.append(pts.mean(axis=0), 0.0) + rng.normal(size=(60, 3)) * scale
    T = rg.forward3d(cfg, xs)
    T[30:] += rng.normal(size=(30, 3)) * 1e-4 * scale
    for t in T:
        assert rg.classify3d_r3(cfg, t).quartic == float(poly_eval_per_term(terms, t))


def test_quartic_terms_are_read_only(scalene):
    terms = rg.kummer._quartic_terms(scalene)
    with pytest.raises(TypeError):
        terms[(0, 0, 0)] = 0.0


# ---------------------------------------------------------------------------
# homogeneous rescaled form

def test_homogeneous_form_matches_affine(scalene):
    form = rg.homogeneous_form(scalene)
    T = np.array([0.9, 1.2, 0.7])
    t = form.embed(T)
    assert t.shape == (4,) and t[0] == 1.0
    assert abs(form.kappa * form.evaluate(t) - rg.quartic_residual(scalene, T)) <= 1e-10


def test_homogeneous_form_abc_pinned(right):
    a, b, c = rg.homogeneous_form(right).abc
    assert abs(a - math.sqrt(0.5)) <= 1e-15
    assert abs(b + math.sqrt(0.5)) <= 1e-15
    assert abs(c) <= 1e-15


def test_homogeneous_gradient_matches_finite_differences(scalene):
    form = rg.homogeneous_form(scalene)
    t = np.array([1.0, 0.7, 1.1, 0.4])
    g = form.gradient(t)
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (form.evaluate(t + e) - form.evaluate(t - e)) / (2 * h)
        assert abs(g[k] - fd) <= 1e-6


def test_homogeneous_hessian_symmetric(scalene):
    H = rg.homogeneous_form(scalene).hessian(np.array([1.0, 0.7, 1.1, 0.4]))
    assert H.shape == (4, 4)
    assert np.max(np.abs(H - H.T)) <= 1e-12


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_homogeneous_form_matches_the_written_out_cross_terms(shape):
    cfg = rg.validate_config(_SHAPES[shape])
    form = rg.homogeneous_form(cfg)
    rng = np.random.default_rng(3)
    probes = list(rng.uniform(-2.0, 2.0, size=(64, 4)))
    probes += [n.homogeneous for n in rg.nodes_and_tropes(cfg).nodes]
    # one scale per function, the largest |old value| over all probes: at the
    # nodes F and its gradient vanish, so their own values are rounding noise
    for method, reference in ((form.evaluate, homogeneous_evaluate),
                              (form.gradient, homogeneous_gradient),
                              (form.hessian, homogeneous_hessian)):
        new = np.array([method(t) for t in probes])
        old = np.array([reference(form.abc, t) for t in probes])
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old)), method.__name__
    batch = np.stack(probes)
    for method, reference in ((form.evaluate, homogeneous_evaluate),
                              (form.gradient, homogeneous_gradient)):
        old = reference(form.abc, batch)
        assert method(batch).shape == old.shape
        assert np.max(np.abs(method(batch) - old)) <= 1e-12 * np.max(np.abs(old))


# ---------------------------------------------------------------------------
# nodes and tropes

@pytest.fixture(scope="module", params=["right", "scalene"])
def cfg_nt(request):
    table = {
        "right": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        "scalene": [(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)],
    }
    cfg = rg.validate_config(table[request.param])
    return cfg, rg.nodes_and_tropes(cfg)


def test_sixteen_nodes_and_tropes(cfg_nt):
    _, nt = cfg_nt
    assert len(nt.nodes) == 16 and len(nt.tropes) == 16
    assert len({n.label for n in nt.nodes}) == 16
    labeled = [t.label for t in nt.tropes if t.label is not None]
    # the 12 arc-tropes are labeled; the 4 coordinate planes are anonymous
    assert sorted(labeled) == sorted(rg.ARC_LABELS)


def test_nodes_are_singular_points(cfg_nt):
    cfg, nt = cfg_nt
    form = rg.homogeneous_form(cfg)
    for node in nt.nodes:
        assert abs(form.evaluate(node.homogeneous)) <= 1e-9
        assert np.max(np.abs(form.gradient(node.homogeneous))) <= 1e-9


def test_receiver_image_nodes(cfg_nt):
    cfg, nt = cfg_nt
    recv = {n.receiver: n for n in nt.nodes if n.kind == "receiver"}
    assert set(recv) == {1, 2, 3}
    assert np.allclose(recv[1].affine, [0.0, cfg.d21, cfg.d31], atol=1e-12)
    assert np.allclose(recv[2].affine, [cfg.d21, 0.0, cfg.d32], atol=1e-12)
    assert np.allclose(recv[3].affine, [cfg.d31, cfg.d32, 0.0], atol=1e-12)


def test_trope_node_incidence(cfg_nt):
    _, nt = cfg_nt
    for trope in nt.tropes:
        plane = trope.homogeneous / np.linalg.norm(trope.homogeneous)
        touching = sum(
            1 for n in nt.nodes
            if abs(float(plane @ (n.homogeneous / np.linalg.norm(n.homogeneous)))) <= 1e-9
        )
        assert touching == 6


def test_node_trope_lookup_errors(right):
    nt = rg.nodes_and_tropes(right)
    with pytest.raises(rg.UnknownLabel):
        nt.node("bogus")
    with pytest.raises(rg.UnknownLabel):
        nt.trope("bogus")


def test_nodes_and_tropes_requires_general(collinear_mid):
    with pytest.raises(rg.DegenerateConfig):
        rg.nodes_and_tropes(collinear_mid)


# ---------------------------------------------------------------------------
# tangent cones

def test_tangent_cone_inputs(right):
    nt = rg.nodes_and_tropes(right)
    node = next(n for n in nt.nodes if n.kind == "receiver" and n.receiver == 1)
    by_node = rg.tangent_cone(right, node)
    by_label = rg.tangent_cone(right, node.label)
    by_affine = rg.tangent_cone(right, node.affine)
    by_homog = rg.tangent_cone(right, node.homogeneous)
    for tc in (by_label, by_affine, by_homog):
        assert tc.node.label == by_node.node.label
    with pytest.raises(rg.NotANode):
        rg.tangent_cone(right, (0.3, 0.3, 0.3))
    with pytest.raises(rg.NotANode):
        rg.tangent_cone(right, "nope")


def test_tangent_cone_second_order_model(right):
    # near a node the quartic is dominated by its quadratic tangent cone
    nt = rg.nodes_and_tropes(right)
    node = next(n for n in nt.nodes if n.kind == "receiver" and n.receiver == 3)
    tc = rg.tangent_cone(right, node)
    form = tc.form
    t0 = node.homogeneous / node.homogeneous[0]  # affine chart representative
    H0 = form.hessian(t0)
    # the stored cone matrix is the node Hessian up to positive normalization
    assert np.max(np.abs(tc.matrix - H0 / np.max(np.abs(H0)))) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(6):
        v = rng.normal(size=4)
        v[0] = 0.0
        v /= np.linalg.norm(v)
        eps = 1e-4
        quartic_val = form.evaluate(t0 + eps * v)
        quad = 0.5 * eps * eps * float(v @ H0 @ v)
        assert abs(quartic_val - quad) <= 1e-3 * eps * eps * np.max(np.abs(H0))


def test_tangent_cone_evaluate_affine(right):
    nt = rg.nodes_and_tropes(right)
    node = next(n for n in nt.nodes if n.kind == "receiver" and n.receiver == 1)
    tc = rg.tangent_cone(right, node)
    assert abs(tc.evaluate_affine(node.affine)) <= 1e-12


# ---------------------------------------------------------------------------
# conic arcs

def test_arc_labels_complete(right):
    assert len(rg.ARC_LABELS) == 12
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(right, label)
        assert arc.label == label
    with pytest.raises(rg.UnknownLabel):
        rg.conic_arc(right, "r4+")


def test_arc_boundedness(right):
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(right, label)
        if label.endswith("+") or label.endswith("-"):
            assert not arc.bounded
        else:
            assert arc.bounded


def test_arc_samples_on_plane_and_surface(scalene):
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(scalene, label)
        T = arc.sample(n=16)
        plane_res = arc.plane[0] + T @ arc.plane[1:]
        assert np.max(np.abs(plane_res)) <= 1e-8 * scalene.d_max
        quartic = np.abs(rg.quartic_residual(scalene, T, normalized=True))
        assert np.max(quartic) <= 1e-9


def test_arc_source_samples_map_onto_arc(right):
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(right, label)
        xs = arc.sample_sources(n=12, extent=2.0)
        T = right.distances(xs)
        plane_res = arc.plane[0] + T @ arc.plane[1:]
        assert np.max(np.abs(plane_res)) <= 1e-8 * right.d_max


def test_arc_tangency_to_surface(scalene):
    # each trope touches the quartic along its conic: the surface gradient is
    # parallel to the trope covector at arc points (away from the endpoint
    # nodes, where the gradient vanishes)
    form = rg.homogeneous_form(scalene)
    nt = rg.nodes_and_tropes(scalene)
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(scalene, label)
        P = nt.trope(label).homogeneous
        P = P / np.linalg.norm(P)
        for T in arc.sample(n=9)[2:-2]:
            g = form.gradient(form.embed(T))
            gn = float(np.linalg.norm(g))
            assert gn > 1e-12
            assert abs(float(g @ P)) / gn >= 1.0 - 1e-7


# ---------------------------------------------------------------------------
# Q3 polyhedron

def test_q3_names_and_interior(right):
    rep = rg.q3_membership(right, rg.forward3(right, (0.3, 0.4)))
    assert set(rep.residuals) == set(rg.Q3_FACETS)
    assert rep.verdict == "Interior"
    assert all(v > 0 for v in rep.residuals.values())


def test_q3_gamma3_slack_pinned(right):
    rep = rg.q3_membership(right, (0.5, 0.8062258, 0.6708204))
    assert abs(rep.residuals["Gamma3"] - 0.8425121811865476) <= 1e-15


def test_q3_outside_and_onfacet(right):
    assert rg.q3_membership(right, (5.0, 1.0, 1.0)).verdict == "Outside"
    on = rg.q3_membership(right, (0.0, 1.0, 1.0))  # receiver-1 image node
    assert on.verdict == "OnFacet"
    assert "r30" in on.active


def test_q3_collinear_reduces_to_four(collinear_mid):
    rep = rg.q3_membership(collinear_mid, (0.5, 0.5, 0.25))
    assert set(rep.residuals) == set(rg.Q3_FACETS_COLLINEAR)


@given(triangles(), sources())
def test_q3_contains_image(cfg, x):
    rep = rg.q3_membership(cfg, rg.forward3(cfg, x))
    assert rep.verdict in ("Interior", "OnFacet")
    assert min(rep.residuals.values()) >= -1e-12 * cfg.d_max ** 2


# ---------------------------------------------------------------------------
# curvature

def test_curvature_positive_in_triangle(right):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.02, 0.96, size=(200, 2))
    pts = pts[pts.sum(axis=1) < 0.97]
    K = rg.gaussian_curvature(right, pts)
    assert np.all(K > 0)


def test_curvature_zero_on_receiver_lines_and_circumcircle(right):
    line_pts = np.array([[0.3, 0.0], [1.7, 0.0], [0.0, 0.45], [0.0, -2.0], [0.6, 0.4]])
    K = rg.gaussian_curvature(right, line_pts)
    assert np.max(np.abs(K) * right.d_max ** 2) <= 1e-9
    center, rad = np.array([0.5, 0.5]), math.sqrt(0.5)
    ang = np.linspace(0.1, 2 * math.pi, 7)
    circ = center + rad * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    K = rg.gaussian_curvature(right, circ)
    assert np.max(np.abs(K) * right.d_max ** 2) <= 1e-9


def test_curvature_sign_flips(right):
    # crossing the segment line r3: pocket (+) -> lune (-)
    assert rg.gaussian_curvature(right, np.array([[0.4, 0.05]]))[0] > 0
    assert rg.gaussian_curvature(right, np.array([[0.4, -0.05]]))[0] < 0
    # crossing the circumcircle: lune (-) -> fan (+)
    assert rg.gaussian_curvature(right, np.array([[0.4, -0.1]]))[0] < 0
    assert rg.gaussian_curvature(right, np.array([[0.4, -0.45]]))[0] > 0


def test_curvature_nan_at_receiver(right):
    assert math.isnan(rg.gaussian_curvature(right, np.array([[0.0, 0.0]]))[0])


def test_curvature_far_field_bounded(right):
    radii = 3.0 * 2.0 ** np.arange(10)
    ray = np.stack([radii * math.cos(0.7), radii * math.sin(0.7)], axis=1)
    K = rg.gaussian_curvature(right, ray)
    d1 = np.linalg.norm(ray, axis=1)
    prod = np.abs(K) * d1 ** 2
    assert np.all(np.isfinite(prod))
    assert np.max(prod) <= 10.0 * prod[0]


def test_curvature_collinear_raises(collinear_mid):
    with pytest.raises(rg.DegenerateConfig):
        rg.gaussian_curvature(collinear_mid, np.array([[0.3, 0.4]]))


# ---------------------------------------------------------------------------
# hull boundary

def test_hull_positive_regions(right):
    assert rg.hull_boundary_classify(right, rg.forward3(right, (0.25, 0.25))).name == "V0"
    assert rg.hull_boundary_classify(right, rg.forward3(right, (4.0, 3.0))).name == "V1"
    assert rg.hull_boundary_classify(right, rg.forward3(right, (-2.0, 0.4))).name == "V2"
    assert rg.hull_boundary_classify(right, rg.forward3(right, (0.4, -2.0))).name == "V3"


def test_hull_negative_regions_not_on_boundary(right):
    for x in ((-0.3, -0.3), (0.7, 0.7)):
        with pytest.raises(rg.NotOnBoundary):
            rg.hull_boundary_classify(right, rg.forward3(right, x))


def test_hull_fills_and_strips(right):
    T_g = 0.5 * (rg.forward3(right, (0.3, 0.0)) + rg.forward3(right, (0.7, 0.0)))
    assert rg.hull_boundary_classify(right, T_g).name == "G_312"
    arc = rg.conic_arc(right, "Gamma3")
    xs = arc.sample_sources(n=7, extent=1.0)
    T_f = 0.5 * (rg.forward3(right, xs[2]) + rg.forward3(right, xs[4]))
    assert rg.hull_boundary_classify(right, T_f).name == "F_312"
    T_l = rg.forward3(right, (1.7, 0.0)) + 2.0
    assert rg.hull_boundary_classify(right, T_l).name == "L3-"


_FILL_OF_ARC = {
    "Gamma1": "F_123", "Gamma2": "F_213", "Gamma3": "F_312",
    "r10": "G_123", "r20": "G_213", "r30": "G_312",
    "r1+": "L1+", "r1-": "L1-", "r2+": "L2+", "r2-": "L2-", "r3+": "L3+", "r3-": "L3-",
}


def _fill_probes(cfg):
    """(arc label, inside?, T) on each arc's facet plane.

    Inside points are midpoints of two arc samples off the endpoint nodes, so
    strictly inside the (convex) fill.  Beyond points continue the ray from
    the mean of those midpoints through each arc sample past the conic.
    """
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(cfg, label)
        P = cfg.distances(arc.sample_sources(n=9, extent=2.0))[1:-1 if arc.bounded else None]
        inside = [(P[i] + P[j]) / 2 for i in range(len(P)) for j in range(i + 1, len(P))]
        centre = np.mean(inside, axis=0)
        yield from ((label, True, T) for T in inside)
        yield from ((label, False, p + s * (p - centre)) for p in P for s in (0.05, 0.5))


@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_hull_fills_match_the_written_out_fill_tests(shape, rtol):
    cfg = rg.validate_config(_SHAPES[shape])
    beyond_on_facet = 0
    for label, inside, T in _fill_probes(cfg):
        # points on the quartic are step 2's (V regions), not a fill's; on the
        # thin triangle that takes most of the Gamma1, Gamma2, r10 and r20 fills
        if abs(rg.quartic_residual(cfg, T, normalized=True)) <= 1e-9:
            continue
        want = hull_fill(cfg, T, rtol)
        try:
            got = rg.hull_boundary_classify(cfg, T, rtol=rtol).name
        except rg.NotOnBoundary:
            got = None
        assert got == want, (label, inside, T.tolist())
        if inside:
            assert want == _FILL_OF_ARC[label], (label, T.tolist())
        else:
            q3 = rg.q3_membership(cfg, T, rtol=rtol)
            beyond_on_facet += q3.verdict == "OnFacet" and label in q3.active
    assert beyond_on_facet >= 10  # beyond points that only the fill test turns away


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_each_arc_quadratic_is_negative_on_its_fill_side(shape):
    cfg = rg.validate_config(_SHAPES[shape])
    for label in rg.ARC_LABELS:
        arc = rg.conic_arc(cfg, label)
        if arc.bounded:
            inner = 0.5 * (arc.endpoints[0] + arc.endpoints[1])
        else:
            inner = arc.endpoints[0] + cfg.d_max * arc.direction
        assert rg.kummer._poly_eval(arc.quadratic, inner) < 0.0, label


def test_hull_ideal_edges(right):
    comp = rg.hull_boundary_classify(right, np.array([2.0, 3.0, 3.0]))
    assert comp.name == "UnboundedEdge1" and not comp.in_hull
    comp = rg.hull_boundary_classify(right, np.array([1.0, 0.0, math.sqrt(2.0)]))
    assert comp.name == "UnboundedEdge2" and comp.details["parameter"] == 0.0


def test_hull_interior_and_outside_raise(right):
    with pytest.raises(rg.NotOnBoundary):
        rg.hull_boundary_classify(right, rg.forward3(right, (0.25, 0.25)) + 5.0)
    with pytest.raises(rg.NotOnBoundary):
        rg.hull_boundary_classify(right, (5.0, 1.0, 1.0))


def test_hull_component_names_constant():
    assert len(rg.HULL_COMPONENTS) == 16
    assert set(c for c in rg.HULL_COMPONENTS if c.startswith("V")) == {"V0", "V1", "V2", "V3"}


# ---------------------------------------------------------------------------
# collinear degeneration

def test_degeneration_exactly_collinear(collinear_mid):
    assert rg.collinear_degeneration_check(collinear_mid) <= 1e-12


def test_degeneration_nearly_collinear():
    near = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)])
    assert rg.collinear_degeneration_check(near) <= 1e-8


def test_degeneration_far_from_collinear(equilateral):
    with pytest.raises(rg.NotCollinear):
        rg.collinear_degeneration_check(equilateral)
    obtuse = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)])
    assert rg.collinear_degeneration_check(obtuse) > 1e-3


@pytest.mark.parametrize("receivers", [
    [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)],
    [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)],
    [(3.0, 1.0), (-1.0, 2.0), (1.4, 1.4)],
    [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)],
    [(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)],
])
def test_degeneration_gap_matches_the_squared_stewart_terms(receivers):
    cfg = rg.validate_config(receivers)
    for seed in (0, 1):
        old, scale = degeneration_gap_by_squared_terms(cfg, n=256, seed=seed)
        assert abs(rg.collinear_degeneration_check(cfg, n=256, seed=seed) - old) <= 1e-12 * scale
