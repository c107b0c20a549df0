"""The trope table: one set of facet planes and receiver-image nodes per configuration.

The 12 facets of the feasible polyhedron Q3 are the labeled tropes of the
range quartic, the hexagon P2 is the projection of the six ray tropes, and
the conic arcs lie in the same planes.  These tests hold the table to the
paper (self-duality with nodes_and_tropes, which facets meet at each
receiver image) and to the expressions it replaced (tests/oracles.py), bit
for bit, signed zeros included.
"""
import itertools

import numpy as np
import pytest

import rangegeom as rg
from rangegeom import kummer, surface, tdoa

from oracles import (
    gamma_quadratics,
    p2_slacks,
    q3_residuals_collinear,
    q3_residuals_general,
)

_SCALENE = [(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)]
_SHAPES = {
    "right": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "scalene": _SCALENE,
    "scalene_rescaled_shifted": [(7.3 * x - 3.1, 7.3 * y + 11.2) for x, y in _SCALENE],
}
# collinear receivers, none of them listed in canonical order
_COLLINEAR = [
    [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)],
    [(1.0, 0.0), (0.0, 0.0), (0.35, 0.0)],
    [(0.5, 0.0), (1.0, 0.0), (0.0, 0.0)],
    [(0.5, 0.5), (0.1, 0.2), (0.9, 0.8)],
    [(0.0, 2.0), (0.0, -1.5), (0.0, 0.25)],
]


def _random_triangles(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        pts = rng.uniform(-4.0, 4.0, size=(3, 2))
        cfg = rg.validate_config(pts)
        v, w = pts[1] - pts[0], pts[2] - pts[0]
        if abs(rg.cross2(v, w)) >= 0.05 * cfg.d_max ** 2:
            out.append(pts.tolist())
    return out


_GENERAL = list(_SHAPES.values()) + _random_triangles(12, seed=2024)


def _triples(cfg, rng) -> np.ndarray:
    """Range triples that reach every branch of a slack: signed zeros, the
    receiver-image nodes and their coordinates, forward3 images (of the
    receivers too) and random triples, some of them negative."""
    d = cfg.d_max
    nodes = cfg._memo(kummer._node_images)
    values = (0.0, -0.0, cfg.d21, cfg.d31, -cfg.d32)
    special = list(itertools.product(values, repeat=3))
    sources = np.concatenate([np.stack(cfg.receivers), rng.uniform(-2 * d, 3 * d, (40, 2))])
    images = np.stack([rg.forward3(cfg, x) for x in sources])
    random = rng.uniform(-0.5 * d, 3.0 * d, size=(40, 3))
    return np.concatenate([np.array(special), nodes, images, random])


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


# ---------------------------------------------------------------------------
# bit identity with the expressions the table replaced

@pytest.mark.parametrize("receivers", _GENERAL)
def test_general_slacks_match_the_written_out_expressions_bit_for_bit(receivers):
    cfg = rg.validate_config(receivers)
    rng = np.random.default_rng(11)
    Ts = _triples(cfg, rng)
    for T in Ts.tolist():
        want = q3_residuals_general(cfg, *T)
        got = kummer._q3_residuals_general(cfg, *T)
        assert list(got) == list(want) == list(rg.Q3_FACETS)
        assert _same_bits(list(got.values()), list(want.values())), T
        assert _same_bits(list(rg.q3_membership(cfg, T).residuals.values()),
                          list(want.values())), T

    # the hexagon: the ray rows' single exact product
    taus = np.concatenate([Ts[:, :2] - Ts[:, 2:], rng.uniform(-1.3, 1.3, (60, 2)) * cfg.d_max,
                           [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]])
    names, slack = tdoa._p2_slacks(cfg, taus)
    assert names == tdoa.P2_FACETS
    assert _same_bits(slack, p2_slacks(cfg, taus))

    # hull_boundary_classify's circumcircle-fill quadratics, through the arc table
    arcs = cfg._memo(surface._arc_table)
    for T in Ts:
        want = gamma_quadratics(cfg, float(T[0]), float(T[1]))
        for name, value in want.items():
            assert _same_bits(kummer._poly_eval(arcs[name]["quadratic"], T), value), (name, T)


@pytest.mark.parametrize("receivers", _COLLINEAR)
def test_collinear_slacks_match_the_written_out_expressions_bit_for_bit(receivers):
    cfg = rg.validate_config(receivers)
    assert cfg.is_collinear and cfg.kind.order != (0, 1, 2)
    order = list(cfg.kind.order)
    rng = np.random.default_rng(12)
    Ts = _triples(cfg, rng)
    # the array kernel behind classify_tau's collinear rows
    want = q3_residuals_collinear(cfg.kind, Ts[:, order])
    got = kummer._slacks([np.transpose(cfg._memo(kummer._collinear_facet_table))],
                         *Ts[:, order].T[:, :, None])[0]
    assert _same_bits(got, np.stack(list(want.values()), axis=1))
    # the scalar q3_membership
    for T in Ts:
        want = q3_residuals_collinear(cfg.kind, T[order])
        got = rg.q3_membership(cfg, T).residuals
        assert list(got) == list(want) == list(rg.Q3_FACETS_COLLINEAR)
        assert _same_bits(list(got.values()), [float(v) for v in want.values()]), T
    # the hexagon before the collinear drop
    taus = np.concatenate([Ts[:, :2] - Ts[:, 2:], [[0.0, -0.0], [-0.0, -0.0]]])
    names, slack = tdoa._p2_slacks(cfg, taus)
    keep = [tdoa.P2_FACETS.index(name) for name in names]
    assert len(keep) == 4
    assert _same_bits(slack, p2_slacks(cfg, taus)[:, keep])


# ---------------------------------------------------------------------------
# the paper: self-duality, the receiver-image nodes, the arcs

@pytest.mark.parametrize("shape", list(_SHAPES))
def test_each_facet_row_is_its_trope_plane_up_to_scale(shape):
    cfg = rg.validate_config(_SHAPES[shape])
    rows = dict(zip(rg.Q3_FACETS, cfg._memo(kummer._facet_table)))
    labelled = [t for t in rg.nodes_and_tropes(cfg).tropes if t.label is not None]
    assert sorted(t.label for t in labelled) == sorted(rg.Q3_FACETS)
    for trope in labelled:
        row, plane = np.array(rows[trope.label]), trope.affine
        k = int(np.argmax(np.abs(plane)))
        scale = row[k] / plane[k]
        assert scale != 0.0
        assert np.max(np.abs(row - scale * plane)) <= 1e-12 * np.max(np.abs(row)), trope.label


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_each_receiver_image_lies_on_exactly_six_facets(shape):
    cfg = rg.validate_config(_SHAPES[shape])
    nodes = cfg._memo(kummer._node_images)
    assert nodes.tolist() == [[0.0, cfg.d21, cfg.d31], [cfg.d21, 0.0, cfg.d32],
                              [cfg.d31, cfg.d32, 0.0]]
    on = []
    for node in nodes.tolist():
        slacks = kummer._q3_residuals_general(cfg, *node)
        zero = {name for name, v in slacks.items() if v == 0.0}
        assert len(zero) == 6
        assert all(v > 0.0 for name, v in slacks.items() if name not in zero)
        on.append(zero)
    assert on[0] == {"r30", "r3+", "r20", "r2+", "Gamma3", "Gamma2"}
    assert on[1] == {"r30", "r3-", "r10", "r1+", "Gamma3", "Gamma1"}
    assert on[2] == {"r20", "r2-", "r10", "r1-", "Gamma2", "Gamma1"}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_forward_images_lie_on_the_feasible_side_of_every_arc_plane(shape):
    cfg = rg.validate_config(_SHAPES[shape])
    rng = np.random.default_rng(5)
    # random sources, the receivers and the preimages of the arcs themselves
    xs = np.concatenate(
        [cfg.m(1) + rng.uniform(-2.0, 3.0, size=(400, 2)) * cfg.d_max, np.stack(cfg.receivers)]
        + [rg.conic_arc(cfg, label).sample_sources(n=33) for label in rg.ARC_LABELS])
    T = np.stack([rg.forward3(cfg, x) for x in xs])
    for label in rg.ARC_LABELS:
        plane = rg.conic_arc(cfg, label).plane
        value = plane[0] + T @ plane[1:]
        assert np.min(value) >= -1e-12 * cfg.d_max, label
        assert np.sum(np.abs(value) <= 1e-12 * cfg.d_max) >= 33, label


def test_arc_fields_are_read_only_and_shared_per_configuration(scalene):
    arc = rg.conic_arc(scalene, "Gamma2")
    with pytest.raises(TypeError):
        arc.quadratic[(0, 0, 0)] = 0.0
    for arr in (arc.plane, *arc.endpoints):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    with pytest.raises(ValueError):
        rg.conic_arc(scalene, "r1+").direction[...] = 0.0
    again = rg.conic_arc(scalene, "Gamma2")
    assert dict(again.quadratic) == dict(arc.quadratic)
    assert again.quadratic[(1, 1, 0)] == -2 * rg.abc_from_config(scalene)[0]
    assert again.plane.tolist() == [-0.0, scalene.d32, -scalene.d31, scalene.d21]
    assert np.signbit(again.plane[0])
