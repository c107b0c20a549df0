"""A fresh configuration, held bit for bit to the builders it replaced.

validate_config computes the pairwise geometry once (sides, dot products,
distances) and every config-only builder reads it from the configuration.
Each value is compared with the old code kept verbatim in tests/oracles.py,
which re-derives everything from the receivers through config.vec and
config.m: validate_config's kind, order, rho, distances and receivers, and
every memo of the fresh path.  The sweep covers scales 1e-3 to 1e3, thin
triangles down to 2*area/d_max^2 ~ 1e-9, collinear triples in all six input
orders, receivers in the plane and in space, and pairs.
"""
import itertools
import math

import numpy as np
import pytest

import rangegeom as rg
from rangegeom import kummer, tdoa, toa3, toa3d
from rangegeom.spacetime import _cross3

from oracles import (
    circle_frame_by_arrays,
    config_values_by_points,
    facet_table_by_distances,
    line_constants_by_receivers,
    lens_table_by_arrays,
    node_images_by_distances,
    p2_table_by_facet_rows,
    quartic_terms_by_vectors,
    reference_system_3d_by_cond,
    reference_system_by_cond,
    tangency_table_by_vectors,
)
from test_float_path import _bits

_SCALES = (1e-3, 1.0, 1e3)
# heights of the third receiver over a unit baseline: 2*area/d_max^2 down to ~1e-9
_HEIGHTS = (1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-8, 1.5e-9)
_COLLINEAR = ([(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)], [(0.1, 0.2), (0.5, 0.5), (0.9, 0.8)],
              [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)])


def _rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _receiver_sets(scale: float) -> list:
    """Seeded receiver sets: triangles, thin triangles, collinear triples, pairs; each scaled,
    and each also turned and shifted in the plane and in space."""
    rng = np.random.default_rng(31)
    shapes = [np.array([[0.0, 0.0], [1.0, 0.0], [rng.uniform(-0.4, 1.4), h]])
              for h in _HEIGHTS for _ in range(3)]
    shapes += [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(12)]
    shapes += [np.array(p) for pts in _COLLINEAR for p in itertools.permutations(pts)]
    shapes += [rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(4)]
    out = []
    for pts in shapes:
        out.append(pts * scale)
        out.append((pts @ _rotation(rng, 2).T + rng.uniform(-3.0, 3.0, 2)) * scale)
        spatial = np.c_[pts, np.zeros(len(pts))] @ _rotation(rng, 3).T
        out.append((spatial + rng.uniform(-3.0, 3.0, 3)) * scale)
    return out


# the builders whose constants are those of the unit geometry: the receivers times 2^-k
_UNIT_BUILDERS = (kummer._quartic_terms, toa3._reference_system, tdoa._line_constants)


def _memo_values(cfg) -> list:
    """(name, memo value, old builder's value) of every memo a fresh query of cfg can build;
    the unit geometry's builders are held to the old ones on the receivers times 2^-k."""
    if cfg.n == 2:
        return []
    pairs = []
    if not cfg.is_collinear:
        pairs.append((kummer._quartic_terms, quartic_terms_by_vectors))
    if cfg.dimension == 3:
        pairs += [] if cfg.is_collinear else [(toa3._reference_system, reference_system_3d_by_cond)]
    else:
        pairs += [(kummer._facet_table, facet_table_by_distances),
                  (kummer._node_images, node_images_by_distances),
                  (tdoa._p2_table, p2_table_by_facet_rows)]
        if not cfg.is_collinear:
            pairs += [(toa3._reference_system, reference_system_by_cond),
                      (tdoa._line_constants, line_constants_by_receivers),
                      (tdoa._tangency_table, tangency_table_by_vectors),
                      (tdoa._lens_table, lens_table_by_arrays)]
    unit = rg.validate_config(np.ldexp(cfg._receiver_stack, -cfg._k))
    out = []
    for build, old in pairs:
        value = cfg._memo(build)
        want = old(unit if build in _UNIT_BUILDERS else cfg)
        if build is kummer._quartic_terms:
            value = dict(value)
        if build is toa3._reference_system and cfg.dimension == 2:
            assert value[6:] == (None, None)  # no frame in the plane
            value = value[:6]
        if build in _FLOAT_TABLES:
            want = _FLOAT_TABLES[build](want)
        if build is tdoa._p2_table:  # the ray rows, whose c3 drops out on the lift
            names, rows = value
            assert all(c1 + c2 + c3 == 0.0 for _, c1, c2, c3 in rows)
            rows = np.array(rows)
            value = names, rows[:, 1:3].T, rows[:, 0]
        out.append((build.__name__, value, want))
    return out


def _pairs(a: np.ndarray) -> tuple:
    return tuple(map(tuple, a.tolist()))


# the TDOA tables the old builders gave as arrays, now tuples of floats: the old values in the
# new form (the read-only M of _line_constants stays an array)
_FLOAT_TABLES = {
    tdoa._line_constants: lambda old: (tuple(old[0].tolist()), tuple(old[1].tolist()), old[2],
                                       tuple(old[3].tolist()), old[4], tuple(old[5].tolist())),
    tdoa._tangency_table: _pairs,
    tdoa._lens_table: lambda old: _pairs(np.stack(old, axis=1)),
}


def test_the_sweep_covers_every_shape():
    configs = [rg.validate_config(p) for p in _receiver_sets(1.0)]
    kinds = {(c.dimension, type(c.kind).__name__) for c in configs}
    assert kinds == {(d, k) for d in (2, 3)
                     for k in ("TwoReceivers", "GeneralTriangle", "CollinearTriple")}
    thin = [c for c in configs if isinstance(c.kind, rg.GeneralTriangle)
            and c.dimension == 2 and abs(rg.cross2(c.vec(2, 1), c.vec(3, 1))) / c.d_max ** 2 < 3e-9]
    assert thin


@pytest.mark.parametrize("scale", _SCALES)
def test_validate_config_values_match_the_old_code(scale):
    for n, receivers in enumerate(_receiver_sets(scale)):
        cfg = rg.validate_config(receivers)
        old = config_values_by_points(receivers)
        assert _bits(cfg.kind) == _bits(old["kind"]), n
        assert cfg.dimension == old["dimension"], n
        assert _bits(cfg.receivers) == _bits(old["receivers"]), n
        assert _bits(tuple(cfg._receiver_stack)) == _bits(old["receivers"]), n
        names = ("d21", "d_max") if cfg.n == 2 else ("d21", "d31", "d32", "d_max")
        assert [_bits(getattr(cfg, k)) for k in names] == [_bits(old[k]) for k in names], n
        assert not any(p.flags.writeable for p in (*cfg.receivers, cfg._receiver_stack, cfg._sides))


@pytest.mark.parametrize("scale", _SCALES)
def test_config_memos_match_the_old_builders(scale):
    for n, receivers in enumerate(_receiver_sets(scale)):
        cfg = rg.validate_config(receivers)
        for name, value, old in _memo_values(cfg):
            assert _bits(value) == _bits(old), (n, name)


def test_collinear_triples_relabel_the_same_in_every_input_order():
    for pts in _COLLINEAR:
        ordered = [rg.validate_config(list(p)).canonical_receivers
                   for p in itertools.permutations(pts)]
        assert len({_bits(tuple(np.array(r) for r in rs)) for rs in ordered}) == 1


# ---------------------------------------------------------------------------
# invert3's reference receiver in closed form

def _triangles(n: int, rng) -> np.ndarray:
    """n seeded triangles as an (n, 3, 2) array: wide ones, and thin ones down to ~1e-9."""
    wide = rng.uniform(-1.0, 1.0, (n // 2, 3, 2))
    m = n - n // 2
    heights = 10.0 ** rng.uniform(-9.0, 0.0, m)
    thin = np.stack([np.zeros((m, 2)), np.c_[np.ones(m), np.zeros(m)],
                     np.c_[rng.uniform(-0.5, 1.5, m), heights]], axis=1)
    turn = rng.uniform(0.0, 2.0 * math.pi, m)
    c, s = np.cos(turn), np.sin(turn)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], axis=1)
    thin = thin @ rot.transpose(0, 2, 1) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1, 1))
    return np.concatenate([wide, thin])


def test_closed_form_reference_equals_the_least_condition_number():
    triangles = _triangles(24_000, np.random.default_rng(17))
    chosen, candidates, ties = [], [], 0
    for pts in triangles:
        cfg = rg.validate_config(pts)
        if cfg.is_collinear:
            continue
        g21, g31, g32 = cfg._gram[:3]
        first, second = sorted((g21, g31, g32))[:0:-1]
        if first - second <= 1e-9 * first:  # two longest sides equal to rounding
            ties += 1
            continue
        chosen.append(cfg._memo(toa3._reference_system)[0])
        candidates.append([np.stack([cfg.vec(j, i), cfg.vec(k, i)])
                           for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))])
    conds = np.linalg.cond(np.array(candidates))
    assert len(chosen) >= 20_000 and ties < 100
    assert chosen == (np.argmin(conds, axis=1) + 1).tolist()


def test_float_equilateral_takes_the_longest_float_side(equilateral):
    """(0,0) (1,0) (0.5, sqrt(3)/2): g21 = 1 exceeds g31 = g32 = 1 - 2^-53 in floats, so
    the vertex opposite m1 m2 is chosen, where the condition number chooses m1."""
    assert equilateral._gram[:3] == (1.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53)
    assert equilateral._memo(toa3._reference_system)[0] == 3
    assert reference_system_by_cond(equilateral)[0] == 1


def test_equal_sides_take_the_lowest_reference():
    # isosceles: m1 and m2 lie opposite the two equal longest sides, and m1 wins
    cfg = rg.validate_config([(0.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
    assert cfg._gram[1] == cfg._gram[2] > cfg._gram[0]
    assert cfg._memo(toa3._reference_system)[:3] == (1, 2, 3)


# ---------------------------------------------------------------------------
# the float cross product

def test_float_cross_product_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(23)
    u = rng.normal(size=(40_000, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (40_000, 1))
    v = rng.normal(size=(40_000, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (40_000, 1))
    u[::7, 1] = 0.0
    v[::5, 2] = -0.0
    got = np.array([_cross3(a, b) for a, b in zip(u.tolist(), v.tolist())])
    assert got.tobytes() == np.array([np.cross(a, b) for a, b in zip(u, v)]).tobytes()


def test_circle_frame_matches_the_old_frame():
    rng = np.random.default_rng(29)
    for axis in rng.normal(size=(2000, 3)):
        axis = axis / np.linalg.norm(axis)
        assert _bits(toa3d._circle_frame(axis)) == _bits(circle_frame_by_arrays(axis))
