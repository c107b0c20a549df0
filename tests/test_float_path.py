"""The three-receiver TOA float path, held bit for bit to the array code it replaced.

classify3, invert3 and invert3_collinear (and the 3-D and two-receiver
solvers that share their kernels) do their per-measurement work on Python
floats.  Every answer is computed twice: as the library does it, and with its
float kernels swapped for the array versions kept verbatim in
tests/oracles.py.  The two must agree in every float, signed zeros included.
"""
import itertools
import math

import numpy as np
import pytest

import rangegeom as rg
from rangegeom import kummer, toa2, toa3, toa3d

from oracles import (
    mirror_pair_arrays,
    poly_eval_array_powers,
    q3_residuals_collinear,
    q3_residuals_general,
    remapping_by_distances,
    two_sphere_arrays,
)

_SCALES = (1e-3, 1.0, 1e3)
_RTOLS = (1e-9, 1e-6, 1e-3)
_TRIANGLES = ([(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
# collinear receivers, none of them listed in canonical order
_COLLINEAR = ([(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)], [(0.5, 0.5), (0.1, 0.2), (0.9, 0.8)])


def _bits(v):
    """v as nested tuples with every float as its hex string, so that == also
    compares the sign of zero; arrays by dtype, shape and bytes."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    if isinstance(v, dict):
        return tuple((k, _bits(x)) for k, x in v.items())
    if hasattr(v, "__dataclass_fields__"):
        return (type(v).__name__,) + tuple((k, _bits(getattr(v, k))) for k in v.__dataclass_fields__)
    return v


def _configs() -> list:
    rng = np.random.default_rng(8)
    out = []
    for scale in _SCALES:
        shift = rng.uniform(-3.0, 3.0, 2)
        for pts in _TRIANGLES + _COLLINEAR + ([(0.0, 0.0), (1.0, 0.3)],):
            planar = np.array(pts) * scale + shift * scale
            out.append(rg.validate_config(planar))
            spatial = np.c_[planar, rng.uniform(-1.0, 1.0, len(pts)) * scale]
            out.append(rg.validate_config(spatial))
            if len(pts) == 3 and pts in _COLLINEAR:  # a collinear triple in space
                out.append(rg.validate_config(np.c_[planar, np.zeros(3)]))
    return out


def _triples(cfg, rng) -> list:
    """Exact, noisy and infeasible measurements, and entries 0.0 and -0.0."""
    n, d = cfg.n, cfg.d_max
    centre = np.mean(cfg.receivers, axis=0)
    sources = centre + rng.uniform(-1.5, 1.5, (12, cfg.dimension)) * d
    exact = [cfg.distances(x) for x in sources] + [cfg.distances(m) for m in cfg.receivers]
    noisy = [T + rng.normal(0.0, 1e-6 * d, n) for T in exact[:6]]
    infeasible = []
    for T in exact[:4]:
        T = T.copy()
        T[0] = T[1] + cfg.dist(2, 1) * 1.3  # breaks a triangle inequality
        infeasible.append(T)
    zeros = []
    for T in exact[-n:]:  # receiver images: one zero entry each
        T = T.copy()
        T[T == 0.0] = -0.0
        zeros.append(T)
    zeros += [np.array(t) for t in itertools.product((0.0, -0.0, d), repeat=n)]
    return exact + noisy + infeasible + zeros


def _call(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except rg.RangeGeomError as exc:
        return type(exc).__name__, str(exc)


def _answers(configs, rng) -> list:
    out = []
    for cfg in configs:
        for T in _triples(cfg, rng):
            for rtol in _RTOLS:
                if cfg.n == 2:
                    invert = rg.invert2 if cfg.dimension == 2 else rg.invert3d_r2
                    out.append(_call(invert, cfg, T, rtol=rtol))
                elif cfg.dimension == 3:
                    if cfg.is_collinear:
                        out.append(_call(rg.invert3d_r3_collinear, cfg, T, rtol=rtol))
                    else:
                        out.append(_call(rg.classify3d_r3, cfg, T, rtol=rtol))
                        out.append(_call(rg.invert3d_r3, cfg, T, rtol=rtol))
                else:
                    out.append(_call(rg.classify3, cfg, T, rtol=rtol))
                    out.append(_call(rg.q3_membership, cfg, T, rtol=rtol))
                    invert = rg.invert3_collinear if cfg.is_collinear else rg.invert3
                    out.append(_call(invert, cfg, T, rtol=rtol))
            if cfg.n == 3 and cfg.dimension == 2 and not cfg.is_collinear:
                out.append(_call(rg.quartic_residual, cfg, T))
                out.append(_call(rg.quartic_residual, cfg, T, normalized=True))
    return out


def test_float_path_matches_the_array_kernels_bit_for_bit(monkeypatch):
    configs = _configs()
    got = _answers(configs, np.random.default_rng(2))
    monkeypatch.setattr(kummer, "_poly_eval", poly_eval_array_powers)  # also toa3d's quartic
    for module in (toa3, toa3d):
        monkeypatch.setattr(module, "_remapping", remapping_by_distances)
    for module in (toa2, toa3, toa3d):
        monkeypatch.setattr(module, "_two_sphere", two_sphere_arrays)
    for module in (toa2, toa3):
        monkeypatch.setattr(module, "_mirror_pair", mirror_pair_arrays)
    want = _answers(configs, np.random.default_rng(2))
    assert len(got) == len(want) > 5000
    assert any(isinstance(a, tuple) and a[0] == "SolutionSet" and a[1][1] for a in got)
    for n, (a, b) in enumerate(zip(got, want)):
        assert a == b, n


@pytest.mark.parametrize("cfg", [c for c in _configs() if c.n == 3 and c.dimension == 2])
def test_classify3_octant_residual_and_facets_match_the_array_expressions(cfg):
    rng = np.random.default_rng(5)
    order = list(cfg.kind.order) if cfg.is_collinear else None
    for T in _triples(cfg, rng):
        for rtol in _RTOLS:
            rep = rg.classify3(cfg, T, rtol=rtol)
            assert rep.in_octant is bool(np.min(T) >= -rtol * cfg.d_max)
        if cfg.is_collinear:
            # the quadric of the unit geometry, lengths times 2^-k, scaled back by 2^2k
            unit = math.ldexp(1.0, -cfg._k)
            stewart = toa3._stewart(cfg.kind.rho, cfg.kind.d21 * unit, *(T[order] * unit).tolist())
            assert _bits(rg.collinear_quadric_residual(cfg, T)) == \
                _bits(math.ldexp(stewart, 2 * cfg._k))
            assert _bits(rep.quartic_or_quadric_residual) == _bits(stewart / (cfg.d_max * unit) ** 2)
            want = {k: float(v) for k, v in q3_residuals_collinear(cfg.kind, T[order]).items()}
        else:
            want = q3_residuals_general(cfg, *T.tolist())
        assert _bits(rg.q3_membership(cfg, T).residuals) == _bits(want)


@pytest.mark.parametrize("dimension", [2, 3])
def test_remapping_matches_config_distances(dimension):
    rng = np.random.default_rng(dimension)
    for scale in _SCALES:
        for _ in range(40):
            cfg = rg.validate_config(rng.uniform(-1.0, 1.0, (3, dimension)) * scale)
            x = rng.uniform(-2.0, 2.0, dimension) * scale
            T = cfg.distances(x)
            if rng.uniform() < 0.3:
                T[rng.integers(3)] = -0.0
            rtol = 1e-9
            # points on both sides of the tolerance, some of them exactly on it
            steps = rng.normal(size=(8, dimension)) * rtol * cfg.d_max
            points = (x,) + tuple(x + k * s for k, s in zip((0.3, 0.7, 0.99, 1.0, 1.01, 1.5, 3.0, 0.0), steps))
            got = toa3._remapping(cfg, points, T.tolist(), rtol)
            want = remapping_by_distances(cfg, points, T, rtol)
            assert [id(p) for p in got] == [id(p) for p in want]
            # rtol = 0 keeps x for its own ranges only if every range has the bits of config.distances
            for p in points:
                assert toa3._remapping(cfg, (p,), cfg.distances(p).tolist(), 0.0) == (p,)
