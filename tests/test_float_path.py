"""The float paths of one measurement, held bit for bit to the array code.

TOA: classify3, invert3 and invert3_collinear (and the 3-D and two-receiver
solvers that share their kernels) do their per-measurement work on Python
floats.  Every answer is computed twice: as the library does it, and with its
float kernels swapped for the array versions kept verbatim in
tests/oracles.py.  The two must agree in every float, signed zeros included.

TDOA: the one-row calls (classify_tau, invert_tdoa, tdoa_coeffs, t_quadratic,
p2_membership, and classify_invert_tau and tau_fibers on one row) run the
kernels of tdoa.py on a float row; each answer must be row i of a block call
on the (N,) columns, in every float, and raise the block's exception.
"""
import itertools
import math

import numpy as np
import pytest

import rangegeom as rg
from rangegeom import kummer, tdoa, toa2, toa3, toa3d
from rangegeom.config import _LIFT_BOUND, _LINE_BOUND, _QUARTIC_BOUND, _to_unit

from oracles import (
    mirror_pair_arrays,
    poly_eval_array_powers,
    q3_residuals_collinear,
    q3_residuals_general,
    remapping_by_distances,
    two_sphere_arrays,
)
from test_tdoa import _probe_taus

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


def test_stewart_on_columns_is_the_float_calls_on_their_rows():
    """The Stewart quadric on (N,) columns, as the collinear TDOA block evaluates it, has the
    bits of the float calls on each row: its squares are products, not pow."""
    rng = np.random.default_rng(24)
    for cfg in [c for c in _configs() if c.is_collinear and c.dimension == 2]:
        unit = cfg._unit
        rho, d21 = cfg.kind.rho, cfg.kind.d21 * unit
        T = rng.uniform(-3.0, 3.0, (3, 100_000)) * cfg.d_max * unit
        columns = toa3._stewart(rho, d21, *T)
        rows = np.array([toa3._stewart(rho, d21, *row) for row in zip(*T.tolist())])
        assert columns.tobytes() == rows.tobytes()


@pytest.mark.parametrize("k", [0, -300, 300])
def test_to_unit_on_floats_is_the_array_form(k):
    """One measurement (a list of floats) and the same (3,) array scale to the same bits, and
    raise the same InvalidParam one ulp past the bound."""
    cfg = rg.validate_config(np.ldexp(np.array(_TRIANGLES[0]), k))
    for bound in (_QUARTIC_BOUND, _LIFT_BOUND, _LINE_BOUND):
        edge = bound * cfg.d_max
        for v in ([0.3 * cfg.d_max, -0.0, -1.7 * cfg.d_max], [edge, -edge, 0.0]):
            got = _to_unit(cfg, list(v), bound, "ranges")
            want = _to_unit(cfg, np.array(v), bound, "ranges")
            assert isinstance(got, list) and _bits(np.array(got)) == _bits(want)
        for v in ([math.nextafter(edge, math.inf), 0.0, 1.0],
                  [0.0, -math.nextafter(edge, math.inf), 1.0]):
            assert _call(_to_unit, cfg, v, bound, "ranges") == \
                _call(_to_unit, cfg, np.array(v), bound, "ranges")
            assert _call(_to_unit, cfg, v, bound, "ranges")[0] == "InvalidParam"


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


# ---------------------------------------------------------------------------
# the TDOA float row against the block

_WIDE = ([(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
         [(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)], [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
# thin down to h = 1e-6, and h = 1e-9, where every lens cone has w = 0.0 (_lens_table)
_THIN = ([(0.0, 0.0), (1.0, 0.0), (0.35, 1e-3)], [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-6)],
         [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-9)])
_TDOA_CONFIGS = (
    [(pts, 0) for pts in _WIDE + _THIN + _COLLINEAR]
    + [(pts, k) for k in (-500, 500) for pts in (_WIDE[0], _THIN[1], _COLLINEAR[1])])


def _tdoa_rows(cfg, taus, rtol) -> list:
    """(tau, one-row answers, row i of the block answers) per row i of taus, in _bits form."""
    regions, solutions = rg.classify_invert_tau(cfg, taus, rtol)
    labels, fibers, points = rg.tau_fibers(cfg, taus, rtol)
    if not cfg.is_collinear:
        inverted = tdoa._solution_sets(*tdoa._invert_rows(cfg, taus, rtol))  # every row
        a, b, c = tdoa._coeff_rows(cfg, *tdoa._line_taus(cfg, taus).T)[:3]
        w12 = cfg._memo(tdoa._line_constants)[4]
        quadratic = [tuple(rg.config._from_unit(cfg, v, degree) for v, degree in
                           zip((4.0 * ai, -8.0 * abs(w12) * bi, 4.0 * w12 * w12 * ci), (4, 5, 6)))
                     for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist())]
    out = []
    for i, tau in enumerate(taus):
        region = regions[i]
        row = [_call(rg.classify_tau, cfg, tau, rtol=rtol),
               _call(rg.classify_invert_tau, cfg, [tau], rtol=rtol),
               _call(rg.tau_fibers, cfg, [tau], rtol=rtol),
               _bits(rg.p2_membership(cfg, tau, rtol=rtol).residuals)]
        block = [_bits(region),
                 _bits(((region,), None if solutions is None else (solutions[i],))),
                 _bits(((labels[i],), (fibers[i],), None if points is None else (points[i],))),
                 _bits(region.residuals)]
        if not cfg.is_collinear:
            row += [_call(rg.invert_tdoa, cfg, tau, rtol=rtol), _call(rg.tdoa_coeffs, cfg, tau),
                    _call(rg.t_quadratic, cfg, tau)]
            block += [_bits(inverted[i]), _bits(region.coeffs), _bits(quadratic[i])]
        out.append((tau.tolist(), row, block))
    return out


@pytest.mark.parametrize("receivers, k", _TDOA_CONFIGS)
@pytest.mark.parametrize("rtol", _RTOLS)
def test_tdoa_one_row_calls_are_the_rows_of_a_block(receivers, k, rtol):
    cfg = rg.validate_config(np.ldexp(np.array(receivers), k))
    taus = _probe_taus(cfg, seed=abs(k) + len(receivers[2]))
    taus = np.concatenate([taus, [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]])
    # the w = 0.0 cones divide by zero in both forms (a NumPy float in the float row's table)
    with np.errstate(all="ignore" if receivers[2][1] == 1e-9 else "raise", under="ignore"):
        rows = _tdoa_rows(cfg, taus, rtol)
    for tau, row, block in rows:
        assert row == block, (tau, [n for n, (a, b) in enumerate(zip(row, block)) if a != b])


def test_tdoa_one_row_calls_cover_every_label():
    seen = set()
    for receivers, k in _TDOA_CONFIGS:
        cfg = rg.validate_config(np.ldexp(np.array(receivers), k))
        with np.errstate(all="ignore"):
            taus = _probe_taus(cfg, seed=abs(k) + len(receivers[2]))
            regions, _ = rg.classify_invert_tau(cfg, taus)
        for region in regions:
            seen.add(region.label)
            seen.update(f"{region.label} {name}" for name in region.ids)
    assert {"EMinus", "U_1", "U_2", "U_3", "TangencyPoint", "VertexRay", "CollinearInterior",
            "OutsideIm", "BoundaryArc E", "BoundaryArc C", "BoundaryArc R3"} <= seen
    assert any(name.startswith("BoundaryArc tau") for name in seen)  # a P2 facet
    assert any(name.startswith("BoundaryArc r") for name in seen)  # a collinear lift facet


@pytest.mark.parametrize("receivers, k", _TDOA_CONFIGS)
def test_tdoa_one_row_calls_raise_as_the_block_beyond_the_input_bound(receivers, k):
    """Beyond _LINE_BOUND * d_max (the null-cone line) or _LIFT_BOUND * d_max (the collinear
    lift) a one-row call raises the exception of a block whose largest entry is the row's."""
    cfg = rg.validate_config(np.ldexp(np.array(receivers), k))
    bound = 1.5 * (_LIFT_BOUND if cfg.is_collinear else _LINE_BOUND) * cfg.d_max
    small = [0.1 * cfg.d_max, -0.2 * cfg.d_max]
    calls = [rg.classify_tau] + ([] if cfg.is_collinear else
                                 [rg.invert_tdoa, rg.tdoa_coeffs, rg.t_quadratic])
    for tau in ([bound, 0.0], [-0.3 * cfg.d_max, -bound], [bound, bound]):
        want = _call(rg.classify_invert_tau, cfg, [tau, small])
        assert want[0] == "InvalidParam" and "too large" in want[1]
        assert _call(rg.tau_fibers, cfg, [small, tau]) == want
        for call in calls + [rg.classify_invert_tau, rg.tau_fibers]:
            one = [tau] if call in (rg.classify_invert_tau, rg.tau_fibers) else tau
            assert _call(call, cfg, one) == want, call.__name__
