"""The range surface of three planar receivers: a Kummer-type quartic, and its feasible polyhedron.

The image of the three-receiver range map x -> (T1, T2, T3) lies on a quartic
surface with 16 nodes and 16 trope planes (a tetrahedroid: a Kummer quartic
with extra symmetry).  This module holds what the TOA and TDOA solvers read
of it; the surface geometry itself is in rangegeom.surface:

* quartic_residual - the defining polynomial, raw or divided by d_max^6;
  _quartic_gate is the one on-surface test (classify3, classify3d_r3, the
  hull), evaluated on the unit geometry of config.py;
* q3_membership - the feasible polyhedron (facets = the 12 labeled tropes);
  its planes are one table per configuration (_facet_rows), rows (c0..c3)
  with slack c0 + c1 T1 + c2 T2 + c3 T3 >= 0 on the feasible side, also the
  conic arcs' planes; the six ray rows project to the TDOA hexagon P2;
* _node_images - the receiver-image nodes, the arcs' endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .config import (
    _QUARTIC_BOUND,
    _RTOL,
    SensorConfig,
    _facet_verdict,
    _from_unit,
    _measurement,
    _require_planar_triple,
    _sign,
    _to_unit,
)
from .errors import DegenerateConfig, DimensionMismatch

Q3_FACETS = (
    "r30", "r3-", "r3+",
    "r20", "r2-", "r2+",
    "r10", "r1-", "r1+",
    "Gamma3", "Gamma2", "Gamma1",
)

# Facets that survive the collinear degeneration (in canonical labels:
# receivers 1, 2 are the endpoints, receiver 3 the middle).
Q3_FACETS_COLLINEAR = ("r30", "r2-", "r1-", "Gamma3")


def _require_general(config: SensorConfig) -> None:
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: the quartic degenerates (see "
            "collinear_degeneration_check)"
        )


# ---------------------------------------------------------------------------
# polynomial-in-T helpers (terms: exponent triple -> coefficient)

def _poly_eval(terms, T: np.ndarray):
    """Sum of coeff * T1^e1 * T2^e2 * T3^e3 over terms, at triple(s) T.

    A float for one triple (three floats, or a (3,) array), an array for a
    batch (..., 3).  Each power is formed once per call, on first use
    (_Powers).  A power above 2 is one array op on the whole of T: numpy's
    power loop rounds differently from libm pow (Python floats, numpy
    scalars) on a few percent of inputs, so those are never taken on
    scalars; test_quartic_residual_bit_exact_against_per_term_loop and
    test_classify3d_quartic_bit_exact_against_per_term_loop pin those bits.
    Powers 0, 1 and 2 are exact or one rounding (numpy's T ** 2 is T * T),
    so one triple takes them on floats.  The products and the sum then run
    term by term in the order of terms.
    """
    T = np.asarray(T, dtype=float)
    powers = _Powers()
    powers.T = T
    if T.ndim == 1:
        t = T.tolist()
        powers.update({0: (1.0, 1.0, 1.0), 1: t, 2: [v * v for v in t]})
        out = 0.0
    else:
        out = np.zeros(T.shape[:-1])
    for (e1, e2, e3), coeff in terms.items():
        out = out + coeff * powers[e1][0] * powers[e2][1] * powers[e3][2]
    return out


class _Powers(dict):
    """Exponent -> the powers of T per coordinate, each one array op on the whole of T at its
    first lookup, so no call gathers the exponent set of its terms."""

    __slots__ = ("T",)

    def __missing__(self, e: int):
        p = self.T ** e
        power = self[e] = p.tolist() if p.ndim == 1 else (p[..., 0], p[..., 1], p[..., 2])
        return power


def _quartic_terms(config: SensorConfig) -> MappingProxyType:
    """Coefficients of the defining quartic of the unit geometry (no general-position gate).

    A config-only constant: read it through config._memo(_quartic_terms).  The
    coefficients come from validate_config's dot products (config._gram), not
    from norms squared, which keeps them exact on exactly-representable receiver
    coordinates."""
    g21, g31, g32, p12, p13, p23 = config._gram
    return MappingProxyType({
        (4, 0, 0): g32,
        (0, 4, 0): g31,
        (0, 0, 4): g21,
        (2, 2, 0): -2.0 * p23,
        (2, 0, 2): 2.0 * p13,
        (0, 2, 2): -2.0 * p12,
        (2, 0, 0): -2.0 * p12 * g32,
        (0, 2, 0): 2.0 * p13 * g31,
        (0, 0, 2): -2.0 * p23 * g21,
        (0, 0, 0): g21 * g31 * g32,
    })


def _quartic_value(config: SensorConfig, T):
    """The quartic of the unit geometry at range triple(s) T times 2^-k, T three floats or an
    array; InvalidParam where some |T_i| exceeds _QUARTIC_BOUND * d_max."""
    T = _to_unit(config, T, _QUARTIC_BOUND, "ranges too large for the quartic")
    return _poly_eval(config._memo(_quartic_terms), T)


def quartic_residual(config: SensorConfig, T, normalized: bool = False):
    """Value of the defining quartic at range triple(s) T.

    Zero exactly on the range surface.  With normalized=True the value is
    divided by d_max^6, making it scale-free (the polynomial has total length
    degree six); the raw value is +-inf or 0.0 outside the float range.  Raises
    DegenerateConfig for collinear receivers, and InvalidParam for ranges
    beyond _QUARTIC_BOUND * d_max.
    """
    _require_general(config)
    T = np.asarray(T, dtype=float)
    if T.shape[-1] != 3:
        raise DimensionMismatch("expected range triples with last axis 3")
    val = _quartic_value(config, T)
    return _scale_free(config, val) if normalized else _from_unit(config, val, 6)


def _scale_free(config: SensorConfig, value):
    """A quartic value of the unit geometry divided by the unit geometry's d_max^6."""
    return value / (config.d_max * config._unit) ** 6


def _quartic_gate(config: SensorConfig, T: list, rtol: float) -> tuple:
    """(value, _scale_free, on): the quartic at the floats T, scale-free, and within rtol of
    zero (config._sign); the on-surface test of classify3, classify3d_r3, the hull."""
    residual = _scale_free(config, value := _quartic_value(config, T))
    return _from_unit(config, value, 6), residual, _sign(residual, rtol) == 0


# ---------------------------------------------------------------------------
# the trope table: facet planes and receiver-image nodes

def _facet_rows(d21: float, d31: float, d32: float) -> tuple:
    """The 12 trope planes (c0, c1, c2, c3) in Q3_FACETS order, slack >= 0 on the feasible side.

    The ray rows have c1 + c2 + c3 = 0 (they contain (1, 1, 1)).  The Gamma
    rows take c0 = -0.0, not 0.0: x + (-0.0) is x for every x, whereas
    x + 0.0 turns a -0.0 slack into +0.0.
    """
    return (
        (-d21, 1.0, 1.0, 0.0), (d21, -1.0, 1.0, 0.0), (d21, 1.0, -1.0, 0.0),  # r30 r3- r3+
        (-d31, 1.0, 0.0, 1.0), (d31, -1.0, 0.0, 1.0), (d31, 1.0, 0.0, -1.0),  # r20 r2- r2+
        (-d32, 0.0, 1.0, 1.0), (d32, 0.0, -1.0, 1.0), (d32, 0.0, 1.0, -1.0),  # r10 r1- r1+
        (-0.0, d32, d31, -d21), (-0.0, d32, -d31, d21), (-0.0, -d32, d31, d21),  # Gamma3..1
    )


def _slacks(rows, T1, T2, T3) -> list:
    """Slack ((c1 T1 + c2 T2) + c3 T3) + c0 of each facet row at T, elementwise.

    Float rows at a float triple give floats; one row of (k,) column arrays
    at (N, 1) columns gives (N, k).  A matrix product rounds Gamma differently.
    """
    return [((c1 * T1 + c2 * T2) + c3 * T3) + c0 for c0, c1, c2, c3 in rows]


def _facet_table(config: SensorConfig) -> tuple:
    """_facet_rows of the configuration; a config-only constant (config._memo)."""
    return _facet_rows(config.d21, config.d31, config.d32)


def _collinear_facet_table(config: SensorConfig) -> tuple:
    """The Q3_FACETS_COLLINEAR rows of _facet_rows on the canonical distances;
    a config-only constant (config._memo)."""
    d21, rho = config.kind.d21, config.kind.rho
    table = dict(zip(Q3_FACETS, _facet_rows(d21, rho * d21, (1.0 - rho) * d21)))
    return tuple(table[f] for f in Q3_FACETS_COLLINEAR)


def _node_images(config: SensorConfig) -> np.ndarray:
    """The receiver images (0, d21, d31), (d21, 0, d32), (d31, d32, 0) as the
    rows of a read-only (3, 3) array; a config-only constant (config._memo)."""
    d21, d31, d32 = config.d21, config.d31, config.d32
    nodes = np.array([[0.0, d21, d31], [d21, 0.0, d32], [d31, d32, 0.0]])
    nodes.setflags(write=False)
    return nodes


# ---------------------------------------------------------------------------
# feasible polyhedron

@dataclass(frozen=True)
class Q3Report:
    """Membership in the feasible polyhedron.

    residuals : facet id -> signed slack (>= 0 means the inequality holds)
    verdict   : "Interior" | "OnFacet" | "Outside"
    active    : facet ids with |slack| within tolerance
    """

    residuals: dict
    verdict: str
    active: tuple


def _q3_residuals_general(config: SensorConfig, T1, T2, T3) -> dict:
    """Facet id -> slack of the 12 general-position facets at one triple of floats."""
    return dict(zip(Q3_FACETS, _slacks(config._memo(_facet_table), T1, T2, T3)))


def q3_membership(config: SensorConfig, T, rtol: float = _RTOL) -> Q3Report:
    """Classify a range triple against the feasible polyhedron.

    General position: 12 facets, one per labeled trope.  Collinear triple:
    the polyhedron degenerates to 4 facets (canonical labels: endpoints are
    receivers 1 and 2, middle is 3); T is taken in the original receiver
    order and relabeled internally.
    """
    _require_planar_triple(config)
    return _q3_report(config, _measurement(T, 3), rtol)


def _q3_report(config: SensorConfig, T: list, rtol: float) -> Q3Report:
    """q3_membership at the floats T of a planar triple, already parsed (classify3's)."""
    if config.is_collinear:
        Tc = [T[k] for k in config.kind.order]
        rows = config._memo(_collinear_facet_table)
        residuals = dict(zip(Q3_FACETS_COLLINEAR, _slacks(rows, *Tc)))
    else:
        residuals = _q3_residuals_general(config, *T)
    active, verdict = _facet_verdict(residuals.items(), rtol, config.d_max)
    return Q3Report(residuals=residuals, verdict=verdict, active=active)
