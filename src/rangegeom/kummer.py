"""The range surface of three planar receivers: a Kummer-type quartic.

The image of the three-receiver range map x -> (T1, T2, T3) lies on a quartic
surface with 16 nodes and 16 trope planes (a tetrahedroid: a Kummer quartic
with extra symmetry).  This module exposes the surface algebraically:

* quartic_residual / homogeneous_form - the defining polynomial, raw and in
  rescaled coordinates where the coefficients are the three cosine parameters
  (a, b, c) of the receiver triangle;
* nodes_and_tropes - the 16 nodes (4 ideal, 3 receiver images, 9 further
  affine double points) and the 16 tangent trope planes, self-dual in the
  rescaled coordinates;
* conic_arc - the 12 labeled conics along which the tropes touch the surface;
  their preimages are the receiver lines (segments and outward rays) and the
  circumcircle, i.e. exactly the zero-curvature locus of the image; each
  arc's quadratic is <= 0 on the side of its conic that the hull fills;
* tangent_cone - the quadric cone of the surface at any node;
* gaussian_curvature - curvature of the image surface at a source position;
* q3_membership - the feasible polyhedron (facets = the 12 labeled tropes);
  its planes are one table per configuration (_facet_rows), rows (c0..c3)
  with slack c0 + c1 T1 + c2 T2 + c3 T3 >= 0 on the feasible side, also the
  conic arcs' planes; the six ray rows project to the TDOA hexagon P2;
* hull_boundary_classify - the boundary decomposition of the convex hull of
  the image: four positively curved surface regions plus flat fills across
  the bounded arcs and strips along the unbounded ones; a fill is the part
  of its trope plane inside Q3 where the arc quadratic is <= 0, because
  every straight side of a fill lies on another trope;
* collinear_degeneration_check - as the receivers become collinear the
  quartic degenerates into d21^2 times the square of the Stewart quadric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .config import (
    _RTOL,
    SensorConfig,
    _canonical_collinear,
    _measurement,
    _require_planar_triple,
)
from .errors import (
    DegenerateConfig,
    DimensionMismatch,
    NotANode,
    NotCollinear,
    NotOnBoundary,
    UnknownLabel,
)
from .spacetime import _cross2

ARC_LABELS = (
    "r10", "r1+", "r1-",
    "r20", "r2+", "r2-",
    "r30", "r3+", "r3-",
    "Gamma1", "Gamma2", "Gamma3",
)

Q3_FACETS = (
    "r30", "r3-", "r3+",
    "r20", "r2-", "r2+",
    "r10", "r1-", "r1+",
    "Gamma3", "Gamma2", "Gamma1",
)

# Facets that survive the collinear degeneration (in canonical labels:
# receivers 1, 2 are the endpoints, receiver 3 the middle).
Q3_FACETS_COLLINEAR = ("r30", "r2-", "r1-", "Gamma3")

HULL_COMPONENTS = (
    "V0", "V1", "V2", "V3",
    "F_123", "F_213", "F_312",
    "G_123", "G_213", "G_312",
    "L1+", "L1-", "L2+", "L2-", "L3+", "L3-",
)


def _require_general(config: SensorConfig) -> None:
    _require_planar_triple(config)
    if config.is_collinear:
        raise DegenerateConfig(
            "collinear receivers: the quartic degenerates (see "
            "collinear_degeneration_check)"
        )


def _abc(config: SensorConfig) -> tuple:
    """Cosine parameters of the triangle: a = cos(angle at m3),
    b = -cos(angle at m2), c = cos(angle at m1); a config-only constant (config._memo)."""
    a = float(config.vec(3, 1) @ config.vec(3, 2)) / (config.d31 * config.d32)
    b = float(config.vec(2, 1) @ config.vec(3, 2)) / (config.d21 * config.d32)
    c = float(config.vec(2, 1) @ config.vec(3, 1)) / (config.d21 * config.d31)
    return a, b, c


# ---------------------------------------------------------------------------
# polynomial-in-T helpers (terms: exponent triple -> coefficient)

def _poly_eval(terms, T: np.ndarray):
    """Sum of coeff * T1^e1 * T2^e2 * T3^e3 over terms, at triple(s) T.

    A float for one triple, an array for a batch (..., 3).  Each power is
    formed once per call.  A power above 2 is one array op on the whole of T:
    numpy's power loop rounds differently from libm pow (Python floats, numpy
    scalars) on a few percent of inputs, so those are never taken on
    scalars.  Powers 0, 1 and 2 are exact or one rounding (numpy's T ** 2 is
    T * T), so one triple takes them on floats.  The products and the sum
    then run term by term in the order of terms.
    """
    T = np.asarray(T, dtype=float)
    exponents = set().union(*terms)
    if T.ndim == 1:
        t = T.tolist()
        powers = {e: (T ** e).tolist() for e in exponents if e > 2}
        powers.update({0: (1.0, 1.0, 1.0), 1: t, 2: [v * v for v in t]})
        out = 0.0
    else:
        powers = {e: T ** e for e in exponents}
        powers = {e: (p[..., 0], p[..., 1], p[..., 2]) for e, p in powers.items()}
        out = np.zeros(T.shape[:-1])
    for (e1, e2, e3), coeff in terms.items():
        out = out + coeff * powers[e1][0] * powers[e2][1] * powers[e3][2]
    return out


def _quartic_terms(config: SensorConfig) -> MappingProxyType:
    """Coefficients of the defining quartic (no general-position gate).

    A config-only constant: read it through config._memo(_quartic_terms).
    """
    d21v, d31v, d32v = config.vec(2, 1), config.vec(3, 1), config.vec(3, 2)
    # squared lengths from dot products (not norm-then-square) keep the
    # coefficients exact on exactly-representable receiver coordinates
    g21, g31, g32 = float(d21v @ d21v), float(d31v @ d31v), float(d32v @ d32v)
    p12 = float(d21v @ d31v)   # d21 . d31
    p13 = float(d21v @ d32v)   # d21 . d32
    p23 = float(d31v @ d32v)   # d31 . d32
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


def quartic_residual(config: SensorConfig, T, normalized: bool = False):
    """Value of the defining quartic at range triple(s) T.

    Zero exactly on the range surface.  With normalized=True the value is
    divided by d_max^6, making it scale-free (the polynomial has total length
    degree six).  Raises DegenerateConfig for collinear receivers.
    """
    _require_general(config)
    T = np.asarray(T, dtype=float)
    if T.shape[-1] != 3:
        raise DimensionMismatch("expected range triples with last axis 3")
    val = _poly_eval(config._memo(_quartic_terms), T)
    if normalized:
        val = val / config.d_max ** 6
    return val


# ---------------------------------------------------------------------------
# homogeneous (rescaled) form

@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    """The quartic in rescaled homogeneous coordinates.

    t = (t0, t1, t2, t3) with t1 = T1/s1, t2 = T2/s2, t3 = T3/s3, t0 = 1 on
    the affine chart; the scales are s1 = sqrt(d21 d31), s2 = sqrt(d21 d32),
    s3 = sqrt(d31 d32).  In these coordinates

        F(t) = sum t_i^4 - 2a (t1^2 t2^2 + t0^2 t3^2)
                          + 2b (t1^2 t3^2 + t0^2 t2^2)
                          - 2c (t2^2 t3^2 + t0^2 t1^2)
             = sum t_i^4 + 1/2 sum_ij K_ij t_i^2 t_j^2

    with K the coupling matrix of (a, b, c) (_coupling), and the affine
    quartic equals kappa * F with kappa = d21^2 d31^2 d32^2.
    """

    abc: tuple
    scales: tuple
    kappa: float

    def embed(self, T) -> np.ndarray:
        """Affine chart embedding (T1,T2,T3) -> (1, T1/s1, T2/s2, T3/s3)."""
        T = np.asarray(T, dtype=float)
        s1, s2, s3 = self.scales
        return np.stack(
            [np.ones(T.shape[:-1]), T[..., 0] / s1, T[..., 1] / s2, T[..., 2] / s3],
            axis=-1,
        )

    def evaluate(self, t) -> np.ndarray:
        sq = np.square(np.asarray(t, dtype=float))
        val = np.sum(sq * sq + 0.5 * sq * (sq @ _coupling(*self.abc)), axis=-1)
        if val.ndim == 0:
            return float(val)
        return val

    def gradient(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        sq = t * t
        return 4 * t * sq + 2 * t * (sq @ _coupling(*self.abc))

    def hessian(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(4)
        K = _coupling(*self.abc)
        return 4 * K * np.outer(t, t) + np.diag(12 * t * t + 2 * (K @ (t * t)))


def _coupling(a: float, b: float, c: float) -> np.ndarray:
    """Symmetric K with zero diagonal: F(t) = sum t_i^4 + 1/2 sum_ij K_ij t_i^2 t_j^2."""
    return np.array([[0.0, -2 * c, 2 * b, -2 * a],
                     [-2 * c, 0.0, -2 * a, 2 * b],
                     [2 * b, -2 * a, 0.0, -2 * c],
                     [-2 * a, 2 * b, -2 * c, 0.0]])


def homogeneous_form(config: SensorConfig) -> HomogeneousForm:
    """Rescaled homogeneous quartic (see HomogeneousForm)."""
    _require_general(config)
    d21, d31, d32 = config.d21, config.d31, config.d32
    scales = (math.sqrt(d21 * d31), math.sqrt(d21 * d32), math.sqrt(d31 * d32))
    kappa = (d21 * d31 * d32) ** 2
    return HomogeneousForm(abc=config._memo(_abc), scales=scales, kappa=kappa)


# ---------------------------------------------------------------------------
# nodes and tropes

@dataclass(frozen=True, eq=False)
class Node:
    """A double point of the quartic.

    label       : family + sign pair, e.g. "f2+-"
    homogeneous : rescaled coordinates (t0, t1, t2, t3), first nonzero +
    affine      : (T1, T2, T3) for affine nodes, None for ideal ones
    kind        : "ideal" | "receiver" | "affine"
    receiver    : receiver index 1..3 for receiver-image nodes, else None
    """

    label: str
    homogeneous: np.ndarray
    affine: object
    kind: str
    receiver: object


@dataclass(frozen=True, eq=False)
class Trope:
    """A tangent plane touching the quartic along a conic.

    Self-dual to a node: the plane coefficients in rescaled coordinates are
    the node's homogeneous coordinates.  `label` is the conic-arc label for
    the 12 tropes meeting the closed image, None for the remaining 4.
    """

    label: object
    node_label: str
    homogeneous: np.ndarray
    affine: np.ndarray


_TROPE_TAG = {
    "f1": {(1, 1): None, (1, -1): "Gamma3", (-1, 1): "Gamma2", (-1, -1): "Gamma1"},
    "f2": {(1, 1): None, (-1, -1): "r10", (1, -1): "r1+", (-1, 1): "r1-"},
    "f3": {(1, 1): None, (-1, -1): "r20", (-1, 1): "r2-", (1, -1): "r2+"},
    "f4": {(1, 1): None, (-1, -1): "r30", (-1, 1): "r3-", (1, -1): "r3+"},
}


@dataclass(frozen=True, eq=False)
class NodesAndTropes:
    nodes: tuple
    tropes: tuple

    def node(self, label: str) -> Node:
        for n in self.nodes:
            if n.label == label:
                return n
        raise UnknownLabel(f"no node labeled {label!r}")

    def trope(self, label: str) -> Trope:
        for t in self.tropes:
            if t.label == label or t.node_label == label:
                return t
        raise UnknownLabel(f"no trope labeled {label!r}")


def nodes_and_tropes(config: SensorConfig) -> NodesAndTropes:
    """The 16 nodes and 16 tropes of the range quartic.

    Nodes come in four families of four (sign choices e2, e3 = +-1):

        f1 : (0, sqrt(d32),    e2 sqrt(d31), e3 sqrt(d21))   ideal
        f2 : (sqrt(d32), 0,    e2 sqrt(d21), e3 sqrt(d31))   T1 = 0
        f3 : (sqrt(d31), e2 sqrt(d21), 0,    e3 sqrt(d32))   T2 = 0
        f4 : (sqrt(d21), e2 sqrt(d31), e3 sqrt(d32), 0)      T3 = 0

    The all-plus affine nodes are the receiver images (0,d21,d31),
    (d21,0,d32), (d31,d32,0).  Each trope plane has the coordinates of its
    node (the configuration is self-dual); the 12 tropes supporting the
    feasible polyhedron carry the matching conic-arc label.  Built once per
    configuration.
    """
    _require_general(config)
    return config._memo(_nodes_and_tropes)


def _nodes_and_tropes(config: SensorConfig) -> NodesAndTropes:
    """nodes_and_tropes' value: read-only arrays in frozen records, a
    config-only constant (config._memo)."""
    form = homogeneous_form(config)
    s1, s2, s3 = form.scales
    r21, r31, r32 = math.sqrt(config.d21), math.sqrt(config.d31), math.sqrt(config.d32)

    def build(family, base, slots):
        out = []
        for e2 in (1, -1):
            for e3 in (1, -1):
                t = np.array(base, dtype=float)
                t[slots[0]] *= e2
                t[slots[1]] *= e3
                t.setflags(write=False)
                label = f"{family}{'+' if e2 > 0 else '-'}{'+' if e3 > 0 else '-'}"
                if family == "f1":
                    affine, kind, receiver = None, "ideal", None
                else:
                    Tpt = np.array(
                        [s1 * t[1] / t[0], s2 * t[2] / t[0], s3 * t[3] / t[0]]
                    )
                    Tpt.setflags(write=False)
                    affine = Tpt
                    if e2 == 1 and e3 == 1:
                        kind = "receiver"
                        receiver = {"f2": 1, "f3": 2, "f4": 3}[family]
                    else:
                        kind, receiver = "affine", None
                out.append(
                    Node(label=label, homogeneous=t, affine=affine, kind=kind,
                         receiver=receiver)
                )
        return out

    nodes = []
    nodes += build("f1", (0.0, r32, r31, r21), (2, 3))
    nodes += build("f2", (r32, 0.0, r21, r31), (2, 3))
    nodes += build("f3", (r31, r21, 0.0, r32), (1, 3))
    nodes += build("f4", (r21, r31, r32, 0.0), (1, 2))

    tropes = []
    for n in nodes:
        family = n.label[:2]
        signs = (1 if n.label[2] == "+" else -1, 1 if n.label[3] == "+" else -1)
        # Affine plane: substitute t = (1, T1/s1, T2/s2, T3/s3) and clear the
        # scales; normalize so the first nonzero T coefficient is positive.
        p = n.homogeneous
        aff = np.array([p[0], p[1] / s1, p[2] / s2, p[3] / s3])
        lead = next(x for x in aff[1:] if abs(x) > 0.0)
        aff = aff / abs(lead) * (1.0 if lead > 0 else -1.0)
        aff.setflags(write=False)
        tropes.append(
            Trope(label=_TROPE_TAG[family][signs], node_label=n.label,
                  homogeneous=p, affine=aff)
        )
    return NodesAndTropes(nodes=tuple(nodes), tropes=tuple(tropes))


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
    """The Q3_FACETS_COLLINEAR rows of _facet_rows on the canonical distances,
    as four read-only (4,) column arrays; a config-only constant (config._memo)."""
    d21, rho = config.kind.d21, config.kind.rho
    table = dict(zip(Q3_FACETS, _facet_rows(d21, rho * d21, (1.0 - rho) * d21)))
    columns = tuple(np.array(col) for col in zip(*(table[f] for f in Q3_FACETS_COLLINEAR)))
    for col in columns:
        col.setflags(write=False)
    return columns


def _node_images(config: SensorConfig) -> np.ndarray:
    """The receiver images (0, d21, d31), (d21, 0, d32), (d31, d32, 0) as the
    rows of a read-only (3, 3) array; a config-only constant (config._memo)."""
    d21, d31, d32 = config.d21, config.d31, config.d32
    nodes = np.array([[0.0, d21, d31], [d21, 0.0, d32], [d31, d32, 0.0]])
    nodes.setflags(write=False)
    return nodes


# ---------------------------------------------------------------------------
# conic arcs

@dataclass(frozen=True, eq=False)
class ConicArc:
    """One of the 12 conics where a trope touches the quartic.

    plane     : (c0, c1, c2, c3) with c0 + c1 T1 + c2 T2 + c3 T3 = 0, the
                facet row of the trope (>= 0 on the feasible side)
    quadratic : polynomial terms cutting the conic inside the plane (read-only),
                <= 0 on the fill side (the hull's flat part over the arc)
    bounded   : segment/circumcircle arcs are bounded, ray arcs are not
    endpoints : receiver-image endpoints (two if bounded, one if not)
    direction : ideal direction (1,1,1) for unbounded arcs, else None
    The preimage under the range map is a receiver segment, an outward ray,
    or a circumcircle arc; sample_sources/sample expose it.
    """

    label: str
    plane: np.ndarray
    quadratic: MappingProxyType
    bounded: bool
    endpoints: tuple
    direction: object
    _config: SensorConfig

    def sample_sources(self, n: int = 64, extent: float = 3.0) -> np.ndarray:
        """Source positions whose images trace the arc."""
        cfg = self._config
        lbl = self.label
        if lbl.startswith("Gamma"):
            i = int(lbl[-1])
            j, k = [t for t in (1, 2, 3) if t != i]
            o, R = cfg._memo(_circumcircle)
            ang = [math.atan2(*(cfg.m(t) - o)[::-1]) for t in (1, 2, 3)]
            th_j, th_k, th_i = ang[j - 1], ang[k - 1], ang[i - 1]
            # sweep from m_j to m_k counterclockwise, unless that passes m_i
            span = (th_k - th_j) % (2 * math.pi)
            rel_i = (th_i - th_j) % (2 * math.pi)
            if rel_i < span:
                th_j, span = th_k, 2 * math.pi - span
            ts = np.linspace(0.0, span, n)
            return o + R * np.stack([np.cos(th_j + ts), np.sin(th_j + ts)], axis=-1)
        i = int(lbl[1])
        if lbl[2] == "0":
            j, k = [t for t in (1, 2, 3) if t != i]
            ts = np.linspace(0.0, 1.0, n)[:, None]
            return cfg.m(j) * (1 - ts) + cfg.m(k) * ts
        # ray arcs: start receiver moving directly away from the other one
        start = {"r1+": (2, 3), "r1-": (3, 2), "r2+": (1, 3), "r2-": (3, 1),
                 "r3+": (1, 2), "r3-": (2, 1)}[lbl]
        p, q = cfg.m(start[0]), cfg.m(start[1])
        u = (p - q) / float(np.linalg.norm(p - q))
        ts = np.linspace(0.0, extent * cfg.d_max, n)[:, None]
        return p + ts * u

    def sample(self, n: int = 64, extent: float = 3.0) -> np.ndarray:
        """Range triples along the arc."""
        return self._config.distances(self.sample_sources(n=n, extent=extent))


def _circumcircle(config: SensorConfig) -> tuple:
    """Circumcenter (read-only) and circumradius; a config-only constant (config._memo)."""
    m1, m2, m3 = config.receivers
    A = 2.0 * np.stack([m2 - m1, m3 - m1])
    rhs = np.array([float(m2 @ m2 - m1 @ m1), float(m3 @ m3 - m1 @ m1)])
    o = np.linalg.solve(A, rhs)
    o.setflags(write=False)
    return o, float(np.linalg.norm(m1 - o))


def _arc_table(config: SensorConfig) -> MappingProxyType:
    """Label -> read-only fields of the 12 conic arcs, all but the configuration:
    planes from the facet table, endpoints from _node_images; a config-only constant."""
    a, b, c = config._memo(_abc)
    d21, d31, d32 = config.d21, config.d31, config.d32
    N1, N2, N3 = config._memo(_node_images)
    planes = dict(zip(Q3_FACETS, config._memo(_facet_table)))
    one = np.ones(3)
    one.setflags(write=False)
    X2, Y2, Z2, ONE = (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0)
    X, Y, Z, XY = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)

    def arc(label, quad, endpoints):
        plane = np.array(planes[label])
        plane.setflags(write=False)
        bounded = len(endpoints) == 2
        return label, MappingProxyType(dict(
            label=label, plane=plane, quadratic=MappingProxyType(quad), bounded=bounded,
            endpoints=endpoints, direction=None if bounded else one))

    # every quadratic is signed <= 0 on its fill side, as every facet row's
    # slack is >= 0 on the feasible side (hull_boundary_classify reads both)
    return MappingProxyType(dict((
        # bounded arcs over the receiver segments
        arc("r30", {X2: 1.0, Z2: -1.0, X: -2 * c * d31, ONE: d31 * d31}, (N1, N2)),
        arc("r20", {X2: 1.0, Y2: -1.0, X: -2 * c * d21, ONE: d21 * d21}, (N1, N3)),
        arc("r10", {X2: -1.0, Y2: 1.0, Y: 2 * b * d21, ONE: d21 * d21}, (N2, N3)),
        # unbounded arcs over the outward rays
        arc("r3-", {Y2: 1.0, Z2: -1.0, Y: -2 * b * d32, ONE: d32 * d32}, (N2,)),
        arc("r3+", {Y2: 1.0, Z2: -1.0, Y: 2 * b * d32, ONE: d32 * d32}, (N1,)),
        arc("r2-", {Y2: -1.0, Z2: 1.0, Z: 2 * a * d32, ONE: d32 * d32}, (N3,)),
        arc("r2+", {Y2: -1.0, Z2: 1.0, Z: -2 * a * d32, ONE: d32 * d32}, (N1,)),
        arc("r1-", {X2: -1.0, Z2: 1.0, Z: 2 * a * d31, ONE: d31 * d31}, (N3,)),
        arc("r1+", {X2: -1.0, Z2: 1.0, Z: -2 * a * d31, ONE: d31 * d31}, (N2,)),
        # circumcircle arcs
        arc("Gamma3", {X2: 1.0, Y2: 1.0, XY: 2 * a, ONE: -d21 * d21}, (N1, N2)),
        arc("Gamma2", {X2: 1.0, Y2: 1.0, XY: -2 * a, ONE: -d21 * d21}, (N1, N3)),
        arc("Gamma1", {X2: 1.0, Y2: 1.0, XY: -2 * a, ONE: -d21 * d21}, (N2, N3)),
    )))


def conic_arc(config: SensorConfig, label: str) -> ConicArc:
    """The labeled conic arc (see ARC_LABELS for the 12 valid labels)."""
    _require_general(config)
    table = config._memo(_arc_table)
    if label not in table:
        raise UnknownLabel(f"unknown arc label {label!r}; valid: {ARC_LABELS}")
    return ConicArc(_config=config, **table[label])


# ---------------------------------------------------------------------------
# tangent cones at nodes

@dataclass(frozen=True, eq=False)
class TangentCone:
    """Quadric cone of the quartic at a node (vertex at the node).

    matrix is the Hessian of the rescaled quartic at the node, scaled to unit
    max-absolute entry; evaluate takes rescaled 4-vectors, evaluate_affine
    takes range triples.
    """

    node: Node
    matrix: np.ndarray
    form: HomogeneousForm

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        val = np.einsum("...i,ij,...j->...", t, self.matrix, t)
        if val.ndim == 0:
            return float(val)
        return val

    def evaluate_affine(self, T) -> np.ndarray:
        return self.evaluate(self.form.embed(T))


def tangent_cone(config: SensorConfig, node) -> TangentCone:
    """Tangent cone at a node, given by Node, label, affine point, or 4-vector.

    Raises NotANode when the input matches none of the 16 nodes.
    """
    _require_general(config)
    nat = nodes_and_tropes(config)
    target = None
    if isinstance(node, Node):
        node = node.label
    if isinstance(node, str):
        try:
            target = nat.node(node)
        except UnknownLabel:
            raise NotANode(f"no node labeled {node!r}")
    else:
        v = np.asarray(node, dtype=float).reshape(-1)
        if v.shape[0] == 3:
            for cand in nat.nodes:
                if cand.affine is not None and (
                    np.linalg.norm(v - cand.affine) <= 1e-6 * config.d_max
                ):
                    target = cand
                    break
        elif v.shape[0] == 4:
            vn = v / np.linalg.norm(v)
            for cand in nat.nodes:
                pn = cand.homogeneous / np.linalg.norm(cand.homogeneous)
                if min(np.linalg.norm(vn - pn), np.linalg.norm(vn + pn)) <= 1e-6:
                    target = cand
                    break
        else:
            raise DimensionMismatch("node must be a label, a 3-vector, or a 4-vector")
        if target is None:
            raise NotANode("point does not match any node of the quartic")
    form = homogeneous_form(config)
    H = form.hessian(target.homogeneous)
    H = H / np.max(np.abs(H))
    H.setflags(write=False)
    return TangentCone(node=target, matrix=H, form=form)


# ---------------------------------------------------------------------------
# curvature of the image surface

def _areas_and_squares(config: SensorConfig, x) -> tuple:
    """((h1, h2, h3), (q1, q2, q3)) at source(s) x (..., 2): h_i is twice the signed
    area of (x, m_j, m_k) in cyclic order, q_i the squared range |x - m_i|^2."""
    d1, d2, d3 = (x - config.m(i) for i in (1, 2, 3))
    return ((_cross2(d2, d3), _cross2(d3, d1), _cross2(d1, d2)),
            tuple(np.sum(d * d, axis=-1) for d in (d1, d2, d3)))


def gaussian_curvature(config: SensorConfig, x):
    """Gaussian curvature of the range surface at the image of x.

    Vanishes exactly on the receiver lines and the circumcircle (whose images
    are the 12 conic arcs) and is undefined at the receivers themselves
    (NaN there: the image has a node).  Scales as 1/length^2.
    """
    _require_general(config)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise DimensionMismatch("expected planar points")
    (h1, h2, h3), (q1, q2, q3) = _areas_and_squares(config, x)
    num = h1 * h2 * h3 * (q1 * h1 + q2 * h2 + q3 * h3)
    den = (q1 * h1 ** 2 + q2 * h2 ** 2 + q3 * h3 ** 2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.nan)
    tol = (_RTOL * config.d_max) ** 2
    at_receiver = np.minimum(np.minimum(q1, q2), q3) <= tol * 1e-6
    K = np.where(at_receiver, np.nan, K)
    if K.ndim == 0:
        return float(K)
    return K


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
    T = _measurement(T, 3).tolist()
    if config.is_collinear:
        Tc = [T[k] for k in config.kind.order]
        rows = zip(*(col.tolist() for col in config._memo(_collinear_facet_table)))
        residuals = dict(zip(Q3_FACETS_COLLINEAR, _slacks(rows, *Tc)))
    else:
        residuals = _q3_residuals_general(config, *T)
    active, verdict = _facet_verdict(residuals.items(), rtol, config.d_max)
    return Q3Report(residuals=residuals, verdict=verdict, active=active)


_QUADRATIC_FACETS = frozenset(("Gamma1", "Gamma2", "Gamma3"))  # slacks of length^2


def _facet_verdict(slacks, rtol: float, d_max: float) -> tuple:
    """(active facets, verdict) of (facet, signed slack) pairs; each tolerance is
    rtol * d_max, or rtol * d_max^2 on the _QUADRATIC_FACETS."""
    tol_lin, tol_quad = rtol * d_max, rtol * d_max ** 2
    active, outside = [], False
    for k, v in slacks:
        tol = tol_quad if k in _QUADRATIC_FACETS else tol_lin
        if v < -tol:
            outside = True
        elif v <= tol:
            active.append(k)
    return tuple(active), "Outside" if outside else "OnFacet" if active else "Interior"


# ---------------------------------------------------------------------------
# convex hull boundary of the image

@dataclass(frozen=True)
class HullComponent:
    """A boundary component of the convex hull of the range surface.

    name    : "V0".."V3" (positively curved surface regions), "F_ijk"
              (circumcircle-arc fills), "G_ijk" (segment-arc fills),
              "Li+"/"Li-" (unbounded strips), or "UnboundedEdgei"
    in_hull : False only for the three ideal edges, which the hull omits
    details : diagnostic values used by the classification
    """

    name: str
    in_hull: bool
    details: dict


# active facet -> the fill it carries, in the order fills are tried
_FILLS = {
    "Gamma1": "F_123", "Gamma2": "F_213", "Gamma3": "F_312",
    "r10": "G_123", "r20": "G_213", "r30": "G_312",
    "r1+": "L1+", "r1-": "L1-", "r2+": "L2+", "r2-": "L2-", "r3+": "L3+", "r3-": "L3-",
}


def hull_boundary_classify(config: SensorConfig, T, rtol: float = _RTOL) -> HullComponent:
    """Name the hull-boundary component containing a range triple.

    Raises NotOnBoundary for points outside the feasible polyhedron, strictly
    inside the hull, or on a facet plane but beyond its fill region.
    """
    from .toa3 import invert3

    _require_general(config)
    T = _measurement(T, 3)
    d_max = config.d_max
    tol_lin = rtol * d_max
    tol_quad = rtol * d_max ** 2

    # 1) ideal edges from the receiver-image nodes along (1,1,1)
    for i, node in enumerate(config._memo(_node_images), start=1):
        diff = T - node
        t = float(np.mean(diff))
        if np.max(np.abs(diff - t)) <= tol_lin and t >= -tol_lin:
            return HullComponent(
                name=f"UnboundedEdge{i}", in_hull=False,
                details={"node": i, "parameter": t},
            )

    q3 = q3_membership(config, T, rtol=rtol)
    if q3.verdict == "Outside":
        raise NotOnBoundary("point lies outside the feasible polyhedron")

    # 2) on the quartic: positively curved surface regions V0..V3
    if abs(quartic_residual(config, T, normalized=True)) <= 1e-9:
        sols = invert3(config, T, rtol=1e-5)
        if sols.points:
            x = sols.points[0]
            m1, m2, m3 = config.receivers
            sgn = math.copysign(1.0, float(_cross2(m2 - m1, m3 - m1)))
            h, q = _areas_and_squares(config, x)
            h = np.array(h) * sgn
            circ = float(q[0] * h[0] + q[1] * h[1] + q[2] * h[2])
            circ_tol = rtol * d_max ** 4
            neg = [i for i in range(3) if h[i] < -tol_quad]
            details = {"source": x, "h": h, "circumcircle": circ}
            if not neg and circ >= -circ_tol:
                return HullComponent(name="V0", in_hull=True, details=details)
            if len(neg) == 1 and circ <= circ_tol:
                return HullComponent(name=f"V{neg[0] + 1}", in_hull=True, details=details)
        raise NotOnBoundary(
            "point is on the range surface but in a negatively curved region "
            "(interior of the hull)"
        )

    if q3.verdict != "OnFacet":
        raise NotOnBoundary("point is strictly inside the feasible polyhedron, off the surface")

    # 3) flat fills on the active facet planes (F over circumcircle arcs,
    #    G over segment arcs, L strips along ray arcs): each fill is the side
    #    of its conic where the arc quadratic is <= 0; its chord or ideal edge
    #    lies on another facet plane, which Q3 membership has already checked
    arcs = config._memo(_arc_table)
    for facet, name in _FILLS.items():
        if facet in q3.active and _poly_eval(arcs[facet]["quadratic"], T) <= tol_quad:
            return HullComponent(
                name=name, in_hull=True, details={"facet": facet, "q3": q3.residuals},
            )
    raise NotOnBoundary("point is on a facet plane but outside its fill region")


# ---------------------------------------------------------------------------
# collinear degeneration

def collinear_degeneration_check(
    config: SensorConfig, n: int = 512, seed: int = 0, box: float = 3.0
) -> float:
    """Max normalized gap between the quartic and d21^2 * (Stewart quadric)^2.

    Samples n range triples uniformly in [0, box*d21]^3 and returns
    max |quartic(T) - d21^2 sigma(T)^2| / d_max^6.  Exactly zero (to rounding)
    for collinear receivers, and small of order (offset/d21)^2 for nearly
    collinear ones.  Raises NotCollinear when no middle receiver exists.
    """
    _require_planar_triple(config)
    # the dot test tolerates nearly collinear receivers, which config.kind does not
    canonical = _canonical_collinear(config.receivers)
    if canonical is None:
        raise NotCollinear(
            "no middle receiver (all angles acute); configuration is far from collinear"
        )
    order, rho, d21 = canonical
    # the Stewart quadric in canonical labels, evaluated on the canonical columns
    sigma = {
        (2, 0, 0): 1.0 - rho,
        (0, 2, 0): rho,
        (0, 0, 2): -1.0,
        (0, 0, 0): -rho * (1.0 - rho) * d21 * d21,
    }
    T = np.random.default_rng(seed).uniform(0.0, box * d21, size=(n, 3))
    s = _poly_eval(sigma, T[:, list(order)])
    gap = _poly_eval(config._memo(_quartic_terms), T) - d21 * d21 * s * s
    return float(np.max(np.abs(gap)) / config.d_max ** 6)
