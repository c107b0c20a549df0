"""Shared fixtures and hypothesis strategies for the rangegeom test suite."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

import rangegeom as rg

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")

_COORD = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# fixed configurations

@pytest.fixture(scope="session")
def right():
    return rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def equilateral():
    return rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])


@pytest.fixture(scope="session")
def scalene():
    return rg.validate_config([(0.2, -0.1), (1.3, 0.4), (0.5, 1.1)])


@pytest.fixture(scope="session")
def collinear_mid():
    return rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)])


@pytest.fixture(scope="session")
def pair():
    return rg.validate_config([(0.0, 0.0), (1.0, 0.0)])


@pytest.fixture(scope="session")
def right3d():
    return rg.validate_config([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])


@pytest.fixture(scope="session")
def pair3d():
    return rg.validate_config([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])


@pytest.fixture(scope="session")
def collinear3d():
    return rg.validate_config([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.0, 0.0)])


# ---------------------------------------------------------------------------
# strategies

@st.composite
def triangles(draw, quality: float = 0.05):
    """Non-collinear 3-receiver configs with a lower bound on triangle quality."""
    pts = np.array([[draw(_COORD), draw(_COORD)] for _ in range(3)])
    v, w = pts[1] - pts[0], pts[2] - pts[0]
    d_max = max(
        float(np.linalg.norm(v)),
        float(np.linalg.norm(w)),
        float(np.linalg.norm(pts[2] - pts[1])),
    )
    assume(d_max >= 0.5)
    area2 = abs(float(v[0] * w[1] - v[1] * w[0]))
    assume(area2 >= quality * d_max * d_max)
    return rg.validate_config(pts)


@st.composite
def receiver_pairs(draw):
    """Two distinct receivers."""
    pts = np.array([[draw(_COORD), draw(_COORD)] for _ in range(2)])
    assume(float(np.linalg.norm(pts[1] - pts[0])) >= 0.5)
    return rg.validate_config(pts)


@st.composite
def collinear_triples(draw):
    """Exactly collinear configs (axis-aligned so the cross product is exact 0).

    Receivers are listed endpoints-first; the canonical relabeling may still
    swap the two endpoints, so consumers should go through config.kind.order.
    """
    horizontal = draw(st.booleans())
    base = draw(st.floats(min_value=-3.0, max_value=3.0))
    off = draw(st.floats(min_value=-3.0, max_value=3.0))
    length = draw(st.floats(min_value=0.5, max_value=4.0))
    rho = draw(st.floats(min_value=0.1, max_value=0.9))
    s = (base, base + length, base + rho * length)
    pts = [(si, off) for si in s] if horizontal else [(off, si) for si in s]
    cfg = rg.validate_config(pts)
    assume(cfg.is_collinear)
    return cfg


@st.composite
def sources(draw, box: float = 6.0):
    """Planar source positions."""
    return np.array([
        draw(st.floats(min_value=-box, max_value=box)),
        draw(st.floats(min_value=-box, max_value=box)),
    ])


@st.composite
def sources3d(draw, box: float = 4.0):
    return np.array([
        draw(st.floats(min_value=-box, max_value=box)),
        draw(st.floats(min_value=-box, max_value=box)),
        draw(st.floats(min_value=-box, max_value=box)),
    ])


def away_from_receivers(config, x, margin: float = 1e-3) -> bool:
    """True when x is at least margin*d_max from every receiver."""
    x = np.asarray(x, dtype=float)
    return all(
        float(np.linalg.norm(x - np.asarray(m, dtype=float))) >= margin * config.d_max
        for m in config.receivers
    )


def band_edge(inside, t_in: float, t_out: float) -> tuple:
    """Adjacent floats (t_in, t_out) between which the predicate inside flips, bisected from a
    parameter t_in where it holds to a parameter t_out where it does not."""
    assert inside(t_in) and not inside(t_out)
    while (mid := 0.5 * (t_in + t_out)) not in (t_in, t_out):
        if inside(mid):
            t_in = mid
        else:
            t_out = mid
    return t_in, t_out
