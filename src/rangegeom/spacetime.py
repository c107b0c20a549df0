"""Minkowski linear algebra in 2+1 and 3+1 dimensions.

Vectors are plain numpy arrays whose *last* component is the time coordinate;
the metric is diag(+1, ..., +1, -1).  With e1, e2 spatial and e3 the time
axis, the 2+1-dimensional Hodge cross product used here is normalized so that

    hodge_cross(e1, e2) = -e3,
    hodge_cross(e1, e3) = -e2,
    hodge_cross(e2, e3) = +e1.

A direct consequence (and the reason for this sign choice) is that

    triple_form(u, v, w) := minkowski_inner(hodge_cross(u, v), w)

coincides exactly with the Euclidean determinant det[u; v; w], so the standard
basis has triple_form(e1, e2, e3) = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _cross3  # noqa: F401  its home is config.py; kept importable from here


@dataclass(frozen=True)
class SpacetimeVec3:
    """A vector of R^{2,1}: spatial part (x, y), time component t."""

    x: float
    y: float
    t: float

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.t], dtype=dtype)

    @classmethod
    def from_array(cls, v) -> "SpacetimeVec3":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class SpacetimeVec4:
    """A vector of R^{3,1}: spatial part (x, y, z), time component t."""

    x: float
    y: float
    z: float
    t: float

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.z, self.t], dtype=dtype)

    @classmethod
    def from_array(cls, v) -> "SpacetimeVec4":
        v = np.asarray(v, dtype=float)
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def lift(spatial, t: float = 0.0) -> np.ndarray:
    """Append a time component to a spatial vector."""
    spatial = np.asarray(spatial, dtype=float)
    return np.append(spatial, t)


def _cross2(u, v):
    """cross2 without the float conversion, also on matching (..., 2) arrays of vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def cross2(u, v) -> float:
    """Scalar cross product (2D Hodge of the wedge) of two planar vectors."""
    return float(_cross2(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def minkowski_inner(u, v) -> float:
    """Inner product with signature (+, ..., +, -); works in 2+1 and 3+1 D."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[-1] not in (3, 4):
        raise ValueError(f"expected matching 3- or 4-vectors, got {u.shape} and {v.shape}")
    return float(np.dot(u[:-1], v[:-1]) - u[-1] * v[-1])


def hodge_cross(u, v) -> np.ndarray:
    """Minkowski-orthogonal complement of span(u, v) in R^{2,1}.

    Component-wise, with c_ij = u_i v_j - u_j v_i:

        hodge_cross(u, v) = (c_23, -c_13, -c_12).

    Bilinear and antisymmetric; the result w satisfies
    minkowski_inner(w, u) = minkowski_inner(w, v) = 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("hodge_cross is defined for 3-vectors of R^{2,1}")
    c23 = u[1] * v[2] - u[2] * v[1]
    c13 = u[0] * v[2] - u[2] * v[0]
    c12 = u[0] * v[1] - u[1] * v[0]
    return np.array([c23, -c13, -c12])


def triple_form(u, v, w) -> float:
    """Alternating trilinear form on R^{2,1}, normalized to the standard basis.

    Equals minkowski_inner(hodge_cross(u, v), w), which with our sign
    conventions is exactly the Euclidean determinant det[u; v; w].
    """
    return minkowski_inner(hodge_cross(u, v), w)
