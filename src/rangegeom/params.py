"""Shape parameters of a receiver triangle and the Cayley cubic.

A triangle is determined up to similarity by two cosines

    a = cos(angle at m3),   c = cos(angle at m1),

with b = -cos(angle at m2) dependent:  b = a c - sqrt((1-a^2)(1-c^2)),
i.e. b = cos(alpha + gamma).  The triple (a, b, c) always satisfies the
Cayley cubic relation  2abc - a^2 - b^2 - c^2 + 1 = 0, and the quartic range
surface of the triangle has exactly these three numbers as its coefficients
in rescaled coordinates.  Valid parameter points form the open region
|a| < 1, |c| < 1, a + c > 0 (the angle sum alpha + gamma must stay below pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SensorConfig, validate_config
from .errors import DimensionMismatch, InvalidParam


@dataclass(frozen=True)
class ParamPoint:
    """A point in the two-cosine parameter space, with an overall scale."""

    a: float
    c: float
    scale: float = 1.0

    def __post_init__(self):
        if not (abs(self.a) < 1.0):
            raise InvalidParam(f"need |a| < 1, got a = {self.a}")
        if not (abs(self.c) < 1.0):
            raise InvalidParam(f"need |c| < 1, got c = {self.c}")
        if not (self.a + self.c > 0.0):
            raise InvalidParam(
                f"need a + c > 0 (angle sum below pi), got a + c = {self.a + self.c}"
            )
        if not (self.scale > 0.0):
            raise InvalidParam(f"need scale > 0, got {self.scale}")

    @property
    def b(self) -> float:
        return self.a * self.c - math.sqrt((1 - self.a ** 2) * (1 - self.c ** 2))


def cayley_residual(a: float, b: float, c: float) -> float:
    """Value of the Cayley cubic 2abc - a^2 - b^2 - c^2 + 1 (zero for triangles)."""
    return 2 * a * b * c - a * a - b * b - c * c + 1.0


def _abc(config: SensorConfig) -> tuple:
    """Cosine parameters of the triangle: a = cos(angle at m3),
    b = -cos(angle at m2), c = cos(angle at m1); a config-only constant (config._memo)."""
    _, _, _, p12, p13, p23 = config._gram
    d21, d31, d32 = (d * config._unit for d in (config.d21, config.d31, config.d32))  # as _gram
    return p23 / (d31 * d32), p13 / (d21 * d32), p12 / (d21 * d31)


def abc_from_config(config: SensorConfig) -> tuple:
    """Cosine parameters (a, b, c) of a three-receiver configuration.

    Works for collinear triples too (the cosines degenerate to +-1 corner
    values on the Cayley cubic).
    """
    if config.n != 3:
        raise DimensionMismatch("expected a three-receiver configuration")
    return config._memo(_abc)


def config_from_param(p: ParamPoint) -> SensorConfig:
    """Canonical receiver placement realizing a parameter point.

    m1 at the origin, m2 = (scale, 0), m3 in the upper half plane; the
    baseline d21 equals the scale.
    """
    alpha = math.acos(p.a)   # angle at m3
    gamma = math.acos(p.c)   # angle at m1
    beta = alpha + gamma
    d31 = p.scale * math.sin(beta) / math.sin(alpha)
    m3 = (d31 * math.cos(gamma), d31 * math.sin(gamma))
    return validate_config([(0.0, 0.0), (p.scale, 0.0), m3])


def param_from_config(config: SensorConfig) -> ParamPoint:
    """Parameter point of a configuration (InvalidParam when collinear)."""
    a, _, c = abc_from_config(config)
    return ParamPoint(a=a, c=c, scale=config.d21)
