"""Measurement noise simulation for range and range-difference data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SensorConfig
from .errors import InvalidParam


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise: iid N(bias, sigma^2) per channel."""

    sigma: float
    bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0.0:
            raise InvalidParam(f"sigma must be finite and >= 0, got {self.sigma}")
        if not np.isfinite(self.bias):
            raise InvalidParam(f"bias must be finite, got {self.bias}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidParam(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class NoisyBatch:
    """A batch of noisy measurements with the clean truth and provenance."""

    samples: np.ndarray
    clean: np.ndarray
    metadata: dict = field(default_factory=dict)


def _batch(clean: np.ndarray, spec: NoiseSpec, n: int) -> NoisyBatch:
    if n < 1:
        raise InvalidParam(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    eps = rng.normal(0.0, spec.sigma, size=(n, clean.shape[0])) if spec.sigma > 0 \
        else np.zeros((n, clean.shape[0]))
    samples = clean[None, :] + eps + spec.bias
    metadata = {
        "model": "gaussian-iid",
        "sigma": spec.sigma,
        "bias": spec.bias,
        "seed": spec.seed,
        "n": n,
    }
    return NoisyBatch(samples=samples, clean=clean, metadata=metadata)


def gen_noisy_toa(config: SensorConfig, x, spec: NoiseSpec, n: int = 1) -> NoisyBatch:
    """n noisy range vectors for a source at x."""
    clean = np.asarray(config.distances(x), dtype=float).reshape(-1)
    return _batch(clean, spec, n)


def gen_noisy_tdoa(config: SensorConfig, x, spec: NoiseSpec, n: int = 1) -> NoisyBatch:
    """n noisy range-difference pairs for a source at x."""
    from .tdoa import tau_map  # here, so TOA-only callers never load tdoa

    clean = np.asarray(tau_map(config, x), dtype=float).reshape(-1)
    return _batch(clean, spec, n)
