"""Noise simulation: NoiseSpec validation, determinism, clean truth, statistics."""
import numpy as np
import pytest

import rangegeom as rg


def test_noise_spec_validation():
    rg.NoiseSpec(sigma=0.0)
    rg.NoiseSpec(sigma=0.1, bias=-0.2, seed=7)
    rg.NoiseSpec(sigma=0.1, seed=np.int64(3))
    with pytest.raises(rg.InvalidParam):
        rg.NoiseSpec(sigma=-0.1)
    with pytest.raises(rg.InvalidParam):
        rg.NoiseSpec(sigma=float("nan"))
    with pytest.raises(rg.InvalidParam):
        rg.NoiseSpec(sigma=0.1, bias=float("inf"))
    for seed in (-1, 1.5, "7", None):  # InvalidParam (CLI exit 3), not numpy's ValueError
        with pytest.raises(rg.InvalidParam):
            rg.NoiseSpec(sigma=0.1, seed=seed)


def test_zero_sigma_is_exact(right):
    spec = rg.NoiseSpec(sigma=0.0, bias=0.25)
    batch = rg.gen_noisy_toa(right, (0.3, 0.4), spec, n=5)
    assert batch.samples.shape == (5, 3)
    expect = rg.forward3(right, (0.3, 0.4)) + 0.25
    assert np.array_equal(batch.samples, np.tile(expect, (5, 1)))
    assert np.array_equal(batch.clean, rg.forward3(right, (0.3, 0.4)))


def test_seeded_reproducibility(right):
    spec = rg.NoiseSpec(sigma=0.05, seed=42)
    a = rg.gen_noisy_toa(right, (0.3, 0.4), spec, n=100)
    b = rg.gen_noisy_toa(right, (0.3, 0.4), spec, n=100)
    assert np.array_equal(a.samples, b.samples)
    other = rg.gen_noisy_toa(right, (0.3, 0.4), rg.NoiseSpec(sigma=0.05, seed=43), n=100)
    assert not np.array_equal(a.samples, other.samples)


def test_metadata(right):
    spec = rg.NoiseSpec(sigma=0.05, bias=0.01, seed=9)
    batch = rg.gen_noisy_toa(right, (0.3, 0.4), spec, n=3)
    assert batch.metadata == {
        "model": "gaussian-iid",
        "sigma": 0.05,
        "bias": 0.01,
        "seed": 9,
        "n": 3,
    }


def test_tdoa_variant(right):
    spec = rg.NoiseSpec(sigma=0.0)
    batch = rg.gen_noisy_tdoa(right, (0.3, 0.4), spec, n=2)
    assert batch.samples.shape == (2, 2)
    assert np.array_equal(batch.clean, rg.tau_map(right, (0.3, 0.4)))
    assert np.array_equal(batch.samples[0], batch.clean)


def test_statistical_sanity(right):
    spec = rg.NoiseSpec(sigma=0.02, seed=0)
    batch = rg.gen_noisy_toa(right, (0.3, 0.4), spec, n=20_000)
    err = batch.samples - batch.clean
    assert np.max(np.abs(err.mean(axis=0))) <= 5e-4      # ~3.5 sigma/sqrt(n)
    assert np.max(np.abs(err.std(axis=0) - 0.02)) <= 1e-3


def test_sample_count_validation(right):
    with pytest.raises(rg.InvalidParam):
        rg.gen_noisy_toa(right, (0.3, 0.4), rg.NoiseSpec(sigma=0.1), n=0)
