"""Tests for channel draws, the real stacking, and Haar vectors."""

import numpy as np
import pytest
from scipy import stats

from wlmimo.random_matrix import (
    sample_channel,
    sample_haar_unit_vector,
    wl_transform,
)


def test_sample_channel_shapes():
    rng = np.random.default_rng(1)
    single = sample_channel(3, 2, rng)
    stack = sample_channel(3, 2, rng, size=5)
    assert single.shape == (3, 2) and np.iscomplexobj(single)
    assert stack.shape == (5, 3, 2)


def test_sample_channel_moments():
    rng = np.random.default_rng(2)
    h = sample_channel(4, 4, rng, size=20_000).ravel()
    assert abs(h.mean()) < 0.01
    # unit total variance, split evenly between the parts
    assert np.var(h.real) == pytest.approx(0.5, rel=0.02)
    assert np.var(h.imag) == pytest.approx(0.5, rel=0.02)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)


def test_sample_channel_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_channel(0, 2, rng)


def test_wl_transform_layout():
    rng = np.random.default_rng(3)
    hbar = sample_channel(3, 2, rng)
    h = wl_transform(hbar)
    assert h.shape == (6, 2)
    assert not np.iscomplexobj(h)
    assert np.array_equal(h[:3], hbar.real)
    assert np.array_equal(h[3:], hbar.imag)


def test_wl_transform_batched():
    rng = np.random.default_rng(4)
    hbar = sample_channel(2, 2, rng, size=7)
    assert wl_transform(hbar).shape == (7, 4, 2)


def test_wl_transform_rejects_real_input():
    with pytest.raises(TypeError):
        wl_transform(np.ones((4, 2)))


def test_wl_transform_preserves_column_energy():
    rng = np.random.default_rng(5)
    hbar = sample_channel(3, 2, rng)
    h = wl_transform(hbar)
    assert np.linalg.norm(h, axis=0) == pytest.approx(
        np.linalg.norm(hbar, axis=0))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_haar_vectors_unit_norm(kind):
    rng = np.random.default_rng(7)
    v = sample_haar_unit_vector(6, rng, size=100, kind=kind)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    assert np.iscomplexobj(v) == (kind == "complex")


def test_haar_vector_single_shape():
    rng = np.random.default_rng(8)
    assert sample_haar_unit_vector(4, rng).shape == (4,)


def test_haar_first_coordinate_law_real():
    """v_1^2 of a real Haar vector follows Beta(1/2, (n-1)/2)."""
    rng = np.random.default_rng(9)
    n = 5
    v = sample_haar_unit_vector(n, rng, size=40_000, kind="real")
    stat = stats.kstest(v[:, 0] ** 2, stats.beta(0.5, (n - 1) / 2).cdf)
    assert stat.pvalue > 0.01


def test_haar_first_coordinate_law_complex():
    """|v_1|^2 of a complex Haar vector follows Beta(1, n-1)."""
    rng = np.random.default_rng(10)
    n = 5
    v = sample_haar_unit_vector(n, rng, size=40_000, kind="complex")
    stat = stats.kstest(np.abs(v[:, 0]) ** 2, stats.beta(1, n - 1).cdf)
    assert stat.pvalue > 0.01


def test_haar_coordinates_exchangeable():
    rng = np.random.default_rng(11)
    v = sample_haar_unit_vector(8, rng, size=50_000, kind="real")
    means = (v ** 2).mean(axis=0)
    # each squared coordinate averages 1/n
    assert np.allclose(means, 1.0 / 8.0, atol=3 * (v[:, 0] ** 2).std() / np.sqrt(50_000))


def test_haar_rejects_unknown_kind():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        sample_haar_unit_vector(3, rng, kind="quaternion")
