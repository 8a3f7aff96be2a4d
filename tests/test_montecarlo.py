"""Tests for the Monte Carlo plumbing: streams, intervals, slope fits."""

import numpy as np
import pytest

from laws import default_fit_window, fit_diversity
from wlmimo.montecarlo import (MAX_COUNT, Z95, DomainError, check_count,
                               derive_rng, wilson_interval)


def test_derive_rng_is_deterministic():
    a = derive_rng(42, "task", 3).standard_normal(8)
    b = derive_rng(42, "task", 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_derive_rng_streams_differ_by_key():
    base = derive_rng(42, "task", 3).standard_normal(8)
    other_key = derive_rng(42, "task", 4).standard_normal(8)
    other_seed = derive_rng(43, "task", 3).standard_normal(8)
    assert not np.array_equal(base, other_key)
    assert not np.array_equal(base, other_seed)


def test_check_count_takes_what_an_int64_counter_holds():
    assert check_count("trials", 7, 7) == 7
    assert check_count("trials", MAX_COUNT, 1) == MAX_COUNT == 2**63 - 1
    with pytest.raises(DomainError, match="trials must be at least 7, not 6"):
        check_count("trials", 6, 7)
    with pytest.raises(DomainError, match="at most 9223372036854775807"):
        check_count("trials", MAX_COUNT + 1, 1)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 1.0
    lo, hi = wilson_interval(50, 50)
    assert 0.0 < lo < 1.0 and hi == 1.0


def test_wilson_interval_known_value():
    # closed form for 5/10 at z = Z95: centre 0.5, halfwidth z*sqrt(...)/(1+z^2/n)
    z = Z95
    lo, hi = wilson_interval(5, 10)
    denom = 1 + z * z / 10
    centre = (0.5 + z * z / 20) / denom
    half = z * np.sqrt(0.25 / 10 + z * z / 400) / denom
    assert lo == pytest.approx(centre - half, abs=1e-12)
    assert hi == pytest.approx(centre + half, abs=1e-12)


def test_wilson_interval_vectorized():
    counts = np.array([0, 3, 50])
    lo, hi = wilson_interval(counts, 50)
    assert lo.shape == hi.shape == (3,)
    assert np.all(lo <= counts / 50) and np.all(counts / 50 <= hi)


def test_wilson_interval_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_coverage_is_nominal():
    """Coverage of the 95% interval stays within 2% of nominal."""
    rng = np.random.default_rng(2024)
    p, n, reps = 0.3, 500, 20_000
    hits = rng.binomial(n, p, size=reps)
    lo, hi = wilson_interval(hits, n)
    coverage = np.mean((lo <= p) & (p <= hi))
    assert abs(coverage - 0.95) < 0.02


def test_fit_diversity_recovers_exact_power_law():
    snr_db = np.arange(10.0, 41.0, 5.0)
    snr = 10.0 ** (snr_db / 10.0)
    p = (2.0 * snr) ** -3.0
    fit = fit_diversity(snr_db, p, window=np.ones(snr_db.size, dtype=bool))
    assert fit.d_hat == pytest.approx(3.0, abs=1e-9)
    assert fit.c_hat == pytest.approx(2.0, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == snr_db.size


def test_fit_diversity_tolerates_noise():
    rng = np.random.default_rng(5)
    snr_db = np.arange(10.0, 41.0, 2.0)
    snr = 10.0 ** (snr_db / 10.0)
    p = (1.5 * snr) ** -2.0 * np.exp(rng.normal(0, 0.05, snr_db.size))
    fit = fit_diversity(snr_db, p, window=np.ones(snr_db.size, dtype=bool))
    assert fit.d_hat == pytest.approx(2.0, abs=0.1)


def test_default_fit_window_drops_sparse_and_saturated_points():
    snr_db = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    trials = 10_000
    # counts: 5000 (saturated), 2000, 400, 50, 5 (too few)
    p = np.array([0.5, 0.2, 0.04, 0.005, 0.0005])
    mask = default_fit_window(snr_db, p, trials)
    assert mask.tolist() == [False, False, True, True, False]


def test_default_fit_window_keeps_top_span_only():
    snr_db = np.arange(0.0, 35.0, 5.0)
    p = np.full(snr_db.size, 0.01)
    mask = default_fit_window(snr_db, p, trials=100_000, span_db=10.0)
    assert snr_db[mask].min() == 20.0 and snr_db[mask].max() == 30.0


def test_default_fit_window_raises_when_empty():
    with pytest.raises(ValueError):
        default_fit_window(np.array([10.0, 20.0]), np.array([1.0, 0.0]), 100)


def test_fit_diversity_needs_two_points():
    with pytest.raises(ValueError):
        fit_diversity([10.0, 20.0], [0.1, 0.01],
                      window=np.array([True, False]))
