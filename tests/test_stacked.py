"""Tests for the stacked small-matrix kernels not covered by their callers.

The Gram and Cholesky kernels are checked through the receivers and the
MMSE residual against the LAPACK routes they replace; the bidiagonal
eigenvalue kernel through the eigenvalue sampler.  Here: its edge cases,
and the Sturm count by which the sampler screens its draws.
"""

import numpy as np
import pytest

import exact
from wlmimo import stacked
from wlmimo.montecarlo import EstimateError
from wlmimo.stacked import (cholesky_lower, count_below, inverse_diagonal,
                            kth_eigenvalue, stacked_gram)


def bidiagonals(n, draws, seed):
    rng = np.random.default_rng(seed)
    return (rng.chisquare(n + 2.0, (n, draws)),
            rng.chisquare(2.0, (n - 1, draws)))


@pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (1, 3)])
def test_kth_eigenvalue_is_relative_to_a_tiny_eigenvalue(k, n):
    # One diagonal entry 1e-200 puts an eigenvalue near 1e-200 next to
    # ones near 1: tr(W) eps would swamp it, the kernel must not.
    d2, e2 = bidiagonals(n, 20, 35)
    d2[n - 1] *= 1e-200
    got = kth_eigenvalue(d2, e2, k)
    for j in range(d2.shape[1]):
        assert exact.sturm_count(d2[:, j], e2[:, j], got[j] * (1 - 1e-12)) == k - 1
        assert exact.sturm_count(d2[:, j], e2[:, j], got[j] * (1 + 1e-12)) >= k


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_kth_eigenvalue_of_an_empty_stack_is_empty(k, n):
    # A screened block may keep no draw.
    got = kth_eigenvalue(np.empty((n, 0)), np.empty((n - 1, 0)), k)
    assert got.shape == (0,)


@pytest.mark.parametrize("k", [1])
def test_kth_eigenvalue_refuses_to_return_unconverged_values(monkeypatch, k):
    # Newton from below, the one iterative root (k = 1, n > 2).
    d2, e2 = bidiagonals(3, 100, 36)
    monkeypatch.setattr(stacked, "ROOT_STEPS", 2)
    with pytest.raises(EstimateError):
        kth_eigenvalue(d2, e2, k)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (0, 2), (3, 2), (2, 1)])
def test_kth_eigenvalue_roots_only_k_1_and_k_n_2(k, n):
    # Above n = 2 only the smallest root is found; at n <= 2 a k past n
    # (or below 1) has no root to return.
    d2, e2 = bidiagonals(n, 5, 37)
    with pytest.raises(ValueError, match="k = n = 2"):
        kth_eigenvalue(d2, e2, k)


def tridiagonals(d2, e2):
    """(B, n, n) B B^T of draws-last bidiagonals."""
    n, draws = d2.shape
    b = np.zeros((draws, n, n))
    b[:, range(n), range(n)] = np.sqrt(d2.T)
    b[:, range(1, n), range(n - 1)] = np.sqrt(e2.T)
    return b @ b.transpose(0, 2, 1)


def exact_counts(d2, e2, sigma):
    """Exact Sturm counts of each draw at its sigma (or one for all)."""
    sigma = np.broadcast_to(sigma, d2.shape[1])
    return [exact.sturm_count(d2[:, j], e2[:, j], sigma[j]) for j in range(d2.shape[1])]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_count_below_matches_lapack_between_the_eigenvalues(n):
    d2, e2 = bidiagonals(n, 200, 37)
    lam = np.linalg.eigvalsh(tridiagonals(d2, e2)).T           # (n, B), ascending
    # Below all, between each neighbouring pair (a per-draw shift), above all.
    shifts = [0.5 * lam[0], *(0.5 * (lam[:-1] + lam[1:])), 2.0 * lam[-1]]
    for below, sigma in enumerate(shifts):
        np.testing.assert_array_equal(count_below(d2, e2, sigma), below)
    # One scalar shift for every draw.
    for sigma in (0.1, 1.0, 10.0):
        np.testing.assert_array_equal(count_below(d2, e2, sigma),
                                      (lam < sigma).sum(axis=0))


def test_count_below_is_relative_to_a_tiny_eigenvalue():
    # The last diagonal entry 1e-30 puts the smallest eigenvalue near 1e-30,
    # below LAPACK's resolution: exact counts there, LAPACK's above it.
    d2, e2 = bidiagonals(4, 20, 38)
    d2[-1] *= 1e-30
    lam = np.linalg.eigvalsh(tridiagonals(d2, e2)).T
    for k in (2, 3, 4):
        sigma = 0.5 * (lam[k - 1] + lam[k]) if k < 4 else 2.0 * lam[-1]
        np.testing.assert_array_equal(count_below(d2, e2, sigma), k)
    tiny = kth_eigenvalue(d2, e2, 1)
    assert np.all((1e-34 < tiny) & (tiny < 1e-26))
    for sigma, below in ((tiny * (1 - 1e-9), 0), (tiny * (1 + 1e-9), 1)):
        assert exact_counts(d2, e2, sigma) == [below] * 20
        np.testing.assert_array_equal(count_below(d2, e2, sigma), below)


def test_count_below_refuses_a_zero_pivot():
    # sigma = d2_0 makes the first pivot zero; NaN reaches the last one.
    d2 = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    e2 = np.ones((2, 2))
    with pytest.raises(EstimateError, match="zero pivot"):
        count_below(d2, e2, 1.0)
    np.testing.assert_array_equal(count_below(d2, e2, 1.5), exact_counts(d2, e2, 1.5))


@pytest.mark.parametrize("dtype", [float, complex])
def test_inverse_diagonal_leading_columns_are_the_full_ones(dtype):
    # The first `count` entries take the same operations as in the full
    # diagonal, so they agree bit for bit.
    rng = np.random.default_rng(36)
    h = rng.standard_normal((30, 5, 4)).astype(dtype)
    if dtype is complex:
        h = h + 1j * rng.standard_normal(h.shape)
    low = cholesky_lower(stacked_gram(h))[0]
    full = inverse_diagonal(low)
    assert full.shape == (30, 4)
    for count in range(1, 5):
        np.testing.assert_array_equal(inverse_diagonal(low, count), full[:, :count])
