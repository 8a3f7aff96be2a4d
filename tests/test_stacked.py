"""Tests for the stacked small-matrix kernels not covered by their callers.

The Gram and Cholesky kernels are checked through the receivers and the
MMSE residual against the LAPACK routes they replace; the bidiagonal
eigenvalue kernel through the eigenvalue sampler.  Here: its edge cases.
"""

import numpy as np
import pytest

import exact
from wlmimo import stacked
from wlmimo.montecarlo import EstimateError
from wlmimo.stacked import kth_eigenvalue


def bidiagonals(n, draws, seed):
    rng = np.random.default_rng(seed)
    return (rng.chisquare(n + 2.0, (n, draws)),
            rng.chisquare(2.0, (n - 1, draws)))


@pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_kth_eigenvalue_is_relative_to_a_tiny_eigenvalue(k, n):
    # One diagonal entry 1e-200 puts an eigenvalue near 1e-200 next to
    # ones near 1: tr(W) eps would swamp it, the kernel must not.
    d2, e2 = bidiagonals(n, 20, 35)
    d2[n - 1] *= 1e-200
    got = kth_eigenvalue(d2, e2, k)
    for j in range(d2.shape[1]):
        assert exact.sturm_count(d2[:, j], e2[:, j], got[j] * (1 - 1e-12)) == k - 1
        assert exact.sturm_count(d2[:, j], e2[:, j], got[j] * (1 + 1e-12)) >= k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kth_eigenvalue_refuses_to_return_unconverged_values(monkeypatch, k):
    # Newton from below (k = 1), bisection for 1 < k <= n.
    d2, e2 = bidiagonals(3, 100, 36)
    monkeypatch.setattr(stacked, "ROOT_STEPS", 2)
    with pytest.raises(EstimateError):
        kth_eigenvalue(d2, e2, k)
