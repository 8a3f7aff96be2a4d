"""Tests for the stacked small-matrix kernels not covered by their callers.

The Gram and Cholesky kernels are checked through the receivers and the
MMSE residual against the LAPACK routes they replace; the Jacobi kernel
through the eigenvalue sampler.  Here: the Jacobi edge cases.
"""

import numpy as np
import pytest

from wlmimo import stacked
from wlmimo.stacked import jacobi_eigenvalues


def stack(matrices):
    return np.moveaxis(np.array(matrices, dtype=float), 0, -1)


def test_jacobi_returns_a_diagonal_stack_exactly():
    diag = [[3.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [5.0, 0.0, 5.0]]
    got = jacobi_eigenvalues(stack([np.diag(d) for d in diag]))
    np.testing.assert_array_equal(got.T, diag)


def test_jacobi_skips_zero_pairs_next_to_nonzero_ones():
    # a_01 = 0 with a tied or zero diagonal (0/0 in tau) while a_02 is not,
    # so the sweep runs and must leave the pair (0, 1) unrotated; the
    # second draw is diagonal next to a draw that is not.
    w = stack([[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
               [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]])
    got = np.sort(jacobi_eigenvalues(w), axis=0).T
    np.testing.assert_allclose(got, [[0.0, 1.0, 2.0], [0.0, 0.0, 2.0]],
                               rtol=0, atol=4 * np.finfo(float).eps)


def test_jacobi_survives_a_tiny_off_diagonal_entry():
    # tau = (a_qq - a_pp) / (2 a_pq) overflows here; the kernel's form of
    # the rotation must not, and the eigenvalues are the diagonal.
    w = stack([[[1.0, 1e-300], [1e-300, 2.0]], [[2.0, 1e-300], [1e-300, 2.0]]])
    np.testing.assert_array_equal(np.sort(jacobi_eigenvalues(w), axis=0),
                                  [[1.0, 2.0], [2.0, 2.0]])


def test_jacobi_refuses_to_return_unconverged_values(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 3, 3))
    w = np.moveaxis(x @ x.transpose(0, 2, 1), 0, -1)
    monkeypatch.setattr(stacked, "JACOBI_SWEEPS", 1)
    with pytest.raises(ArithmeticError):
        jacobi_eigenvalues(w)
