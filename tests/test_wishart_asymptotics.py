"""Tests for the small-eigenvalue machinery.

The analytic pieces (Pfaffian, normalization constant, one-sided Gamma
integrals, J matrix) each get an independent oracle: textbook identities,
scipy quadrature, or empirical eigenvalue CDFs.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from wlmimo.wishart_asymptotics import (
    beta1,
    diversity_exponent,
    incomplete_gamma_ratio,
    j_matrix,
    knm_constant,
    pfaffian,
    sample_kth_eigenvalue,
)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_2x2():
    a = 3.7
    assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a)


def test_pfaffian_4x4_closed_form():
    # pf = a*f - b*e + c*d for the generic 4x4 skew matrix
    rng = np.random.default_rng(13)
    a, b, c, d, e, f = rng.standard_normal(6)
    m = np.array([
        [0.0, a, b, c],
        [-a, 0.0, d, e],
        [-b, -d, 0.0, f],
        [-c, -e, -f, 0.0],
    ])
    assert pfaffian(m) == pytest.approx(a * f - b * e + c * d, rel=1e-12)


def test_pfaffian_empty_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


@pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12])
def test_pfaffian_squares_to_determinant(size):
    rng = np.random.default_rng(100 + size)
    for _ in range(20):
        x = rng.standard_normal((size, size))
        s = x - x.T
        assert pfaffian(s) ** 2 == pytest.approx(np.linalg.det(s), rel=1e-9)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian(np.ones((2, 2)))


def test_pfaffian_many_matrices_fast():
    """A thousand small matrices stay well under the time budget."""
    rng = np.random.default_rng(14)
    for _ in range(1000):
        x = rng.standard_normal((6, 6))
        s = x - x.T
        assert pfaffian(s) ** 2 == pytest.approx(np.linalg.det(s), rel=1e-9)


# ---------------------------------------------------------------------------
# Normalization constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 3, 5])
def test_knm_single_row_matches_gamma_integral(m):
    # n=1: the joint density is K^-1 lam^((m-2)/2) exp(-lam/2) on (0, inf)
    val, _ = integrate.quad(
        lambda lam: lam ** ((m - 2) / 2) * math.exp(-lam / 2), 0, np.inf)
    assert knm_constant(1, m) == pytest.approx(val, rel=1e-9)
    assert knm_constant(1, m) == pytest.approx(2 ** (m / 2) * special.gamma(m / 2), rel=1e-12)


def test_knm_two_rows_matches_double_integral():
    # n=2, m=2: K^-1 (lam2-lam1) (lam1 lam2)^-1/2 exp(-(lam1+lam2)/2)
    def inner(l2, l1):
        return (l2 - l1) / math.sqrt(l1 * l2) * math.exp(-(l1 + l2) / 2)

    val, err = integrate.dblquad(inner, 0, 60.0, lambda l1: l1, 60.0)
    assert knm_constant(2, 2) == pytest.approx(4.0, rel=1e-12)
    assert val == pytest.approx(4.0, rel=1e-4)


def test_knm_rejects_bad_shape():
    with pytest.raises(ValueError):
        knm_constant(3, 2)


# ---------------------------------------------------------------------------
# One-sided Gamma integrals
# ---------------------------------------------------------------------------

def test_gamma_ratio_symmetry_point():
    for b in (0.5, 1.5, 4.0):
        assert incomplete_gamma_ratio(b, b) == pytest.approx(0.5, abs=1e-14)


def test_gamma_ratio_worked_quarter():
    # Pr(Gamma(2) < Gamma(1)) = 1/4 for unit-scale draws
    assert incomplete_gamma_ratio(1.0, 2.0) == pytest.approx(0.25, abs=1e-14)


def test_gamma_ratio_complement():
    assert incomplete_gamma_ratio(2.5, 1.5) + incomplete_gamma_ratio(1.5, 2.5) \
        == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bj,bi", [(2.5, 1.5), (1.5, 3.5), (1.0, 4.0)])
def test_gamma_ratio_matches_quadrature(bj, bi):
    """Pr(Gamma(b_i) < Gamma(b_j)) via direct numerical integration."""
    def integrand(x):
        fx = math.exp((bj - 1) * math.log(x) - x - special.gammaln(bj))
        return fx * special.gammainc(bi, x)

    val, _ = integrate.quad(integrand, 0, np.inf)
    assert incomplete_gamma_ratio(bj, bi) == pytest.approx(val, rel=1e-9)


def test_gamma_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError):
        incomplete_gamma_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_ratio(1.0, 1.7)


# ---------------------------------------------------------------------------
# J matrix and beta_1
# ---------------------------------------------------------------------------

def test_j_matrix_sizes():
    assert j_matrix(1, 4).shape == (0, 0)
    assert j_matrix(2, 2).shape == (2, 2)
    assert j_matrix(3, 6).shape == (2, 2)
    assert j_matrix(4, 4).shape == (4, 4)


def test_j_matrix_border_entry_closed_form():
    # n=2 has only the border entry: 2^b1 Gamma(b1) with b1 = (m-n+1)/2 + 1
    jm = j_matrix(2, 2)
    b1 = 1.5
    expect = 2 ** b1 * special.gamma(b1)
    assert jm[0, 1] == pytest.approx(expect, rel=1e-12)
    assert np.allclose(jm, -jm.T)


def test_j_matrix_interior_entry_matches_quadrature():
    """Interior entries are signed two-sided Gamma integrals.

    The inner integral over y of sign(y - x) y^(b2-1) exp(-y/2) evaluates
    exactly through the regularized Gamma CDF, leaving one quadrature in x.
    """
    n, m = 3, 6
    b1, b2 = 3.0, 4.0   # (m-n+1)/2 + i for i = 1, 2

    def integrand(x):
        inner = 2 ** b2 * special.gamma(b2) * (1 - 2 * special.gammainc(b2, x / 2))
        return x ** (b1 - 1) * math.exp(-x / 2) * inner

    val, _ = integrate.quad(integrand, 0, np.inf)
    jm = j_matrix(n, m)
    assert jm[0, 1] == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("n,m,expect", [
    (1, 1, 0.7978845608),
    (2, 2, 1.2533141373),
    (2, 4, 0.6266570687),
    (3, 6, 0.6250000000),
    (4, 4, 1.8799712059),
])
def test_beta1_reference_values(n, m, expect):
    assert beta1(n, m) == pytest.approx(expect, rel=1e-6)


def test_beta1_matches_empirical_cdf():
    """The predicted small-eigenvalue CDF tracks simulation at (2, 4)."""
    rng = np.random.default_rng(15)
    n, m = 2, 4
    d1 = diversity_exponent(1, n, m)
    lam = sample_kth_eigenvalue(1, n, m, 200_000, rng)
    eps = np.quantile(lam, 0.01)
    predicted = beta1(n, m) * eps ** d1
    assert predicted == pytest.approx(0.01, rel=0.1)


# ---------------------------------------------------------------------------
# Exponents and sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n,m,expect", [
    (1, 2, 4, 1.5),
    (1, 3, 6, 2.0),
    (1, 4, 4, 0.5),
    (2, 2, 2, 2.0),
    (2, 3, 5, 4.0),
])
def test_diversity_exponent_values(k, n, m, expect):
    assert diversity_exponent(k, n, m) == expect


def test_diversity_exponent_rejects_bad_k():
    with pytest.raises(ValueError):
        diversity_exponent(3, 2, 4)


def test_smallest_eigenvalue_of_scalar_wishart_is_chi_square():
    rng = np.random.default_rng(16)
    lam = sample_kth_eigenvalue(1, 1, 3, 40_000, rng)
    assert stats.kstest(lam, stats.chi2(3).cdf).pvalue > 0.01


def test_eigenvalue_samples_positive_and_ordered_draw():
    rng = np.random.default_rng(17)
    lam1 = sample_kth_eigenvalue(1, 2, 2, 2_000, rng)
    assert np.all(lam1 > 0)
