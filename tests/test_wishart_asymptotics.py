"""Tests for the small-eigenvalue machinery.

The closed form of beta_1 is checked against the chi-square law, exact
rational values, an mpmath oracle that takes beta_1 as the Pfaffian of a
skew matrix J of Gamma integrals over the density's normaliser (J by
quadrature, 30 digits, or by the closed incomplete-Gamma recursion, 80
digits), and empirical eigenvalue CDFs; the eigenvalue sampler against
exact Sturm counts and LAPACK on its own draws, and against LAPACK
eigenvalues of Gaussian X X^T in law; its `lowest` screen against the
head of the whole sorted draw.
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

import exact
from wlmimo import stacked, wishart_asymptotics
from wlmimo.cli import FIG1_CASES
from wlmimo.wishart_asymptotics import (
    beta1,
    diversity_exponent,
    sample_kth_eigenvalue,
)


def padded(lowest, trials):
    """The `lowest` samples of a draw of `trials`, padded with inf: where
    np.quantile reads only them, it reads them as in the whole sorted draw."""
    return np.concatenate([lowest, np.full(trials - lowest.size, np.inf)])


# ---------------------------------------------------------------------------
# beta_1
# ---------------------------------------------------------------------------

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
    """The predicted small-eigenvalue CDF tracks simulation at (2, 4).

    Over seeds the ratio has mean 1.031 (the terms beyond the leading one)
    and sd 0.024 at 200k draws, which put 1% of seeds outside the 10%
    band; at 2M draws its sd is 0.007 (30 seeds).
    """
    rng = np.random.default_rng(15)
    n, m, trials = 2, 4, 2_000_000
    d1 = diversity_exponent(1, n, m)
    lowest = int(0.01 * (trials - 1)) + 2
    lam = padded(sample_kth_eigenvalue(1, n, m, trials, rng, lowest), trials)
    eps = np.quantile(lam, 0.01)
    predicted = beta1(n, m) * eps ** d1
    assert predicted == pytest.approx(0.01, rel=0.1)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_beta1_single_row_is_the_chi_square_coefficient(m):
    # n = 1: lambda_1 ~ chi2_m, whose CDF starts eps^(m/2) / ((m/2) 2^(m/2) Gamma(m/2))
    expect = 1.0 / ((m / 2) * 2 ** (m / 2) * special.gamma(m / 2))
    assert beta1(1, m) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("n,m,expect", [
    (3, 4, 1.5), (3, 6, 0.625), (6, 9, 2.0), (12, 15, 7.0), (63, 64, 31.5),
])
def test_beta1_exact_rational_values(n, m, expect):
    assert beta1(n, m) == expect


def test_beta1_positive_over_the_old_failure_range():
    # an earlier float Pfaffian of J failed on 85 of these pairs
    for n in range(1, 19):
        for m in range(n, 2 * n + 9):
            assert 0.0 < beta1(n, m) < math.inf


def test_beta1_at_the_edge_of_its_domain():
    t0 = time.perf_counter()
    value = beta1(64, 64)
    assert 0.0 < value < math.inf
    assert time.perf_counter() - t0 < 10.0
    for n, m in ((0, 3), (3, 2), (2, 65), (65, 65)):
        with pytest.raises(ValueError):
            beta1(n, m)


def oracle_beta1(n, m, quadrature):
    """beta_1 with Pf(J) = sqrt(det J).

    J comes from quadrature of its signed two-sided Gamma integrals (the
    inner integral through the regularized incomplete Gamma function), at
    30 digits, each integral asserting its own error estimate below 1e-20
    relative; or from the closed recursion 2^(b_i+b_j) Gamma(b_i)
    Gamma(b_j) (2I - 1), I = Pr(Gamma(b_i) < Gamma(b_j)), at 80 digits.
    """
    mp = pytest.importorskip("mpmath")

    def quad(f):
        value, error = mp.quad(f, [0, mp.inf], error=True)
        assert error < mp.mpf("1e-20") * abs(value)
        return value

    with mp.workdps(30 if quadrature else 80):
        b = [mp.mpf(m - n + 1) / 2 + i for i in range(n + 1)]

        def border(i):
            if quadrature:
                return quad(lambda x: x ** (b[i] - 1) * mp.exp(-x / 2))
            return 2 ** b[i] * mp.gamma(b[i])

        def interior(i, j):
            scale = 2 ** b[j] * mp.gamma(b[j])
            if quadrature:
                def signed(x):
                    inner = 1 - 2 * mp.gammainc(b[j], 0, x / 2, regularized=True)
                    return x ** (b[i] - 1) * mp.exp(-x / 2) * scale * inner
                return quad(signed)
            prob = mp.mpf(1) / 2 + sum(
                2 ** (k - b[i] - b[j]) * mp.gamma(b[i] + b[j] - k)
                / (mp.gamma(b[i]) * mp.gamma(b[j] - k + 1))
                for k in range(1, j - i + 1))
            return 2 ** b[i] * mp.gamma(b[i]) * scale * (2 * prob - 1)

        size = n - n % 2
        jm = mp.zeros(size, size)
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                jm[i - 1, j - 1] = interior(i, j) if j < n else border(i)
                jm[j - 1, i - 1] = -jm[i - 1, j - 1]
        pf = mp.sqrt(mp.det(jm)) if size else mp.mpf(1)
        knm = 2 ** (mp.mpf(n * m) / 2) * mp.pi ** (-mp.mpf(n) / 2)
        for i in range(1, n + 1):
            knm *= mp.gamma(mp.mpf(m - i + 1) / 2) * mp.gamma(mp.mpf(n - i + 1) / 2)
        return float(pf / (knm * b[0]))


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 6), (4, 4), (6, 9)])
def test_beta1_matches_quadrature_oracle(n, m):
    assert beta1(n, m) == pytest.approx(oracle_beta1(n, m, True), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 25))
def test_beta1_matches_recursion_oracle(n):
    for m in sorted({n, n + 1, n + 3, 2 * n, 2 * n + 8}):
        assert beta1(n, m) == pytest.approx(oracle_beta1(n, m, False), rel=1e-12)


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


# ---------------------------------------------------------------------------
# Eigenvalue sampler: exact on its own draws, and the law of X X^T
# ---------------------------------------------------------------------------

# |lambda_sampler - lambda_lapack| <= EIG_C n eps tr(W), fixed before
# measuring: LAPACK is backward stable to a small multiple of
# n eps ||W||_2 <= n eps tr(W), and W is formed in floats, a further
# eps tr(W) per entry.
EIG_C = 8.0
# Relative bracket around each sample within which the exact Sturm count
# must pass k.
BRACKET = 1e-11


def replay_bidiagonals(n, m, trials, seed):
    """The sampler's chi-square draws: (trials, n) squared diagonals of B
    and (trials, n - 1) squared subdiagonals, from one draw of the stream."""
    df = np.concatenate([np.arange(m, m - n, -1.0), np.arange(n - 1, 0, -1.0)])
    sq = np.random.default_rng(seed).chisquare(df, (trials, 2 * n - 1))
    return sq[:, :n], sq[:, n:]


@pytest.mark.parametrize("k,n,m", [(1, 2, 4), (1, 3, 6), (1, 4, 4), (2, 2, 2),
                                   (1, 1, 3), (1, 64, 64)])
def test_kth_eigenvalue_is_exact_on_the_same_draws(k, n, m):
    # The fig1 cases, n = 1 and n = 64.
    trials = 200 if n == 64 else 20_000
    got = sample_kth_eigenvalue(k, n, m, trials, np.random.default_rng(31))
    d2, e2 = replay_bidiagonals(n, m, trials, 31)
    # Exact Sturm counts on every 40th draw and the 100 smallest samples.
    for j in np.union1d(np.arange(0, trials, 40), np.argsort(got)[:100]):
        assert exact.sturm_count(d2[j], e2[j], got[j] * (1 - BRACKET)) == k - 1
        assert exact.sturm_count(d2[j], e2[j], got[j] * (1 + BRACKET)) >= k
    b = np.zeros((trials, n, n))
    b[:, range(n), range(n)] = np.sqrt(d2)
    b[:, range(1, n), range(n - 1)] = np.sqrt(e2)
    w = b @ b.transpose(0, 2, 1)
    expect = np.linalg.eigvalsh(w)[:, k - 1]
    bound = EIG_C * n * np.finfo(float).eps * np.trace(w, axis1=1, axis2=2)
    assert np.all(np.abs(got - expect) <= bound)


@pytest.mark.parametrize("k,n,m", FIG1_CASES)
def test_kth_eigenvalue_follows_the_law_of_x_xt(k, n, m):
    # The fig1 cases, two-sample KS against LAPACK on fresh
    # Gaussian X; the p-value floor was fixed before measuring.
    draws = 100_000
    got = sample_kth_eigenvalue(k, n, m, draws, np.random.default_rng(33))
    x = np.random.default_rng(34).standard_normal((draws, n, m))
    expect = np.linalg.eigvalsh(x @ x.transpose(0, 2, 1))[:, k - 1]
    assert stats.ks_2samp(got, expect).pvalue > 1e-3


@pytest.mark.parametrize("k,n,m", [(2, 3, 6), (3, 3, 5), (2, 64, 64),
                                   (64, 64, 64), (3, 2, 4), (2, 1, 3)])
def test_eigenvalues_beyond_the_smallest_are_refused_above_n_2(k, n, m):
    # k > 1 is rooted only at k = n = 2 (in closed form); the sampler
    # refuses the rest, k > n at n <= 2 included, before its first draw.
    rng = np.random.default_rng(35)
    entry = rng.bit_generator.state
    with pytest.raises(ValueError, match="k = n = 2"):
        sample_kth_eigenvalue(k, n, m, 1_000, rng, 10)
    assert rng.bit_generator.state == entry


class RecordingRng:
    """A generator stand-in that records the shape of every chi-square draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.shapes = []

    def chisquare(self, df, shape):
        self.shapes.append(shape)
        return self.rng.chisquare(df, shape)


@pytest.mark.parametrize("k,n,m,trials,rows", [(1, 64, 64, 600, 7),
                                                (1, 3, 6, 40_000, 1000)])
def test_eigen_sampler_blocks_are_bounded_and_leave_samples_unchanged(
        monkeypatch, k, n, m, trials, rows):
    rec = RecordingRng(32)
    whole = sample_kth_eigenvalue(k, n, m, trials, rec)
    assert len(rec.shapes) > 1
    assert sum(shape[0] for shape in rec.shapes) == trials
    assert all(shape[0] * n * m <= wishart_asymptotics.EIG_BLOCK_ELEMENTS
               for shape in rec.shapes)
    monkeypatch.setattr(wishart_asymptotics, "EIG_BLOCK_ELEMENTS", rows * n * m)
    small = sample_kth_eigenvalue(k, n, m, trials, np.random.default_rng(32))
    np.testing.assert_array_equal(small, whole)


# ---------------------------------------------------------------------------
# The lowest samples only: a Sturm-count screen, exact by its fallback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("size", ["1", "2", "1000", "2 blocks + 7"])
@pytest.mark.parametrize("k,n,m", FIG1_CASES)
def test_lowest_samples_are_the_head_of_the_whole_sorted_draw(k, n, m, size, seed):
    rows = wishart_asymptotics.EIG_BLOCK_ELEMENTS // (n * m)
    trials = 2 * rows + 7 if size == "2 blocks + 7" else int(size)
    lowest = min(trials, int(1e-2 * (trials - 1)) + 3)     # fig1's
    whole_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = sample_kth_eigenvalue(k, n, m, trials, whole_rng)
    got = sample_kth_eigenvalue(k, n, m, trials, rng, lowest)
    np.testing.assert_array_equal(got, np.sort(whole)[:lowest])
    assert rng.bit_generator.state == whole_rng.bit_generator.state


def screened(monkeypatch):
    """Record how many draws each screened block keeps."""
    kept = []

    def count_below(d2, e2, sigma):
        below = stacked.count_below(d2, e2, sigma)
        kept.append(int(np.count_nonzero(below)))
        return below

    monkeypatch.setattr(wishart_asymptotics, "count_below", count_below)
    return kept


@pytest.mark.parametrize("n,m,margin,some", [
    (3, 6, 1e-300, False),      # no draw kept
    (4, 4, 0.25, True),         # some kept, too few of them
])
def test_a_screen_that_keeps_too_few_rewinds_and_roots_every_draw(
        monkeypatch, n, m, margin, some):
    trials, lowest = 20_000, 200
    whole_rng = np.random.default_rng(43)
    whole = sample_kth_eigenvalue(1, n, m, trials, whole_rng)
    kept = screened(monkeypatch)
    monkeypatch.setattr(wishart_asymptotics, "SCREEN_MARGIN", margin)
    rec = RecordingRng(43)
    got = sample_kth_eigenvalue(1, n, m, trials, rec, lowest)
    np.testing.assert_array_equal(got, np.sort(whole)[:lowest])
    assert (sum(kept) > 0) == some and sum(kept) < lowest
    assert sum(shape[0] for shape in rec.shapes) == 2 * trials     # the rewind
    assert rec.rng.bit_generator.state == whole_rng.bit_generator.state


def test_a_screen_that_keeps_enough_draws_once(monkeypatch):
    trials, lowest = 20_000, 200
    whole = sample_kth_eigenvalue(1, 3, 6, trials, np.random.default_rng(44))
    kept = screened(monkeypatch)
    rec = RecordingRng(44)
    got = sample_kth_eigenvalue(1, 3, 6, trials, rec, lowest)
    np.testing.assert_array_equal(got, np.sort(whole)[:lowest])
    assert lowest <= sum(kept) < 10 * lowest
    assert sum(shape[0] for shape in rec.shapes) == trials


@pytest.mark.parametrize("lowest", [0, 11])
def test_lowest_must_be_a_count_of_the_draws(lowest):
    with pytest.raises(ValueError):
        sample_kth_eigenvalue(1, 3, 6, 10, np.random.default_rng(45), lowest)
