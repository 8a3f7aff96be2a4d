"""Small-eigenvalue asymptotics of real central Wishart matrices.

For W = X X^T with X an (n, m) standard real Gaussian matrix (n <= m) and
ordered eigenvalues lambda_1 <= ... <= lambda_n, the CDF of the kth smallest
eigenvalue obeys

    Pr(lambda_k < eps) = beta_k * eps^(k(m-n+k)/2) + o(eps^(k(m-n+k)/2)).

The exponent is available for every k; the leading coefficient has a closed
form only for k = 1.  With s = m - n + 1,

    beta_1 = 2^(s/2) Gamma((m+1)/2) / (Gamma(n/2) s!).

The ordered eigenvalues have the joint density (Muirhead, Aspects of
Multivariate Statistical Theory, 1982, Thm 3.2.18)

    c(n, m) prod_i lambda_i^((m-n-1)/2) e^(-lambda_i/2) prod_(i<j) (lambda_j - lambda_i).

As lambda_1 -> 0, lambda_j - lambda_1 -> lambda_j, so the other n - 1
eigenvalues carry lambda_j^((m-n+1)/2) e^(-lambda_j/2) times their own
differences: the unnormalised density of a Wishart matrix with n - 1 rows
and m + 1 degrees of freedom, whose integral is 1 / c(n-1, m+1).  What is
left, c(n, m) / c(n-1, m+1) times the integral of lambda_1^(s/2-1) over
(0, eps), gives beta_1 = c(n, m) / (c(n-1, m+1) s/2), and the multivariate
Gamma functions in c cancel to the ratio above (with Legendre's duplication
formula for Gamma(s/2 + 1)).  For k > 1 the coefficient must be fit
empirically from :func:`sample_kth_eigenvalue` draws, which take k > 1
only at k = n = 2: fig1's (k, n, m) = (2, 2, 2).

beta_1 is rational up to powers of sqrt(2) and sqrt(pi), so it is computed
exactly, as a Fraction times sqrt(2)^(s mod 2) sqrt(pi)^t, and rounded to
float once at the end.

Samples of lambda_k draw no matrix: X X^T has the eigenvalues of B B^T for
a lower bidiagonal B with independent chi entries (Dumitriu & Edelman, J.
Math. Phys. 43 (2002)), B_ii^2 ~ chi2(m - i) and B_i+1,i^2 ~ chi2(n - 1 - i),
and lambda_k is a root of the shifted LDL^T of B B^T
(:func:`wlmimo.stacked.kth_eigenvalue`), accurate relative to itself.
A caller may ask for the lowest r of T samples only; at n > 2 (so k = 1) only
the draws with lambda_1 < tau, by :func:`wlmimo.stacked.count_below`, are then
rooted, where beta_1 tau^d = SCREEN_MARGIN r / T (n <= 2 roots in closed form).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .montecarlo import DomainError, check_count
from .stacked import count_below, kth_eigenvalue

__all__ = [
    "diversity_exponent",
    "beta1",
    "sample_kth_eigenvalue",
]


# Entries of X one block of sample_kth_eigenvalue stands for (2n - 1 draws per n m).
EIG_BLOCK_ELEMENTS = 1 << 18

# Share of the draws a `lowest` screen roots, over the share it returns.
SCREEN_MARGIN = 4.0


def _check_nm(n: int, m: int) -> None:
    if not (1 <= n <= m <= 64):
        raise DomainError(f"need 1 <= n <= m <= 64, got n={n}, m={m}")


def diversity_exponent(k: int, n: int, m: int) -> float:
    """Polynomial order k(m-n+k)/2 of Pr(lambda_k < eps) near zero."""
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    _check_nm(n, m)
    return 0.5 * k * (m - n + k)


# ---------------------------------------------------------------------------
# Leading constant of the smallest-eigenvalue CDF
# ---------------------------------------------------------------------------

def _half_gamma(k: int) -> tuple[Fraction, int]:
    """Gamma(k/2) = q sqrt(pi)^t for a positive integer k, as (q, t)."""
    q, x = Fraction(1), Fraction(k, 2)
    while x > 1:
        x -= 1
        q *= x
    return q, k % 2


def beta1(n: int, m: int) -> float:
    """Leading CDF coefficient of the smallest eigenvalue (k = 1).

    beta_1 = q sqrt(2)^(s mod 2) sqrt(pi)^t with q exact, so the float
    result is rounded once.
    """
    _check_nm(n, m)
    s = m - n + 1
    num, t = _half_gamma(m + 1)
    den, odd = _half_gamma(n)
    q = num / den / math.factorial(s) * Fraction(2) ** (s // 2)
    return float(q) * math.sqrt(2.0) ** (s % 2) * math.sqrt(math.pi) ** (t - odd)


# ---------------------------------------------------------------------------
# Eigenvalue sampling
# ---------------------------------------------------------------------------

def sample_kth_eigenvalue(
    k: int,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    lowest: int | None = None,
) -> np.ndarray:
    """Draw `trials` samples of the kth smallest eigenvalue of X X^T, for
    k = 1 or k = n = 2 (else DomainError before any draw).

    A draw is B's n squared diagonal entries, then its n - 1 squared
    subdiagonal ones.  Blocks of EIG_BLOCK_ELEMENTS // (n m) draws go
    draws-last to :func:`wlmimo.stacked.kth_eigenvalue`; every sample is
    that of one draw of the whole (trials, 2n - 1) array.  With `lowest`, it
    returns np.sort(samples)[:lowest] bit for bit, rooting only the draws
    below tau (module docstring).  If fewer than `lowest` roots lie below
    tau (1 - 1e-9), where no count errs, it rewinds rng to its entry state
    and roots every draw, so it consumes the same stream either way.
    """
    if not (k == 1 or k == n == 2):
        raise DomainError(f"need k = 1, or k = n = 2, got k={k}, n={n}")
    _check_nm(n, m)
    check_count("trials", trials, 1)
    if lowest is not None and not 1 <= lowest <= trials:
        raise DomainError("need 1 <= lowest <= trials")
    rows = max(1, EIG_BLOCK_ELEMENTS // (n * m))
    df = np.concatenate([np.arange(m, m - n, -1.0), np.arange(n - 1, 0, -1.0)])
    cut = math.inf
    if lowest is not None and n > 2:
        p = SCREEN_MARGIN * lowest / trials
        cut = (p / beta1(n, m)) ** (1.0 / diversity_exponent(k, n, m))
    entry = rng.bit_generator.state
    while True:
        roots = []
        for done in range(0, trials, rows):
            b = min(rows, trials - done)
            sq = np.ascontiguousarray(rng.chisquare(df, (b, 2 * n - 1)).T)
            if cut < math.inf:
                sq = sq[:, count_below(sq[:n], sq[n:], cut) >= k]
            roots.append(kth_eigenvalue(sq[:n], sq[n:], k))
        lam = np.concatenate(roots)
        if lowest is None:
            return lam
        if np.count_nonzero(lam < cut * (1.0 - 1e-9)) >= lowest:
            return np.sort(np.partition(lam, lowest - 1)[:lowest])
        rng.bit_generator.state, cut = entry, math.inf
