"""Small-eigenvalue asymptotics of real central Wishart matrices.

For W = X X^T with X an (n, m) standard real Gaussian matrix (n <= m) and
ordered eigenvalues lambda_1 <= ... <= lambda_n, the CDF of the kth smallest
eigenvalue obeys

    Pr(lambda_k < eps) = beta_k * eps^(k(m-n+k)/2) + o(eps^(k(m-n+k)/2)).

The exponent is available for every k; the leading coefficient has a closed
form only for k = 1:

    beta_1 = Pf(J) / (K_nm * d1),        d1 = (m - n + 1) / 2,
    K_nm = 2^(nm/2) pi^(-n/2) prod_i Gamma((m-i+1)/2) Gamma((n-i+1)/2),

where K_nm normalizes the joint eigenvalue density and J is skew-symmetric.
With b_i = d1 + i, its entries for i < j <= n-1 are the signed two-sided
Gamma integrals

    J_ij = int int sign(y - x) x^(b_i-1) y^(b_j-1) e^(-(x+y)/2) dx dy
         = 2 sum_{k=1}^{j-i} 2^k Gamma(b_i+b_j-k) Gamma(b_j) / Gamma(b_j-k+1),

and even n adds a border column J_in = 2^b_i Gamma(b_i).  For k > 1 the
coefficient must be fit empirically from :func:`sample_kth_eigenvalue` draws.

b_i + b_j is an integer and b_j - 1, b_j - 2, ... are half-integers, so the
interior entries are integers; the border is a common factor
2^b_1 Gamma(b_1), which comes out of the Pfaffian, times integers.  K_nm and
d1 are rational up to powers of sqrt(2) and sqrt(pi).  beta_1 is therefore
computed exactly, as a Fraction times sqrt(2)^s sqrt(pi)^t, with the Pfaffian
taken by Parlett-Reid skew Gaussian elimination on Fractions, and rounded to
float once at the end.

Samples of lambda_k draw no matrix: X X^T has the eigenvalues of B B^T for
a lower bidiagonal B with independent chi entries (Dumitriu & Edelman, J.
Math. Phys. 43 (2002)), B_ii^2 ~ chi2(m - i) and B_i+1,i^2 ~ chi2(n - 1 - i),
and lambda_k is a root of the shifted LDL^T of B B^T
(:func:`wlmimo.stacked.kth_eigenvalue`), accurate relative to itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .stacked import kth_eigenvalue

__all__ = [
    "diversity_exponent",
    "beta1",
    "sample_kth_eigenvalue",
]


# Entries of X one block of sample_kth_eigenvalue stands for (2n - 1 draws per n m).
EIG_BLOCK_ELEMENTS = 1 << 18


def _check_nm(n: int, m: int, bound: int = 64) -> None:
    if not (1 <= n <= m <= bound):
        raise ValueError(f"need 1 <= n <= m <= {bound}, got n={n}, m={m}")


def diversity_exponent(k: int, n: int, m: int) -> float:
    """Polynomial order k(m-n+k)/2 of Pr(lambda_k < eps) near zero."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    _check_nm(n, m)
    return 0.5 * k * (m - n + k)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def pfaffian(a: np.ndarray) -> float | Fraction:
    """Pfaffian of an even-size skew-symmetric matrix, Pf([]) = 1.

    Parlett-Reid skew Gaussian elimination (Wimmer, ACM TOMS 38 (2012),
    Alg. 923), O(size^3): each step moves the largest-magnitude entry of
    the eliminated column next to the diagonal and removes two rows and
    columns.  An object array of Fractions gives the exact Pfaffian; any
    other input is taken as float.
    """
    a = np.array(a)
    if a.dtype != object:
        a = a.astype(float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    size = a.shape[0]
    if size % 2 != 0:
        raise ValueError("Pfaffian needs an even-size matrix")
    if not np.array_equal(a, -a.T):
        raise ValueError("matrix is not skew-symmetric")
    pf = 1
    for k in range(0, size, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if p != k + 1:      # swap rows and columns k+1 and p
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        if pivot == 0:      # the whole column is zero
            return pf * pivot
        pf *= pivot
        tau = a[k, k + 2:] / pivot
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf if a.dtype == object else float(pf)


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


def _exact_j(n: int, m: int) -> np.ndarray:
    """J as Fractions, its even-n border divided by 2^b_1 Gamma(b_1).

    Size n - 1 for odd n, n for even n; n = 1 gives the empty matrix.
    """
    size = n - n % 2
    two_b = [m - n + 1 + 2 * i for i in range(size + 1)]     # 2 b_i
    out = np.full((size, size), Fraction(0), dtype=object)
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if j < n:
                # term = 2^k Gamma(b_j) / Gamma(b_j-k+1), an integer
                s, term, val = (two_b[i] + two_b[j]) // 2, 2, 0
                for k in range(1, j - i + 1):
                    val += term * math.factorial(s - k - 1)
                    term *= two_b[j] - 2 * k
                val *= 2
            else:           # 2^b_i Gamma(b_i) / (2^b_1 Gamma(b_1))
                val = math.prod(two_b[1:i])
            out[i - 1, j - 1] = Fraction(val)
            out[j - 1, i - 1] = -out[i - 1, j - 1]
    return out


def beta1(n: int, m: int) -> float:
    """Leading CDF coefficient of the smallest eigenvalue (k = 1).

    beta_1 = Pf(J) / (K_nm d1) = q sqrt(2)^s sqrt(pi)^t with q exact; the
    even part of s goes into q, so the float result is rounded once.
    """
    _check_nm(n, m)
    # Pf(J) / d1 times 2^(-nm/2) pi^(n/2), then over K_nm's Gamma factors
    q = Fraction(pfaffian(_exact_j(n, m))) / Fraction(m - n + 1, 2)
    s, t = -n * m, n
    for i in range(1, n + 1):
        for k in (m - i + 1, n - i + 1):
            g, odd = _half_gamma(k)
            q, t = q / g, t - odd
    if n % 2 == 0:          # the border factor 2^b_1 Gamma(b_1), 2 b_1 = m-n+3
        g, odd = _half_gamma(m - n + 3)
        q, s, t = q * g, s + m - n + 3, t + odd
    q *= Fraction(2) ** (s // 2)
    return float(q) * math.sqrt(2.0) ** (s % 2) * math.sqrt(math.pi) ** t


# ---------------------------------------------------------------------------
# Eigenvalue sampling
# ---------------------------------------------------------------------------

def sample_kth_eigenvalue(
    k: int,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw `trials` samples of the kth smallest eigenvalue of X X^T.

    A draw is B's n squared diagonal entries, then its n - 1 squared
    subdiagonal ones.  Blocks of EIG_BLOCK_ELEMENTS // (n m) draws go
    draws-last to :func:`wlmimo.stacked.kth_eigenvalue`; every sample is
    that of one draw of the whole (trials, 2n - 1) array.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    _check_nm(n, m)
    if trials <= 0:
        raise ValueError("trials must be positive")
    rows = max(1, EIG_BLOCK_ELEMENTS // (n * m))
    df = np.concatenate([np.arange(m, m - n, -1.0), np.arange(n - 1, 0, -1.0)])
    out = np.empty(trials)
    for done in range(0, trials, rows):
        b = min(rows, trials - done)
        sq = np.ascontiguousarray(rng.chisquare(df, (b, 2 * n - 1)).T)
        out[done:done + b] = kth_eigenvalue(sq[:n], sq[n:], k)
    return out
