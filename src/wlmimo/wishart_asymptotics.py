"""Small-eigenvalue asymptotics of real central Wishart matrices.

For W = X X^T with X an (n, m) standard real Gaussian matrix (n <= m) and
ordered eigenvalues lambda_1 <= ... <= lambda_n, the CDF of the kth smallest
eigenvalue obeys

    Pr(lambda_k < eps) = beta_k * eps^(k(m-n+k)/2) + o(eps^(k(m-n+k)/2)).

The exponent is available for every k; the leading coefficient has a closed
form only for k = 1:

    beta_1 = sqrt(|J|) / (K_nm * d1),        d1 = (m - n + 1) / 2,

where K_nm is the normalization constant of the joint eigenvalue density and
J is a skew-symmetric matrix of one-sided Gamma integrals whose Pfaffian
gives sqrt(|J|).  For k > 1 the coefficient must be fit empirically from
:func:`sample_kth_eigenvalue` draws.

All Gamma factors are evaluated in the log domain so moderately large (n, m)
do not overflow; the Pfaffian of J is taken on a rescaled matrix and the
scale is restored in log space.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = [
    "diversity_exponent",
    "pfaffian",
    "knm_constant",
    "incomplete_gamma_ratio",
    "j_matrix",
    "beta1",
    "sample_kth_eigenvalue",
]

LOG2 = np.log(2.0)


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

def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an even-size skew-symmetric matrix, Pf([]) = 1.

    Exact recursive Laplace-style expansion along the last row/column with
    memoization over index subsets.  Intended for the small matrices that
    appear in beta_1 (size <= 12 or so); cost grows like 2^size.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    size = a.shape[0]
    if size % 2 != 0:
        raise ValueError("Pfaffian needs an even-size matrix")
    if size == 0:
        return 1.0
    if not np.array_equal(a, -a.T):
        raise ValueError("matrix is not skew-symmetric")

    memo: dict[tuple[int, ...], float] = {}

    def expand(active: tuple[int, ...]) -> float:
        if not active:
            return 1.0
        got = memo.get(active)
        if got is not None:
            return got
        last = active[-1]
        rest = active[:-1]
        total = 0.0
        for pos, i in enumerate(rest):
            coeff = a[i, last]
            if coeff != 0.0:
                sub = rest[:pos] + rest[pos + 1:]
                total += (-1.0) ** pos * coeff * expand(sub)
        memo[active] = total
        return total

    return expand(tuple(range(size)))


# ---------------------------------------------------------------------------
# Leading constant of the smallest-eigenvalue CDF
# ---------------------------------------------------------------------------

def _log_knm(n: int, m: int) -> float:
    out = (n / 2.0) * (m * LOG2 - np.log(np.pi))
    for i in range(1, n + 1):
        out += gammaln((m - i + 1) / 2.0) + gammaln((n - i + 1) / 2.0)
    return float(out)


def knm_constant(n: int, m: int) -> float:
    """Normalization constant K_nm of the joint eigenvalue density."""
    _check_nm(n, m)
    return float(np.exp(_log_knm(n, m)))


def incomplete_gamma_ratio(b_j: float, b_i: float) -> float:
    """I(b_j, b_i; inf) = Pr(Gamma(b_i, 1) < Gamma(b_j, 1)), b_i - b_j integer.

    Closed recursion for b_i >= b_j:

        I = 1/2 - sum_{k=1}^{b_i - b_j} 2^-(b_j+b_i-k) Gamma(b_j+b_i-k)
                                         / (Gamma(b_j) Gamma(b_i-k+1))

    and I(a, b) = 1 - I(b, a) covers b_i < b_j.  The arguments come from the
    half-integer ladder b_i = (m-n+1)/2 + i, so their difference is integral.
    """
    if b_j <= 0 or b_i <= 0:
        raise ValueError("shape arguments must be positive")
    diff = b_i - b_j
    steps = int(round(diff))
    if abs(diff - steps) > 1e-9:
        raise ValueError("b_i - b_j must be an integer for the closed recursion")
    if steps < 0:
        return 1.0 - incomplete_gamma_ratio(b_i, b_j)
    total = 0.5
    for k in range(1, steps + 1):
        log_term = (
            -(b_j + b_i - k) * LOG2
            + gammaln(b_j + b_i - k)
            - gammaln(b_j)
            - gammaln(b_i - k + 1)
        )
        total -= float(np.exp(log_term))
    return total


def _b(n: int, m: int, i: int) -> float:
    return 0.5 * (m - n + 1) + i


def j_matrix(n: int, m: int) -> np.ndarray:
    """Skew-symmetric J whose Pfaffian enters beta_1.

    Square of size n-1 for odd n and size n for even n; the even case gains
    a border column of one-sided integrals [J]_{i,n} = 2^{b_i} Gamma(b_i).
    Interior entries for i < j <= n-1:

        [J]_{i,j} = 2^{b_i+b_j} Gamma(b_i) Gamma(b_j)
                    * (2 I(b_j, b_i; inf) - 1),

    evaluated through the closed recursion of
    :func:`incomplete_gamma_ratio`; the lower triangle is the negative
    transpose.  n = 1 yields the empty matrix (Pfaffian 1).
    """
    _check_nm(n, m)
    size = n if n % 2 == 0 else n - 1
    out = np.zeros((size, size))
    for i in range(1, size + 1):
        bi = _b(n, m, i)
        for j in range(i + 1, size + 1):
            bj = _b(n, m, j)
            if j <= n - 1:
                bracket = 2.0 * incomplete_gamma_ratio(bj, bi) - 1.0
                log_pref = (bi + bj) * LOG2 + gammaln(bi) + gammaln(bj)
                val = float(np.sign(bracket) * np.exp(log_pref + np.log(abs(bracket))))
            else:  # even n border column
                val = float(np.exp(bi * LOG2 + gammaln(bi)))
            out[i - 1, j - 1] = val
            out[j - 1, i - 1] = -val
    return out


def beta1(n: int, m: int) -> float:
    """Leading CDF coefficient of the smallest eigenvalue (k = 1).

    beta_1 = Pf(J) / (K_nm d1) with d1 = (m-n+1)/2, combined in log space
    after rescaling J by its largest magnitude so the Pfaffian cannot
    overflow for larger (n, m).
    """
    _check_nm(n, m)
    d1 = 0.5 * (m - n + 1)
    jm = j_matrix(n, m)
    if jm.size == 0:
        log_pf = 0.0
    else:
        scale = float(np.abs(jm).max())
        if scale == 0.0:
            raise ArithmeticError("degenerate J matrix")
        pf = pfaffian(jm / scale)
        if pf <= 0.0:
            raise ArithmeticError(f"Pfaffian of J must be positive, got {pf}")
        log_pf = np.log(pf) + (jm.shape[0] / 2.0) * np.log(scale)
    value = float(np.exp(log_pf - _log_knm(n, m) - np.log(d1)))
    if not value > 0.0:
        raise ArithmeticError("beta_1 must be positive")
    return value


# ---------------------------------------------------------------------------
# Eigenvalue sampling
# ---------------------------------------------------------------------------

def sample_kth_eigenvalue(
    k: int,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    batch: int = 1 << 18,
) -> np.ndarray:
    """Draw `trials` samples of the kth smallest eigenvalue of X X^T."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    _check_nm(n, m)
    if trials <= 0:
        raise ValueError("trials must be positive")
    out = np.empty(trials)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        x = rng.standard_normal((b, n, m))
        w = x @ x.transpose(0, 2, 1)
        out[done:done + b] = np.linalg.eigvalsh(w)[:, k - 1]
        done += b
    return out
