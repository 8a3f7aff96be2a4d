"""Small-matrix kernels vectorised over a stack of draws, draws last.

A stack of B small matrices is held with the draws last, (n, n, B) or
(n, B) for a bidiagonal, and every kernel step is one vector operation
over the B draws, entry by entry, instead of one LAPACK call per draw.
Each entry sees the same operations in the same order for every draw, so
a draw's result does not depend on the rest of the stack.

- :func:`stacked_gram` forms the Gram matrices H* H.
- :func:`cholesky_lower` factors Hermitian positive definite Grams and
  flags the draws whose columns are near-dependent (a pivot at or
  below PIVOT_RATIO_MIN times its diagonal entry); callers
  send those draws to least squares on H itself, since there the Gram
  form has lost its accuracy.
- :func:`inverse_diagonal` turns a factor into the diagonal of G^-1, or
  its leading entries.
- :func:`kth_eigenvalue` roots B B^T, B a lower bidiagonal, on its
  shifted LDL^T, accurate relative to the eigenvalue.
- :func:`count_below` counts the eigenvalues below a shift, the negative
  pivots of that LDL^T, by which the eigenvalue sampler screens its draws.
"""

from __future__ import annotations

import numpy as np

from .montecarlo import EstimateError

__all__ = [
    "abs2",
    "stacked_gram",
    "cholesky_lower",
    "inverse_diagonal",
    "kth_eigenvalue",
    "count_below",
]

# Cholesky pivot / diagonal entry at or below which a draw goes to least
# squares: its columns are near-dependent and the Gram form cancels.
PIVOT_RATIO_MIN = 1e-6
# Newton steps after which an unconverged eigenvalue is refused; fig1's
# cases take at most 16.
ROOT_STEPS = 200
EPS = np.finfo(float).eps


def stacked_gram(h: np.ndarray) -> np.ndarray:
    """(N, N, B) Gram matrices H* H of a (B, rows, N) stack, draws last.

    Every entry sums the products over the rows in the same order for every
    draw, so a draw's Gram does not depend on the rest of the stack.
    """
    ht = np.ascontiguousarray(np.moveaxis(h, 0, -1))       # (rows, N, B)
    hc = ht.conj() if np.iscomplexobj(ht) else ht
    n = ht.shape[1]
    gram = np.empty((n, n, ht.shape[-1]), dtype=ht.dtype)
    for i in range(n):
        for j in range(i + 1):
            gram[i, j] = (hc[:, i] * ht[:, j]).sum(axis=0)
            if j < i:
                gram[j, i] = gram[i, j].conj()
    return gram


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, without the square root of np.abs on complex input."""
    if np.iscomplexobj(z):
        return z.real * z.real + z.imag * z.imag
    return np.square(z)


def cholesky_lower(gram: np.ndarray) -> tuple[list, np.ndarray]:
    """Cholesky G = L L* of (N, N, B) Hermitian Grams, draws last.

    Returns L as nested lists, low[i][j] the (B,) entry for j <= i with a
    real diagonal, and a (B,) flag: clear marks the draws each of whose
    pivots j exceeds PIVOT_RATIO_MIN times G_jj.  A pivot that is not
    positive leaves NaN in its column and fails the flag.
    """
    n = gram.shape[0]
    if np.iscomplexobj(gram):
        def dot(x, y):
            return x * y.conj()
    else:
        dot = np.multiply
    low = [[None] * n for _ in range(n)]
    clear = np.ones(gram.shape[-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            pivot = gram[j, j].real.copy()
            for k in range(j):
                pivot -= abs2(low[j][k])
            clear &= pivot > PIVOT_RATIO_MIN * gram[j, j].real
            low[j][j] = np.sqrt(pivot)
            for i in range(j + 1, n):
                acc = gram[i, j].copy()
                for k in range(j):
                    acc -= dot(low[i][k], low[j][k])
                low[i][j] = acc / low[j][j]
    return low, clear


def inverse_diagonal(low: list, count: int | None = None) -> np.ndarray:
    """(B, count) leading diagonal entries of G^-1, all N by default, from
    the factor of :func:`cholesky_lower`.

    L^-1 by forward substitution, column by column; [G^-1]_nn is the
    squared norm of column n of L^-1.  A column's operations do not depend
    on `count`, so each entry is the same for every count that covers it.
    """
    n = len(low)
    count = n if count is None else count
    out = np.empty((count, len(low[0][0])))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(count):
            col = [None] * n                # column c of L^-1
            col[c] = 1.0 / low[c][c]
            out[c] = abs2(col[c])
            for i in range(c + 1, n):
                acc = low[i][c] * col[c]
                for k in range(c + 1, i):
                    acc += low[i][k] * col[k]
                col[i] = -acc / low[i][i]
                out[c] += abs2(col[i])
    return out.T


def kth_eigenvalue(d2: np.ndarray, e2: np.ndarray, k: int) -> np.ndarray:
    """(B,) k-th smallest eigenvalue of B B^T, B lower bidiagonal with
    squared diagonal d2 (n, B) and squared subdiagonal e2 (n-1, B), for
    k = 1 or k = n = 2 (else ValueError).

    B B^T - sigma I = L D L^T has the pivots D_i = s_i + d2_i, s_0 = -sigma,
    s_i+1 = e2_i s_i / D_i - sigma (dstqds; Dhillon & Parlett, SIAM J.
    Matrix Anal. Appl. 25 (2004)): their product is the determinant and,
    as they read only squared entries, roots are accurate relative to
    themselves.  n <= 2 in closed form; else Newton on the determinant up
    from 0, monotone to the smallest root, until a step no longer goes up
    by over 2 eps sigma.  EstimateError after ROOT_STEPS steps.
    """
    n = d2.shape[0]
    if not (k == 1 or k == n == 2):
        raise ValueError(f"need k = 1, or k = n = 2, got k={k}, n={n}")
    if n == 1:
        return d2[0].copy()
    if n == 2:
        # trace^2 - 4 det as a sum of positive terms; the small root as
        # det / big root, so both are accurate relative to themselves.
        a, b, c = d2[0], d2[1], e2[0]
        big = 0.5 * (a + b + c + np.sqrt(np.square(a - b) + c * (c + 2.0 * (a + b))))
        return big if k == 2 else a * b / big
    out = np.empty(d2.shape[1])
    idx = np.arange(out.size)
    sigma = np.zeros(out.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ROOT_STEPS):
            # f'/f = sum_i D_i' / D_i, s_0' = -1,
            # s_i+1' = (e2_i / D_i) d2_i (s_i' / D_i) - 1.
            s, ds, g = -sigma, -1.0, 0.0
            for i in range(n):
                dp = s + d2[i]
                q = ds / dp
                g = g + q
                if i < n - 1:
                    r = e2[i] / dp
                    s = r * s - sigma
                    ds = r * d2[i] * q - 1.0
            step = -1.0 / g
            go = step > 2.0 * EPS * sigma
            if not go.all():                # retire the converged draws
                out[idx[~go]] = sigma[~go]
                idx, d2, e2 = idx[go], d2[:, go], e2[:, go]
                sigma, step = sigma[go], step[go]
            if not idx.size:                # also an empty stack
                return out
            sigma = sigma + step
    raise EstimateError(f"eigenvalue not converged after {ROOT_STEPS} steps")


def count_below(d2: np.ndarray, e2: np.ndarray, sigma) -> np.ndarray:
    """(B,) count of the eigenvalues of B B^T (:func:`kth_eigenvalue`) below
    sigma, the negative pivots; EstimateError where one is exactly zero."""
    s, below = -sigma, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(d2.shape[0]):
            dp = s + d2[i]
            below = below + (dp < 0.0)
            if i < len(e2):
                s = e2[i] * s / dp - sigma
    if np.isnan(dp).any():          # a pivot was exactly zero
        raise EstimateError("eigenvalue: zero pivot in the Sturm count")
    return below

