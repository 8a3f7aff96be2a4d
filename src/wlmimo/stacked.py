"""Small-matrix kernels vectorised over a stack of draws, draws last.

A stack of B small matrices is held as (n, n, B) and every kernel step is
one vector operation over the B draws, entry by entry, instead of one
LAPACK call per draw.  Each entry sees the same operations in the same
order for every draw, so a draw's result does not depend on the rest of
the stack.

- :func:`stacked_gram` forms the Gram matrices H* H.
- :func:`cholesky_lower` factors Hermitian positive definite Grams and
  flags, per pivot, the draws whose columns are near-dependent
  (pivot at or below PIVOT_RATIO_MIN times its diagonal entry); callers
  send those draws to least squares on H itself, since there the Gram
  form has lost its accuracy.
- :func:`inverse_diagonal` turns a factor into the diagonal of G^-1.
- :func:`jacobi_eigenvalues` takes the eigenvalues of real symmetric
  stacks by cyclic Jacobi rotations (Golub & Van Loan, Matrix
  Computations, 4th ed., Sec. 8.5).  Its cost grows like n^3 per sweep in
  Python-level operations, so it pays only for the smallest sizes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "abs2",
    "stacked_gram",
    "cholesky_lower",
    "inverse_diagonal",
    "jacobi_eigenvalues",
]

# Cholesky pivot / diagonal entry at or below which a draw goes to least
# squares: its columns are near-dependent and the Gram form cancels.
PIVOT_RATIO_MIN = 1e-6
# Sweeps after which a stack that still has off-diagonal mass is refused.
# Cyclic Jacobi converges quadratically; random 3x3 stacks need about 4.
JACOBI_SWEEPS = 12


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
    real diagonal, and an (N, B) mask: clear[j] marks the draws whose pivot
    j exceeds PIVOT_RATIO_MIN times G_jj.  A pivot that is not positive
    leaves NaN in its column and fails the mask.
    """
    n = gram.shape[0]
    if np.iscomplexobj(gram):
        def dot(x, y):
            return x * y.conj()
    else:
        dot = np.multiply
    low = [[None] * n for _ in range(n)]
    clear = np.empty((n, gram.shape[-1]), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            pivot = gram[j, j].real.copy()
            for k in range(j):
                pivot -= abs2(low[j][k])
            clear[j] = pivot > PIVOT_RATIO_MIN * gram[j, j].real
            low[j][j] = np.sqrt(pivot)
            for i in range(j + 1, n):
                acc = gram[i, j].copy()
                for k in range(j):
                    acc -= dot(low[i][k], low[j][k])
                low[i][j] = acc / low[j][j]
    return low, clear


def inverse_diagonal(low: list) -> np.ndarray:
    """(B, N) diagonal of G^-1 from the factor of :func:`cholesky_lower`.

    L^-1 by forward substitution, column by column; [G^-1]_nn is the
    squared norm of column n of L^-1.
    """
    n = len(low)
    out = np.empty((n, len(low[0][0])))
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(n):
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


def jacobi_eigenvalues(w: np.ndarray) -> np.ndarray:
    """(n, B) eigenvalues, unordered, of (n, n, B) real symmetric stacks.

    Cyclic Jacobi: each sweep rotates every pair (p, q) once, with the
    rotation that zeroes a_pq on every draw at the same time.  Stops once
    every draw's off-diagonal mass sum a_pq^2 is at most eps^2 times its
    diagonal mass sum a_pp^2; raises ArithmeticError if that takes more
    than JACOBI_SWEEPS sweeps.  Reads the upper triangle only.  Entries
    must stay within about 1e+-150, where their squares neither overflow
    nor underflow (no Wishart draw here comes near); outside that range a
    rotation misses and the stack is refused, not answered.
    """
    n = w.shape[0]
    a = {(p, q): w[p, q].copy() for p in range(n) for q in range(p, n)}
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    tol = np.finfo(float).eps ** 2
    tiny = np.finfo(float).tiny

    def entry(r, c):
        return (r, c) if r <= c else (c, r)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(JACOBI_SWEEPS + 1):
            off = sum(np.square(a[pq]) for pq in pairs)
            diag = sum(np.square(a[p, p]) for p in range(n))
            if np.all(off <= tol * diag):
                return np.array([a[p, p] for p in range(n)])
            for p, q in pairs:
                # t = tan(angle) = x / (sign(d) (|d| + sqrt(d^2 + x^2))) with
                # d = a_qq - a_pp, x = 2 a_pq: the smaller root of
                # t^2 + 2 tau t - 1 = 0, tau = d / x, without dividing by
                # a_pq.  The tiny floor gives t = 0 where d = x = 0.
                apq = a[p, q]
                d = a[q, q] - a[p, p]
                x = 2.0 * apq
                den = d * d
                den += x * x
                np.sqrt(den, out=den)
                den += np.abs(d)
                np.maximum(den, tiny, out=den)
                np.copysign(den, d, out=den)
                t = np.divide(x, den, out=den)
                shift = t * apq
                a[p, p] -= shift
                a[q, q] += shift
                apq[:] = 0.0
                if n == 2:
                    continue
                c = t * t                      # cos(angle) = 1 / sqrt(1 + t^2)
                c += 1.0
                np.sqrt(c, out=c)
                np.divide(1.0, c, out=c)
                for r in range(n):
                    if r in (p, q):
                        continue
                    rp, rq = entry(r, p), entry(r, q)
                    g, h = a[rp], a[rq]
                    a[rp] = (g - t * h) * c
                    a[rq] = (h + t * g) * c
    raise ArithmeticError(
        f"Jacobi eigenvalues: off-diagonal mass above eps^2 of the diagonal "
        f"after {JACOBI_SWEEPS} sweeps"
    )
