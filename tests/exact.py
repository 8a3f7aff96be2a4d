"""Exact rational linear algebra on float inputs, for accuracy oracles.

Every float entry is taken as the exact fraction it stores, so an oracle
built from these helpers is the true answer for the very draw a kernel saw,
free of rounding until the one final conversion to float.
"""

from fractions import Fraction

import numpy as np


def realify(a: np.ndarray) -> np.ndarray:
    """Real form of a complex matrix or vector; real input passes through.

    A + iB becomes [[A, -B], [B, A]] for a matrix and [a; b] for a vector,
    so products, Grams, inverses and least squares all carry over.
    """
    if not np.iscomplexobj(a):
        return a
    if a.ndim == 1:
        return np.concatenate([a.real, a.imag])
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def as_fractions(a: np.ndarray) -> list:
    """Nested lists of the exact fractions a real float array stores."""
    if a.ndim == 1:
        return [Fraction(float(x)) for x in a]
    return [as_fractions(row) for row in a]


def gram(h: list, g: list | None = None) -> list:
    """h' g (h' h by default) for real matrices held as nested lists."""
    g = h if g is None else g
    cols = range(len(h[0]))
    return [[sum(row[i] * other[j] for row, other in zip(h, g))
             for j in range(len(g[0]))] for i in cols]


def solve(a: list, b: list) -> list:
    """a^-1 b for a square nonsingular a and a matrix b, by Gauss-Jordan."""
    size = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(size):
        p = next(r for r in range(c, size) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[size:] for row in rows]


def sturm_count(d2: np.ndarray, e2: np.ndarray, sigma: float) -> int:
    """Eigenvalues of B B^T below sigma, B lower bidiagonal, exactly.

    B B^T is tridiagonal with diagonal d2_i + e2_i-1 and squared
    off-diagonals d2_i e2_i; the count is the number of negative pivots of
    its LDL^T minus sigma (Sylvester's law of inertia), taken over the
    exact fractions the floats store.  A zero pivot raises.
    """
    d2, e2, sigma = as_fractions(d2), as_fractions(e2), Fraction(float(sigma))
    count, pivot = 0, None
    for i, d in enumerate(d2):
        q = d - sigma
        if i:
            q += e2[i - 1] - d2[i - 1] * e2[i - 1] / pivot
        if q == 0:
            raise ZeroDivisionError("zero pivot in the exact Sturm count")
        count += q < 0
        pivot = q
    return count
