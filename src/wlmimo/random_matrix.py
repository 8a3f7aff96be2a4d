"""Gaussian channel draws, the real widely-linear stacking, and Haar vectors.

Conventions used throughout the package:

==================  =====================================================
object              distribution
==================  =====================================================
complex channel     entries i.i.d. CN(0, 1)
stacked channel     [Re; Im] of the above, entries i.i.d. N(0, 1/2)
Wishart draw        X X^T with X an (n, m) standard normal matrix, n <= m
Haar unit vector    alpha / ||alpha||, alpha standard (real/complex) normal
==================  =====================================================
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_channel",
    "wl_transform",
    "sample_haar_unit_vector",
]

def sample_channel(m_rx: int, n_users: int, rng: np.random.Generator, size: int | None = None):
    """Draw a complex (m_rx, n_users) channel with i.i.d. CN(0, 1) entries.

    With `size` given, returns a (size, m_rx, n_users) stack.
    """
    if m_rx < 1 or n_users < 1:
        raise ValueError("channel dimensions must be positive")
    shape = (m_rx, n_users) if size is None else (size, m_rx, n_users)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return np.sqrt(0.5) * (re + 1j * im)


def wl_transform(hbar: np.ndarray) -> np.ndarray:
    """Stack a complex channel into its real widely-linear form.

    Maps (..., M, N) complex to (..., 2M, N) real with the real part on top
    and the imaginary part below.  Entries of the result are N(0, 1/2) when
    the input is CN(0, 1).  Rejects real input: the stacking applies once.
    """
    hbar = np.asarray(hbar)
    if not np.iscomplexobj(hbar):
        raise TypeError("wl_transform expects a complex channel; it is already stacked")
    if hbar.ndim < 2:
        raise ValueError("expected at least a 2-d channel matrix")
    return np.concatenate([hbar.real, hbar.imag], axis=-2)


def sample_haar_unit_vector(
    n: int,
    rng: np.random.Generator,
    size: int | None = None,
    kind: str = "real",
) -> np.ndarray:
    """Draw unit vectors uniform on the real or complex unit sphere.

    Standard normal draws normalized to unit length.  `kind="real"` matches
    the eigenvector statistics of real Wishart matrices (the widely-linear
    case); `kind="complex"` matches complex Wishart (the conventional case).
    Returns shape (n,) or (size, n).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    shape = (n,) if size is None else (size, n)
    if kind == "real":
        alpha = rng.standard_normal(shape)
    elif kind == "complex":
        alpha = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        raise ValueError("kind must be 'real' or 'complex'")
    norm = np.linalg.norm(alpha, axis=-1, keepdims=True)
    return alpha / norm
