"""Linear and successive multi-user detection front ends, WL and CL.

Widely linear (WL) receivers operate on the real stacked channel H
(2M x N, from :func:`wlmimo.random_matrix.wl_transform`) and see 2M virtual
receive dimensions; conventional linear (CL) receivers operate on the
complex channel itself.  Per-user post-detection SINRs:

    WL-ZF:    gamma_n = 2 snr xi_n / [(H'H)^-1]_nn
                      = 2 snr xi_n h_n' Pperp_n h_n
    WL-MMSE:  gamma_n = 2 snr xi_n / [(H'H + Psi^-1/(2 snr))^-1]_nn - 1
                      = 2 snr xi_n h_n' Pperp~_n h_n
    CL-ZF:    gamma_n = snr xi_n / [(Hb^H Hb)^-1]_nn
    CL-MMSE:  gamma_n = snr xi_n / [(Hb^H Hb + Psi^-1/snr)^-1]_nn - 1

where h_n is column n, and Pperp_n projects onto the orthogonal complement
of the remaining columns (the MMSE variant uses the regularized resolvent
instead of the exact projector).  Both published forms of each SINR are
evaluated by the reference functions and must agree to 1e-9 relative.  The
batched helpers used inside Monte Carlo loops compute only the Gram form:
a Cholesky of the Gram vectorised over the stack; LAPACK on draws with
near-dependent columns; the projector form by least squares on draws whose
Gram matrix is singular in float64.

SIC variants decode greedily by largest SINR (ties to the lowest user
index), assume genie-aided cancellation, and recompute the detector from
scratch on the remaining columns after every stage.  The batched SIC path
stops working on a draw once its tagged user is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReceiverSpec",
    "SinrReport",
    "zf_sinr",
    "mmse_sinr",
    "cl_sinr",
    "sic_sinr_stages",
    "batched_tagged_sinr",
]

DUAL_FORM_RTOL = 1e-9
# Cholesky pivot / diagonal entry at or below which a draw's Gram goes to
# LAPACK: its columns are near-dependent and the Gram form cancels.
PIVOT_RATIO_MIN = 1e-6

FAMILIES = ("wl", "cl")
CRITERIA = ("zf", "mmse")


@dataclass(frozen=True)
class ReceiverSpec:
    """Which detector to run: family x criterion, optionally with SIC."""

    family: str
    criterion: str
    sic: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")

    @property
    def label(self) -> str:
        name = f"{self.family}-{self.criterion}".upper()
        return name + "-SIC" if self.sic else name

    def max_users(self, m_rx: int) -> int:
        return 2 * m_rx if self.family == "wl" else m_rx


def _check_dims(rx: ReceiverSpec, h: np.ndarray, xi: np.ndarray) -> None:
    n = h.shape[-1]
    if xi.shape[-1] != n:
        raise ValueError("xi length does not match the user count")
    rows = h.shape[-2]
    m_rx = rows // 2 if rx.family == "wl" else rows
    if rx.family == "wl":
        if np.iscomplexobj(h):
            raise TypeError("WL receivers expect the real stacked channel")
        if rows % 2 != 0:
            raise ValueError("stacked channel must have an even row count")
    elif not np.iscomplexobj(h):
        raise TypeError("CL receivers expect the complex channel")
    if n > rx.max_users(m_rx):
        raise ValueError(
            f"{rx.label} cannot separate {n} users with {m_rx} antennas"
        )


def _scale_and_ridge(xi, snr, rx):
    """SINR prefactor (2 snr WL, snr CL) and the MMSE loading 1/(pre xi)."""
    pre = 2.0 * snr if rx.family == "wl" else snr
    return pre, (1.0 / (pre * xi) if rx.criterion == "mmse" else None)


def _projector_sinrs(h, xi, pre, ridge) -> np.ndarray:
    """(N,) projector-form SINRs pre xi_n h_n* Pperp_n h_n of one draw.

    Least squares against the other columns, so dependent interferers are
    fine.  `ridge` (None for ZF) enters as extra rows, which turns the
    residual into the regularized MMSE form.
    """
    n = h.shape[1]
    q = np.empty(n)
    for i in range(n):
        others = np.delete(h, i, axis=1)
        target = h[:, i]
        if ridge is not None:
            others = np.vstack([others, np.diag(np.sqrt(np.delete(ridge, i)))])
            target = np.concatenate([target, np.zeros(n - 1)])
        coef = np.linalg.lstsq(others, target, rcond=None)[0]
        resid = target - others @ coef
        q[i] = np.real(np.vdot(resid, resid))
    return pre * xi * q


def _reference_sinrs(h, xi, snr: float, rx: ReceiverSpec) -> np.ndarray:
    """(N,) per-user SINRs of one draw, by both published routes.

    Returns the Gram-inverse route after checking it against the projector
    route to DUAL_FORM_RTOL; MMSE values are clamped at zero, since the
    resolvent form subtracts 1 and can go microscopically negative.  On a
    draw with dependent interferers the result is either the least-squares
    projection or an ArithmeticError / LinAlgError, never another number.
    """
    h = np.asarray(h)
    xi = np.asarray(xi, dtype=float)
    _check_dims(rx, h, xi)
    if snr <= 0:
        raise ValueError("snr must be positive")
    pre, ridge = _scale_and_ridge(xi, snr, rx)
    gram = h.conj().T @ h
    if ridge is not None:
        gram = gram + np.diag(ridge)
    # a float-singular Gram gives inf or NaN here, which the check refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        by_inverse = pre * xi / np.real(np.diagonal(np.linalg.inv(gram)))
    if ridge is not None:
        by_inverse = by_inverse - 1.0
    by_projector = _projector_sinrs(h, xi, pre, ridge)
    if not np.allclose(by_inverse, by_projector, rtol=DUAL_FORM_RTOL, atol=1e-9):
        with np.errstate(invalid="ignore"):
            worst = float(np.max(np.abs(by_inverse - by_projector)
                                 / np.maximum(np.abs(by_inverse), 1e-300)))
        raise ArithmeticError(
            f"{rx.label} SINR: matrix-inverse and projector forms disagree "
            f"(rel {worst:.2e})"
        )
    return by_inverse if ridge is None else np.maximum(by_inverse, 0.0)


def _entry(sinrs: np.ndarray, n: int | None) -> np.ndarray | float:
    return sinrs if n is None else float(sinrs[n])


def zf_sinr(h, xi, snr: float, n: int | None = None) -> np.ndarray | float:
    """WL-ZF per-user SINR (all users, or just user `n`), dual-checked."""
    return _entry(_reference_sinrs(h, xi, snr, ReceiverSpec("wl", "zf")), n)


def mmse_sinr(h, xi, snr: float, n: int | None = None) -> np.ndarray | float:
    """WL-MMSE per-user SINR, clamped at zero, dual-checked."""
    return _entry(_reference_sinrs(h, xi, snr, ReceiverSpec("wl", "mmse")), n)


def cl_sinr(
    hbar, xi, snr: float, criterion: str = "zf", n: int | None = None
) -> np.ndarray | float:
    """CL-ZF / CL-MMSE per-user SINR on the complex channel, dual-checked."""
    return _entry(_reference_sinrs(hbar, xi, snr, ReceiverSpec("cl", criterion)), n)


@dataclass(frozen=True)
class SinrReport:
    """Outcome of a SIC run: decode order and each user's stage SINR."""

    sinr: np.ndarray    # (N,) SINR user n saw at the stage it was decoded
    order: np.ndarray   # (N,) user indices in decode order

    def __post_init__(self):
        if sorted(self.order.tolist()) != list(range(len(self.order))):
            raise ValueError("decode order must be a permutation of the users")


def sic_sinr_stages(
    h: np.ndarray, xi: np.ndarray, snr: float, rx: ReceiverSpec
) -> SinrReport:
    """Greedy genie-aided SIC: largest SINR first, detector rebuilt per stage."""
    h = np.asarray(h)
    xi = np.asarray(xi, dtype=float)
    _check_dims(rx, h, xi)
    n = h.shape[1]
    remaining = list(range(n))
    sinr = np.zeros(n)
    order = []
    while remaining:
        idx = np.array(remaining)
        gams = _reference_sinrs(h[:, idx], xi[idx], snr, rx)
        pick = int(np.argmax(gams))    # argmax breaks ties at the lowest index
        user = remaining[pick]
        sinr[user] = float(gams[pick])
        order.append(user)
        remaining.pop(pick)
    return SinrReport(sinr=sinr, order=np.array(order))


# ---------------------------------------------------------------------------
# Batched engine paths (Gram form only; the dual check lives above)
# ---------------------------------------------------------------------------

def _lapack_diag_inv(gram: np.ndarray) -> np.ndarray:
    """Diagonal of gram^-1 per draw by LAPACK; NaN on draws it finds singular.

    A raising batch is halved until the singular draws are isolated, so
    every other draw keeps the inverse it gets in a batch that does not raise.
    """
    try:
        return np.real(np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1))
    except np.linalg.LinAlgError:
        if len(gram) == 1:
            return np.full((1, gram.shape[-1]), np.nan)
        half = len(gram) // 2
        return np.concatenate(
            [_lapack_diag_inv(gram[:half]), _lapack_diag_inv(gram[half:])]
        )


def _stacked_gram(h: np.ndarray) -> np.ndarray:
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


def _cholesky_diag_inv(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, N) diagonal of G^-1 for (N, N, B) Hermitian Grams, draws last.

    Cholesky G = L L* and L^-1 by forward substitution, written out entry
    by entry, so each step is one vector operation over the stack;
    [G^-1]_nn is the squared norm of column n of L^-1.  Also returns which
    draws are clear of near-dependence: those whose pivots all exceed
    PIVOT_RATIO_MIN times their diagonal entries.  The others (including
    draws with a pivot that is not positive, whose entries are NaN) have
    columns where the Gram form itself cancels.
    """
    n, b = gram.shape[0], gram.shape[-1]
    if np.iscomplexobj(gram):
        def abs2(z):
            return z.real * z.real + z.imag * z.imag

        def dot(x, y):
            return x * y.conj()
    else:
        abs2 = np.square
        dot = np.multiply
    low = [[None] * n for _ in range(n)]
    clear = np.ones(b, dtype=bool)
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
        out = np.empty((n, b))
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
    return out.T, clear


def _batched_linear_sinrs(h, xi, snr, rx) -> np.ndarray:
    """(B, N) per-user SINRs for the linear receivers on stacked draws.

    Draws whose Gram matrix is singular in float64 fall back to the
    projector form, so they count as what they are (SINR ~ 0 for the users
    they cannot separate) instead of aborting the batch.
    """
    gram = _stacked_gram(h)
    pre, ridge = _scale_and_ridge(xi, snr, rx)
    step = np.arange(gram.shape[0])
    if ridge is not None:
        gram[step, step] += ridge.T
    diag, clear = _cholesky_diag_inv(gram)
    near = np.nonzero(~clear)[0]
    if len(near):
        # Near-dependent columns: here the Gram form depends on its own
        # rounding, so these draws keep the reference SINRs' arithmetic,
        # a matmul Gram inverted by LAPACK.
        g = np.swapaxes(h[near].conj(), -2, -1) @ h[near]
        if ridge is not None:
            g[:, step, step] += ridge[near]
        diag[near] = _lapack_diag_inv(g)
    with np.errstate(divide="ignore"):
        out = pre * xi / diag
    if ridge is not None:
        out = np.maximum(np.real(out - 1.0), 0.0)
    # [G^-1]_nn G_nn >= 1 for positive definite G; NaN (refused by LAPACK)
    # or a smaller product is an inverse of a matrix singular in float64.
    bound = diag * np.real(gram[step, step]).T
    for i in np.nonzero(~np.all(bound >= 1.0 - 1e-6, axis=1))[0]:
        out[i] = _projector_sinrs(
            h[i], xi[i], pre, None if ridge is None else ridge[i]
        )
    return out


def batched_tagged_sinr(
    h: np.ndarray, xi: np.ndarray, snr: float, rx: ReceiverSpec
) -> np.ndarray:
    """SINR of user 0 for a stack of draws; SIC uses its decode-stage SINR.

    `h` is (B, 2M, N) real for WL or (B, M, N) complex for CL; `xi` is
    (B, N) or a shared (N,).  Users are exchangeable, so tracking index 0
    is enough for outage statistics.
    """
    h = np.asarray(h)
    xi = np.asarray(xi, dtype=float)
    if h.ndim != 3:
        raise ValueError("expected a (batch, rows, users) channel stack")
    _check_dims(rx, h, np.atleast_2d(xi)[0])
    b, _, n = h.shape
    if xi.ndim == 1:
        xi = np.broadcast_to(xi, (b, n))
    if not rx.sic:
        return _batched_linear_sinrs(h, xi, snr, rx)[:, 0]

    # Removing decoded interferers keeps the column order, so the tagged
    # user stays column 0; a draw leaves the loop once it is decoded.
    rows = np.arange(b)
    tagged = np.zeros(b)
    while len(rows):
        gams = _batched_linear_sinrs(h, xi, snr, rx)
        pick = np.argmax(gams, axis=1)    # ties go to the lowest index
        done = pick == 0
        tagged[rows[done]] = gams[done, 0]
        go = ~done
        rows = rows[go]
        k = h.shape[-1]
        keep = np.arange(k) != pick[go, None]
        cols = np.nonzero(keep)[1].reshape(len(rows), k - 1)
        h = np.take_along_axis(h[go], cols[:, None, :], axis=2)
        xi = np.take_along_axis(xi[go], cols, axis=1)
    return tagged
