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
batched helpers used inside Monte Carlo loops take one of two routes per
draw: the Gram form, by a Cholesky of the Gram vectorised over the stack
(:mod:`wlmimo.stacked`), where every pivot is clear; and the projector
form, by least squares on H itself, on draws with near-dependent columns,
where the Gram form has lost its accuracy.  One stacked SVD solves the
least squares of all such draws at once.

SIC variants decode greedily by largest SINR (equal SINRs to the lowest
user index; the reference refuses near ties), assume genie-aided
cancellation, and rebuild the detector on the remaining columns after
every stage.  The reference recomputes it from the reduced channel.  The
batched path forms the Gram and its MMSE ridge once, and gives each stage
the principal sub-Gram of the users a draw has left, which is entry for
entry the Gram of its reduced channel.  It stops working on a draw once
its tagged user is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stacked import abs2, cholesky_lower, inverse_diagonal, stacked_gram

__all__ = [
    "DIMS",
    "threshold",
    "ReceiverSpec",
    "zf_sinr",
    "mmse_sinr",
    "cl_sinr",
    "sic_sinr_stages",
    "batched_tagged_sinr",
]

DUAL_FORM_RTOL = 1e-9

# Dimension factor D of each family: WL sends a real symbol over 2M real
# dimensions, CL a complex one over M complex dimensions.  D gives the
# threshold 2^(D R) - 1, the capacity D M, the SINR prefactor D snr, the
# diversity (D M - N + 1)/D and the ZF law D Gamma((D M - N + 1)/D); only
# the channel (real stacked or complex), its Haar vectors, the SIC Wishart
# constant and the CL-only half-TTI mode differ otherwise.
DIMS = {"wl": 2, "cl": 1}
CRITERIA = ("zf", "mmse")


def threshold(family: str, rate: float) -> float:
    """SINR threshold of one stream at rate R bits/s/Hz: 2^(D R) - 1."""
    try:
        return 2.0 ** (DIMS[family] * float(rate)) - 1.0
    except OverflowError:
        raise ValueError(f"rate {rate} is too large: the {family.upper()} "
                         f"threshold 2^({DIMS[family]} R) overflows") from None


@dataclass(frozen=True)
class ReceiverSpec:
    """Which detector to run: family x criterion, optionally with SIC."""

    family: str
    criterion: str
    sic: bool = False

    def __post_init__(self):
        if self.family not in DIMS:
            raise ValueError(
                f"family must be one of {tuple(DIMS)}, not {self.family!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"criterion must be one of {CRITERIA}, not {self.criterion!r}")

    @property
    def label(self) -> str:
        name = f"{self.family}-{self.criterion}".upper()
        return name + "-SIC" if self.sic else name


def _check_dims(rx: ReceiverSpec, h: np.ndarray, xi: np.ndarray) -> None:
    n = h.shape[-1]
    if xi.shape[-1] != n:
        raise ValueError("xi length does not match the user count")
    rows = h.shape[-2]
    if rx.family == "wl":
        if np.iscomplexobj(h):
            raise TypeError("WL receivers expect the real stacked channel")
        if rows % 2 != 0:
            raise ValueError("stacked channel must have an even row count")
    elif not np.iscomplexobj(h):
        raise TypeError("CL receivers expect the complex channel")
    if n > rows:
        raise ValueError(
            f"{rx.label} cannot separate {n} users on {rows} receive dimensions"
        )


def _scale_and_ridge(xi, snr, rx):
    """SINR prefactor D snr and the MMSE loading 1/(pre xi)."""
    pre = DIMS[rx.family] * snr
    return pre, (1.0 / (pre * xi) if rx.criterion == "mmse" else None)


def _projector_sinrs(h, xi, pre, ridge) -> np.ndarray:
    """(F, N) projector-form SINRs pre xi_n h_n* Pperp_n h_n of F draws.

    Each user's residual against the other columns of its draw, for all
    F N (draw, user) pairs from one stacked SVD.  Singular values at or
    below lstsq's cutoff eps max(shape) s_max count as zero, so dependent
    interferers project correctly.  `ridge` (None for ZF) enters as extra
    rows, which turns the residual into the regularized MMSE form.
    """
    n = h.shape[-1]
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    target = np.swapaxes(h, 1, 2)                        # (F, N, rows)
    a = np.moveaxis(h[:, :, others], 1, 2)               # (F, N, rows, N-1)
    if ridge is not None:
        loads = np.sqrt(ridge)[:, others]                # (F, N, N-1)
        a = np.concatenate([a, loads[..., None] * np.eye(n - 1)], axis=2)
        target = np.concatenate([target, np.zeros(loads.shape, target.dtype)],
                                axis=2)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape[-2:]) * s.max(-1, initial=0.0)
    coef = np.where(s > cutoff[..., None],
                    (u.conj().swapaxes(-1, -2) @ target[..., None])[..., 0], 0.0)
    resid = target - (u @ coef[..., None])[..., 0]
    return pre * xi * abs2(resid).sum(axis=-1)


def _reference_sinrs(h, xi, snr: float, rx: ReceiverSpec) -> np.ndarray:
    """(N,) per-user SINRs of one draw, by both published routes.

    Returns the Gram-inverse route after checking each SINR against the
    projector route to DUAL_FORM_RTOL relative.  MMSE is compared before
    the resolvent form subtracts 1 (an MMSE SINR can be far below the
    routes' absolute accuracy at low power) and clamped at zero after,
    since the subtraction can go microscopically negative.  On a draw with
    dependent interferers the result is either the least-squares
    projection or an ArithmeticError / LinAlgError, never another number.
    """
    h = np.asarray(h)
    xi = np.asarray(xi, dtype=float)
    _check_dims(rx, h, xi)
    if snr <= 0:
        raise ValueError("snr must be positive")
    pre, ridge = _scale_and_ridge(xi, snr, rx)
    gram = h.conj().T @ h
    by_projector = _projector_sinrs(
        h[None], xi[None], pre, None if ridge is None else ridge[None])[0]
    if ridge is not None:
        gram = gram + np.diag(ridge)
        by_projector = by_projector + 1.0
    # a float-singular Gram gives inf or NaN here, which the check refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        by_inverse = pre * xi / np.real(np.diagonal(np.linalg.inv(gram)))
    if not np.allclose(by_inverse, by_projector, rtol=DUAL_FORM_RTOL, atol=0.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(np.abs(by_inverse - by_projector)
                                 / np.abs(by_projector)))
        raise ArithmeticError(
            f"{rx.label} SINR: matrix-inverse and projector forms disagree "
            f"(rel {worst:.2e})"
        )
    return by_inverse if ridge is None else np.maximum(by_inverse - 1.0, 0.0)


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
    """Greedy genie-aided SIC: largest SINR first, detector rebuilt per stage.

    Two top SINRs that differ by no more than DUAL_FORM_RTOL relative are a
    pick that rounding decides, so the stage refuses it (ArithmeticError);
    equal ones go to the lowest index.
    """
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
        second = np.max(np.delete(gams, pick), initial=0.0)
        if 0.0 < gams[pick] - second <= DUAL_FORM_RTOL * gams[pick]:
            raise ArithmeticError(
                f"{rx.label}: the top two stage SINRs {gams[pick]:.6e} and "
                f"{second:.6e} tie within the routes' tolerance"
            )
        user = remaining[pick]
        sinr[user] = float(gams[pick])
        order.append(user)
        remaining.pop(pick)
    return SinrReport(sinr=sinr, order=np.array(order))


# ---------------------------------------------------------------------------
# Batched engine paths (one route per draw; the dual check lives above)
# ---------------------------------------------------------------------------

def batched_tagged_sinr(
    h: np.ndarray, xi: np.ndarray, snr: float, rx: ReceiverSpec
) -> np.ndarray:
    """SINR of user 0 for a stack of draws; SIC uses its decode-stage SINR.

    `h` is (B, 2M, N) real for WL or (B, M, N) complex for CL; `xi` is
    (B, N) or a shared (N,).  Users are exchangeable, so tracking index 0
    is enough for outage statistics.  The Gram and its MMSE ridge are
    formed once; each SIC stage takes the principal sub-Gram of the users
    a draw has left, which holds the same numbers as the Gram of its
    reduced channel.  Draws that fail the pivot test take the projector
    form on their remaining columns, all of a stage's in one call.
    """
    h = np.asarray(h)
    xi = np.asarray(xi, dtype=float)
    if h.ndim != 3:
        raise ValueError("expected a (batch, rows, users) channel stack")
    _check_dims(rx, h, np.atleast_2d(xi)[0])
    b, _, n = h.shape
    if xi.ndim == 1:
        xi = np.broadcast_to(xi, (b, n))
    pre, ridge = _scale_and_ridge(xi, snr, rx)
    gram = stacked_gram(h)
    if ridge is not None:
        step = np.arange(n)
        gram[step, step] += ridge.T
    # The draws still decoding and, per draw, its remaining users in their
    # original order, so the tagged user stays column 0 of every stage.
    rows = np.arange(b)
    cols = np.arange(n)[None].repeat(b, axis=0)
    tagged = np.zeros(b)
    while True:
        low, clear = cholesky_lower(gram)
        with np.errstate(divide="ignore"):
            gams = pre * xi / inverse_diagonal(low)
        if ridge is not None:
            gams = np.maximum(gams - 1.0, 0.0)
        # A draw with a pivot at or below PIVOT_RATIO_MIN has near-dependent
        # columns, where the Gram form has lost up to twice the digits of a
        # least-squares solve on H, so it takes the projector form.
        clear = clear.all(axis=0)
        if not clear.all():
            bad = np.nonzero(~clear)[0]
            sub = np.take_along_axis(h[rows[bad]], cols[bad, None, :], axis=2)
            gams[bad] = _projector_sinrs(
                sub, xi[bad], pre,
                None if ridge is None else ridge[rows[bad, None], cols[bad]])
        if not rx.sic:
            return gams[:, 0]
        pick = np.argmax(gams, axis=1)    # ties go to the lowest index
        done = pick == 0
        tagged[rows[done]] = gams[done, 0]
        go = np.nonzero(~done)[0]
        if not len(go):
            return tagged
        # Flat gathers keep, for each draw that goes on, the k - 1 stage
        # positions it has not decoded: its xi and users, and the rows and
        # columns of its Gram.
        k, stack = len(gram), len(rows)
        keep = np.arange(k - 1) + (np.arange(k - 1) >= pick[go, None])
        at = go[:, None] * k + keep
        rows, cols, xi = rows[go], cols.ravel()[at], xi.ravel()[at]
        keep = keep.T * stack
        gram = gram.ravel()[(keep * k)[:, None] + (keep + go)[None]]
