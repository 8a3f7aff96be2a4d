"""Outage probabilities and high-SNR diversity/coding gains.

Every receiver here obeys the same high-SNR law

    P_out(snr) ~ (C * snr)^(-d)

with diversity d and coding gain C.  With the dimension factor D of
:data:`wlmimo.receivers.DIMS` (2 for WL, 1 for CL), d = (D M - N + 1)/D:
M - (N-1)/2 for WL (the smallest-eigenvalue exponent of the real Wishart
matrix H'H with n = N, m = 2M) and M - N + 1 for CL.  A rate target R
translates into the SINR threshold gamma_T = 2^(D R) - 1
(:func:`wlmimo.receivers.threshold`).

One routine, :func:`gain_for`, gives every receiver's coding gain as
C = K [E w]^(-1/d), a prefactor K times a d-th moment E w over the
received-power profile xi, the high-SNR MMSE residual eta, and squared
entries of Haar-distributed unit vectors; the moment is Monte Carlo
evaluated with a reported standard error.  The MMSE-SIC bracket bounds C
from both sides, and under PPC the two bounds coincide in the exact C.
eta is drawn without a channel, from the Bartlett factor of the
interferers' channel (:func:`residual_interference_samples`), for
N <= D M users.
Heavy-tailed moment estimates (inverse powers of lognormal shadowing) are
flagged when the top 10 samples carry more than 5% of the sample sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link_model import LinkConfig, sample_large_scale, sample_power_profile
from .montecarlo import EstimateError
from .random_matrix import sample_channel, sample_haar_unit_vector, wl_transform
from .receivers import DIMS, ReceiverSpec, batched_tagged_sinr, threshold
from .stacked import abs2
from .wishart_asymptotics import beta1

__all__ = [
    "diversity_order",
    "outage_mc",
    "gain_for",
    "asymptote_curve",
    "residual_interference_samples",
    "snr_grid",
    "MIN_TRIALS",
    "MIN_GAIN_TRIALS",
]

HEAVY_TAIL_TOP = 10
HEAVY_TAIL_SHARE = 0.05
# Draws per batch.  Each batch draws its matrix entries, then its power
# profile, so a change of either constant changes every stream that spans
# more than one batch.
OUTAGE_BATCH = 1 << 15
RESIDUAL_BATCH = 1 << 14
# Fewest trials per SNR point outage_mc accepts, and fewest gain samples
# gain_for accepts (a moment's standard error needs two).
MIN_TRIALS = 1000
MIN_GAIN_TRIALS = 2


def diversity_order(m_rx: int, n_users: int, family: str) -> float:
    """High-SNR outage exponent (D M - N + 1)/D; refuses N > D M."""
    if family not in DIMS:
        raise ValueError(f"family must be one of {tuple(DIMS)}, not {family!r}")
    dim = DIMS[family]
    if n_users > dim * m_rx:
        raise ValueError(
            f"{family.upper()} receivers separate at most {dim * m_rx} users "
            f"with {m_rx} antennas, not {n_users}"
        )
    return (dim * m_rx - n_users + 1) / dim


# ---------------------------------------------------------------------------
# Monte Carlo outage curves
# ---------------------------------------------------------------------------

def snr_grid(snr_db) -> np.ndarray:
    """An SNR grid in dB: a non-empty, finite, strictly ascending list."""
    grid = np.array(snr_db, dtype=float)
    if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all() \
            or (np.diff(grid) <= 0).any():
        raise ValueError("snr_db must be a non-empty, finite, ascending list, "
                         f"not {snr_db!r}")
    return grid


@dataclass(frozen=True)
class OutageCurve:
    """Tagged-user outage events over an SNR grid, of `trials` draws each;
    the CLI writes each count as a proportion with its Wilson interval."""

    snr_db: np.ndarray
    events: np.ndarray
    trials: int


def outage_mc(
    rx: ReceiverSpec,
    cfg: LinkConfig,
    snr_db,
    trials: int,
    rng: np.random.Generator,
) -> OutageCurve:
    """Count the tagged user's outage events at each point of an SNR grid;
    the CLI writes each count as a proportion with its Wilson interval.

    Per draw the channel, the power profile, and (for SIC) the decode order
    are resampled; user 0 is the tagged user (users are exchangeable).
    Outage is SINR strictly below the rate threshold, so a zero-rate target
    counts no event.  The grid is checked by :func:`snr_grid`.
    """
    snr_db = snr_grid(snr_db)
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials per SNR point, "
                         f"not {trials}")
    diversity_order(cfg.m_rx, cfg.n_users, rx.family)    # refuses N > D M
    gamma_t = threshold(rx.family, cfg.rate)
    counts = np.zeros(len(snr_db), dtype=np.int64)
    for i, point_db in enumerate(snr_db):
        snr = 10.0 ** (point_db / 10.0)
        done = 0
        while done < trials:
            b = min(OUTAGE_BATCH, trials - done)
            hbar = sample_channel(cfg.m_rx, cfg.n_users, rng, size=b)
            h = wl_transform(hbar) if rx.family == "wl" else hbar
            xi = sample_power_profile(cfg, rng, size=b)
            sinr = batched_tagged_sinr(h, xi, snr, rx)
            counts[i] += int(np.count_nonzero(sinr < gamma_t))
            done += b
    return OutageCurve(snr_db, counts, trials)


# ---------------------------------------------------------------------------
# Asymptotic gains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSummary:
    """Diversity exponent and coding gain of one receiver variant.

    `lower`/`upper` hold the coding-gain bound pair where the analysis only
    brackets the constant (MMSE-SIC without power control); elsewhere they
    are None.  `stderr` propagates the MC error of the moment estimate to C
    (zero when the moment is exact, e.g. ZF under PPC).
    """

    receiver: ReceiverSpec
    diversity: float
    coding_gain: float
    lower: float | None = None
    upper: float | None = None
    stderr: float = 0.0
    heavy_tail: bool = False

    def __post_init__(self):
        if self.diversity <= 0:
            raise ValueError("diversity exponent must be positive")
        if not (self.coding_gain > 0 and math.isfinite(self.coding_gain)):
            raise ValueError("coding gain must be positive and finite")
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("coding-gain bounds are crossed")


def asymptote_curve(gain: GainSummary, snr_db) -> np.ndarray:
    """(C * snr)^(-d) over a dB grid."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    return (gain.coding_gain * snr) ** (-gain.diversity)


def _gain(rx: ReceiverSpec, d: float, pre: float, w: np.ndarray,
          **bounds) -> GainSummary:
    """C = pre [E w]^(-1/d) from samples w of a d-th moment, with the
    moment's standard error carried to C, and the heavy-tail flag."""
    mean = float(w.mean())
    if mean <= 0:
        raise EstimateError(
            "moment estimate vanished; all samples clipped (increase gain_trials "
            "or the rate target)"
        )
    se = float(w.std(ddof=1) / math.sqrt(len(w)))
    scale = mean ** (-1.0 / d)
    heavy = len(w) > HEAVY_TAIL_TOP and bool(
        np.sort(w)[-HEAVY_TAIL_TOP:].sum() > HEAVY_TAIL_SHARE * w.sum())
    return GainSummary(rx, d, pre * scale, stderr=pre * (scale / (d * mean) * se),
                       heavy_tail=heavy, **bounds)


def residual_interference_samples(
    cfg: LinkConfig,
    family: str,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """I.i.d. draws of the high-SNR MMSE residual eta for the tagged user.

    eta = sum_i |coef_i|^2 / xi_(i+1), coef = (H_1' H_1)^-1 H_1' h_1, with
    H_1 the interferers' channel (real stacked for WL, complex for CL).
    No channel is drawn: with H_1 = Q R, coef = R^-1 z for z = Q' h_1, and
    by the Bartlett decomposition (Muirhead, Aspects of Multivariate
    Statistical Theory, 1982, Thm 3.2.14; complex case in Edelman & Rao,
    Acta Numerica 2005) R and z have independent entries: with K = N - 1
    and the dimension factor D, R_ii^2 is chi-square with (2/D)(D M - i)
    degrees of freedom (i from 0), R_ij (i < j) and z_i standard normal,
    real for WL and with N(0, 1) real and imaginary parts for CL (the
    common scale cancels in coef).  Each batch of RESIDUAL_BATCH samples,
    draws last, takes the K diagonal entries, then the rows of [R z] from
    the last one up, z_i before R_i,i+1 .. R_i,K-1 (a CL entry's real part
    first), the order one back substitution uses them in; then the power
    profile.  Refuses N > D M, more users than the receiver separates.
    """
    diversity_order(cfg.m_rx, cfg.n_users, family)     # refuses N > D M
    k = cfg.n_users - 1                                # interferers
    if k == 0:
        return np.zeros(count)
    parts = 2 // DIMS[family]               # real normals per entry of R, z
    df = parts * (DIMS[family] * cfg.m_rx - np.arange(k))[:, None]
    out = np.empty(count)
    filled = 0
    while filled < count:
        b = min(RESIDUAL_BATCH, count - filled)
        diag = np.sqrt(rng.chisquare(df, (k, b)))
        normals = rng.standard_normal((k * (k + 1) // 2, b, parts))
        entries = iter(normals[..., 0] if parts == 1
                       else normals.view(complex)[..., 0])
        coef = [None] * k
        for i in reversed(range(k)):
            acc = next(entries)                         # z_i
            for j in range(i + 1, k):
                acc = acc - next(entries) * coef[j]     # R_ij
            coef[i] = acc / diag[i]
        xi = sample_power_profile(cfg, rng, size=b)
        out[filled : filled + b] = sum(abs2(c) / xi[:, i + 1] for i, c in enumerate(coef))
        filled += b
    return out


def gain_for(
    cfg: LinkConfig,
    rx: ReceiverSpec,
    trials: int,
    rng: np.random.Generator,
) -> GainSummary:
    """Diversity d and coding gain C of any receiver spec, WL or CL.

    Every C is K [E w]^(-1/d) for `trials` samples w of a d-th moment; D,
    d and gamma_T follow the family (:func:`diversity_order`,
    :func:`wlmimo.receivers.threshold`):

    * ZF: K = D (d Gamma(d))^(1/d) / gamma_T, w = xi^-d.  Under PPC the
      moment is xi_ppc^-d and C is exact (stderr 0).
    * MMSE: the same K, w = ([1/xi - eta/gamma_T]^+)^d.
    * SIC (diversity unchanged): K carries b = beta1(N, 2M)^(-1/d) for WL;
      for CL the complex Wishart constant cancels against E{mu^d}, where
      mu = |v_1|^2 ~ Beta(1, N-1) for v Haar on the complex sphere, so b
      is closed.  ZF-SIC takes K = b / gamma_T, w = theta_min^d with
      theta_n = v_n^2 / xi_n over Haar vectors v and independent profiles.
    * MMSE-SIC: the bracket [theta_min - (1/xi_min)/(gamma_T+1)]^+ with
      K = b / (gamma_T+1) bounds C from above, and with xi_max from below.
      At constant xi (PPC) the pair coincides, so the bracket is the exact
      C; as min_n v_n^2 <= 1/N surely, it is positive with positive
      probability exactly when N < gamma_T + 1.  Otherwise the headline is
      the residual-based K = b / gamma_T, w = ([vartheta_min]^+)^d with
      vartheta_n = v_n^2 (1/xi_n - eta_n/gamma_T), and without power
      control `lower`/`upper` carry the bound pair; `upper` is None where
      the upper bracket vanishes on every draw (no finite upper bound).

    SIC draws the Haar vectors, then the profile, then eta where the
    headline reads it.
    """
    if trials < MIN_GAIN_TRIALS:
        raise ValueError(f"need at least {MIN_GAIN_TRIALS} gain samples, "
                         f"not {trials}")
    n = cfg.n_users
    d = diversity_order(cfg.m_rx, n, rx.family)
    gamma_t = threshold(rx.family, cfg.rate)
    ppc = cfg.power_control == "ppc"
    if not rx.sic:
        pre = DIMS[rx.family] * (d * math.gamma(d)) ** (1.0 / d) / gamma_t
        if rx.criterion == "zf" and ppc:
            return GainSummary(rx, d, pre * cfg.xi_ppc)
        if rx.criterion == "zf":
            return _gain(rx, d, pre, sample_large_scale(cfg, trials, rng) ** (-d))
        xi = np.full(trials, cfg.xi_ppc) if ppc else sample_large_scale(cfg, trials, rng)
        eta = residual_interference_samples(cfg, rx.family, trials, rng)
        return _gain(rx, d, pre, np.clip(1.0 / xi - eta / gamma_t, 0.0, None) ** d)

    if rx.family == "wl":
        broot, kind = beta1(n, 2 * cfg.m_rx) ** (-1.0 / d), "real"
    else:
        log_mu = math.lgamma(1.0 + d) + math.lgamma(n) - math.lgamma(n + d)
        broot = math.exp((math.log(d * math.gamma(d)) + log_mu) / d)
        kind = "complex"
    squared = np.abs(sample_haar_unit_vector(n, rng, size=trials, kind=kind)) ** 2
    xi = sample_power_profile(cfg, rng, size=trials)     # (trials, N)
    if rx.criterion == "zf":
        return _gain(rx, d, broot / gamma_t, np.min(squared / xi, axis=1) ** d)

    pre, bounds = broot / (gamma_t + 1.0), {}
    if not ppc or n < gamma_t + 1.0:
        theta_min = np.min(squared / xi, axis=1)
        upper = np.clip(theta_min - (1.0 / np.min(xi, axis=1)) / (gamma_t + 1.0),
                        0.0, None) ** d
        if ppc:             # a sample with no positive draw refuses
            return _gain(rx, d, pre, upper)
        lower = np.clip(theta_min - (1.0 / np.max(xi, axis=1)) / (gamma_t + 1.0),
                        0.0, None) ** d
        # Once N >= gamma_T + 1 the upper bracket clips to zero on every draw
        # (it needs every v_n^2 above 1/(gamma_T+1)): no finite upper bound.
        bounds = {"lower": _gain(rx, d, pre, lower).coding_gain,
                  "upper": _gain(rx, d, pre, upper).coding_gain if upper.any() else None}
    eta = residual_interference_samples(cfg, rx.family, trials * n, rng)
    vartheta_min = np.min(squared * (1.0 / xi - eta.reshape(trials, n) / gamma_t), axis=1)
    return _gain(rx, d, broot / gamma_t, np.clip(vartheta_min, 0.0, None) ** d, **bounds)
