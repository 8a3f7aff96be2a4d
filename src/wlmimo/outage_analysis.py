"""Outage probabilities and high-SNR diversity/coding gains.

Every receiver here obeys the same high-SNR law

    P_out(snr) ~ (C * snr)^(-d)

with diversity d and coding gain C.  With the dimension factor D of
:data:`wlmimo.receivers.DIMS` (2 for WL, 1 for CL), d = (D M - N + 1)/D:
M - (N-1)/2 for WL (the smallest-eigenvalue exponent of the real Wishart
matrix H'H with n = N, m = 2M) and M - N + 1 for CL.  A rate target R
translates into the SINR threshold gamma_T = 2^(D R) - 1
(:func:`wlmimo.receivers.threshold`).

Coding gains involve expectations over the received-power profile xi, the
high-SNR MMSE residual eta, and squared entries of Haar-distributed unit
vectors; all are Monte Carlo evaluated with a reported standard error.
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
from .montecarlo import EstimateError, wilson_interval
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
    """Simulated outage of the tagged user over an SNR grid, with CIs."""

    snr_db: np.ndarray
    p_out: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int

    def __post_init__(self):
        for name in ("p_out", "ci_lo", "ci_hi"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != np.shape(self.snr_db):
                raise ValueError(f"{name} does not match the grid")
            if np.any((arr < 0) | (arr > 1)):
                raise ValueError(f"{name} must stay within [0, 1]")


def outage_mc(
    rx: ReceiverSpec,
    cfg: LinkConfig,
    snr_db,
    trials: int,
    rng: np.random.Generator,
) -> OutageCurve:
    """Tagged-user outage probability across an SNR grid.

    Per draw the channel, the power profile, and (for SIC) the decode order
    are resampled; user 0 is the tagged user (users are exchangeable).
    Outage is SINR strictly below the rate threshold, so a zero-rate target
    yields probability zero.  The grid is checked by :func:`snr_grid`.
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
    p = counts / trials
    lo, hi = wilson_interval(counts, trials)
    return OutageCurve(
        snr_db=snr_db,
        p_out=p,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
    )


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


def _heavy(weights: np.ndarray) -> bool:
    if len(weights) <= HEAVY_TAIL_TOP:
        return False
    top = np.sort(weights)[-HEAVY_TAIL_TOP:]
    return bool(top.sum() > HEAVY_TAIL_SHARE * weights.sum())


def _moment_to_scale(weights: np.ndarray, d: float) -> tuple[float, float, bool]:
    """Turn samples of a d-th moment into ([E w]^(-1/d), its stderr, flag)."""
    mean = float(weights.mean())
    if mean <= 0:
        raise EstimateError(
            "moment estimate vanished; all samples clipped (increase gain_trials "
            "or the rate target)"
        )
    se = float(weights.std(ddof=1) / math.sqrt(len(weights)))
    scale = mean ** (-1.0 / d)
    scale_se = scale / (d * mean) * se
    return scale, scale_se, _heavy(weights)


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


def linear_gains(
    cfg: LinkConfig, rx: ReceiverSpec, trials: int, rng: np.random.Generator
) -> GainSummary:
    """Diversity and coding gain of the linear receivers, WL and CL.

        C_ZF   = k (d Gamma(d))^(1/d) / gamma_T * [E{xi^-d}]^(-1/d)
        C_MMSE = same prefactor with [E{([1/xi - eta/gamma_T]^+)^d}]^(-1/d)

    with k = D, 2 for WL and 1 for CL; d and gamma_T follow the family
    (:func:`diversity_order`, :func:`wlmimo.receivers.threshold`).  Under
    PPC the ZF expectation is the constant xi_ppc and the result is exact
    (stderr 0).
    """
    if rx.sic:
        raise ValueError("linear_gains needs a linear receiver spec")
    d = diversity_order(cfg.m_rx, cfg.n_users, rx.family)
    gamma_t = threshold(rx.family, cfg.rate)
    pre = DIMS[rx.family] * (d * math.gamma(d)) ** (1.0 / d) / gamma_t
    if rx.criterion == "zf" and cfg.power_control == "ppc":
        return GainSummary(rx, d, pre * cfg.xi_ppc)
    if rx.criterion == "zf":
        weights = sample_large_scale(cfg, trials, rng) ** (-d)
    else:
        xi = (np.full(trials, cfg.xi_ppc) if cfg.power_control == "ppc"
              else sample_large_scale(cfg, trials, rng))
        eta = residual_interference_samples(cfg, rx.family, trials, rng)
        weights = np.clip(1.0 / xi - eta / gamma_t, 0.0, None) ** d
    scale, scale_se, heavy = _moment_to_scale(weights, d)
    return GainSummary(rx, d, pre * scale, stderr=pre * scale_se, heavy_tail=heavy)


def _haar_squared(n: int, trials: int, rng, kind: str) -> np.ndarray:
    v = sample_haar_unit_vector(n, rng, size=trials, kind=kind)
    return np.abs(v) ** 2


def sic_gains(
    cfg: LinkConfig,
    rx: ReceiverSpec,
    trials: int,
    rng: np.random.Generator,
) -> GainSummary:
    """Coding gains of the SIC receivers (diversity is unchanged by SIC).

    ZF-SIC averages theta_min^d with theta_n = v_n^2 / xi_n over Haar
    vectors v and independent power profiles.  MMSE-SIC under PPC has the
    closed bracket [u_min - 1/(gamma_T+1)]^+ (the bound pair coincides
    there, making it exact).  As u_min <= 1/N surely, that bracket is
    positive with positive probability exactly when N < gamma_T + 1; else
    (small rates) the reported constant is the residual-based lower bound.
    Without power control the headline constant averages vartheta_min^+
    with vartheta_n = v_n^2 (1/xi_n - eta_n/gamma_T) and the (lower, upper)
    fields carry the computable bound pair; `upper` is None where that
    bracket vanishes on every draw, i.e. there is no finite upper bound.
    """
    if not rx.sic:
        raise ValueError("sic_gains needs a SIC receiver spec")
    n = cfg.n_users
    d = diversity_order(cfg.m_rx, n, rx.family)
    gamma_t = threshold(rx.family, cfg.rate)
    if rx.family == "wl":
        # beta1(N, 2M)^(-1/d), the real Wishart constant
        broot, kind = beta1(n, 2 * cfg.m_rx) ** (-1.0 / d), "real"
    else:
        # The complex Wishart constant cancels against E{mu^d}, where
        # mu = |v_1|^2 ~ Beta(1, N-1) for v Haar on the complex sphere, so
        # E{mu^d} = Gamma(1+d) Gamma(N) / Gamma(N+d) exactly.
        log_mu = math.lgamma(1.0 + d) + math.lgamma(n) - math.lgamma(n + d)
        broot = math.exp((math.log(d * math.gamma(d)) + log_mu) / d)
        kind = "complex"

    squared = _haar_squared(n, trials, rng, kind)        # (trials, N)
    xi = sample_power_profile(cfg, rng, size=trials)     # (trials, N)

    if rx.criterion == "zf":
        theta_min = np.min(squared / xi, axis=1)
        scale, se, heavy = _moment_to_scale(theta_min ** d, d)
        c = broot / gamma_t * scale
        return GainSummary(rx, d, c, stderr=broot / gamma_t * se, heavy_tail=heavy)

    if cfg.power_control == "ppc" and n < gamma_t + 1.0:
        # The bound pair coincides under PPC, so this closed bracket is the
        # exact constant; a sample with no positive draw refuses.
        u_min = np.min(squared, axis=1)
        w = np.clip(u_min - 1.0 / (gamma_t + 1.0), 0.0, None) ** d
        scale, se, heavy = _moment_to_scale(w, d)
        pre = broot * cfg.xi_ppc / (gamma_t + 1.0)
        return GainSummary(rx, d, pre * scale, stderr=pre * se,
                           heavy_tail=heavy)
    # Otherwise (small rates) the bracket clips to zero surely: the outage
    # decays faster than snr^-d and no finite exact constant exists at this
    # order.  The residual-based lower bound below stays finite.

    eta = residual_interference_samples(cfg, rx.family, trials * n, rng)
    eta = eta.reshape(trials, n)
    vartheta_min = np.min(squared * (1.0 / xi - eta / gamma_t), axis=1)
    w = np.clip(vartheta_min, 0.0, None) ** d
    scale, se, heavy = _moment_to_scale(w, d)
    headline = broot / gamma_t * scale
    if cfg.power_control == "ppc":
        return GainSummary(rx, d, headline, stderr=broot / gamma_t * se,
                           heavy_tail=heavy)

    # Bound pair: subtracting the larger 1/xi_min shrinks the bracket and
    # raises C (upper bound); subtracting 1/xi_max does the opposite.
    theta_min = np.min(squared / xi, axis=1)
    ub_w = np.clip(theta_min - (1.0 / np.min(xi, axis=1)) / (gamma_t + 1.0), 0.0, None) ** d
    lb_w = np.clip(theta_min - (1.0 / np.max(xi, axis=1)) / (gamma_t + 1.0), 0.0, None) ** d
    pre = broot / (gamma_t + 1.0)
    # Once N >= gamma_T + 1 the upper bracket clips to zero on every draw
    # (it needs every v_n^2 above 1/(gamma_T+1)): no finite upper bound.
    upper = pre * _moment_to_scale(ub_w, d)[0] if ub_w.any() else None
    lower = pre * _moment_to_scale(lb_w, d)[0]
    return GainSummary(
        rx, d, headline,
        lower=lower, upper=upper,
        stderr=broot / gamma_t * se, heavy_tail=heavy,
    )


def gain_for(
    cfg: LinkConfig,
    rx: ReceiverSpec,
    trials: int,
    rng: np.random.Generator,
) -> GainSummary:
    """Dispatch to the right gain routine for a receiver spec."""
    if trials < MIN_GAIN_TRIALS:
        raise ValueError(f"need at least {MIN_GAIN_TRIALS} gain samples, "
                         f"not {trials}")
    if rx.sic:
        return sic_gains(cfg, rx, trials, rng)
    return linear_gains(cfg, rx, trials, rng)
