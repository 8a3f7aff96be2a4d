"""Outage probabilities and high-SNR diversity/coding gains.

Every receiver here obeys the same high-SNR law

    P_out(snr) ~ (C * snr)^(-d)

with diversity d and coding gain C.  For WL receivers d = M - (N-1)/2
(the smallest-eigenvalue exponent of the real Wishart matrix H'H with
n = N, m = 2M); for CL receivers d = M - N + 1.  Rate targets translate
into SINR thresholds

    WL: gamma_T = 2^(2R) - 1      (rate is (1/2) log2(1+gamma))
    CL: gamma_T = 2^R  - 1        (rate is log2(1+gamma))

Coding gains involve expectations over the received-power profile xi, the
high-SNR MMSE residual eta, and squared entries of Haar-distributed unit
vectors; all are Monte Carlo evaluated with a reported standard error.
Heavy-tailed moment estimates (inverse powers of lognormal shadowing) are
flagged when the top 10 samples carry more than 5% of the sample sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link_model import LinkConfig, sample_large_scale, sample_power_profile
from .montecarlo import wilson_interval
from .random_matrix import sample_channel, sample_haar_unit_vector, wl_transform
from .receivers import ReceiverSpec, batched_tagged_sinr
from .wishart_asymptotics import beta1

__all__ = [
    "GainSummary",
    "OutageCurve",
    "MomentRatio",
    "wl_threshold",
    "cl_threshold",
    "coding_gain_ratio",
    "diversity_order",
    "chi2_cdf_poly_coeff",
    "outage_mc",
    "linear_gains",
    "sic_gains",
    "gain_for",
    "moment_ratio_check",
    "asymptote_curve",
    "residual_interference_samples",
]

HEAVY_TAIL_TOP = 10
HEAVY_TAIL_SHARE = 0.05


def wl_threshold(rate: float) -> float:
    """SINR threshold of a WL stream at rate R: 2^(2R) - 1."""
    return 2.0 ** (2.0 * rate) - 1.0


def cl_threshold(rate: float) -> float:
    """SINR threshold of a CL stream at rate R: 2^R - 1."""
    return 2.0 ** rate - 1.0


def coding_gain_ratio(rate: float) -> float:
    """L(R) = 2(2^R - 1)/(2^(2R) - 1), the WL/CL coding-gain ratio at
    matched diversity (N_WL = 2 N_CL - 1, PPC).  Tends to 1 as R -> 0 and
    to 2^(1-R) for large R."""
    return 2.0 * (2.0 ** rate - 1.0) / (2.0 ** (2.0 * rate) - 1.0)


def diversity_order(m_rx: int, n_users: int, family: str) -> float:
    """High-SNR outage exponent: M - (N-1)/2 for WL, M - N + 1 for CL."""
    if family == "wl":
        if n_users > 2 * m_rx:
            raise ValueError("WL diversity needs N <= 2M")
        return m_rx - (n_users - 1) / 2.0
    if family == "cl":
        if n_users > m_rx:
            raise ValueError("CL diversity needs N <= M")
        return float(m_rx - n_users + 1)
    raise ValueError("family must be 'wl' or 'cl'")


def chi2_cdf_poly_coeff(k: int) -> float:
    """Leading coefficient of the chi-square_k CDF at the origin:

        F(x) ~ coeff * x^(k/2),   coeff = 1 / ((k/2) 2^(k/2) Gamma(k/2)).
    """
    if k < 1 or k != int(k):
        raise ValueError("degrees of freedom must be a positive integer")
    half = k / 2.0
    return 1.0 / (half * 2.0 ** half * math.gamma(half))


# ---------------------------------------------------------------------------
# Monte Carlo outage curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutageCurve:
    """Simulated outage of the tagged user over an SNR grid, with CIs."""

    receiver: str
    snr_db: np.ndarray
    p_out: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    rate: float
    p_asym: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.snr_db, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("snr grid must be a non-empty vector")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("snr grid must be strictly ascending")
        for name in ("p_out", "ci_lo", "ci_hi"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != grid.shape:
                raise ValueError(f"{name} does not match the grid")
            if np.any((arr < 0) | (arr > 1)):
                raise ValueError(f"{name} must stay within [0, 1]")


def threshold_for(rx: ReceiverSpec, rate: float) -> float:
    return wl_threshold(rate) if rx.family == "wl" else cl_threshold(rate)


def outage_mc(
    rx: ReceiverSpec,
    cfg: LinkConfig,
    snr_db,
    trials: int,
    rng: np.random.Generator,
    batch: int = 1 << 15,
    gain: "GainSummary | None" = None,
) -> OutageCurve:
    """Tagged-user outage probability across an SNR grid.

    Per draw the channel, the power profile, and (for SIC) the decode order
    are resampled; user 0 is the tagged user (users are exchangeable).
    Outage is SINR strictly below the rate threshold, so a zero-rate target
    yields probability zero.
    """
    if trials < 1000:
        raise ValueError("need at least 1e3 trials per SNR point")
    if rx.family == "cl" and cfg.n_users > cfg.m_rx:
        raise ValueError("CL receivers need N <= M")
    snr_db = np.asarray(snr_db, dtype=float)
    gamma_t = threshold_for(rx, cfg.rate)
    counts = np.zeros(len(snr_db), dtype=np.int64)
    for i, point_db in enumerate(snr_db):
        snr = 10.0 ** (point_db / 10.0)
        done = 0
        while done < trials:
            b = min(batch, trials - done)
            hbar = sample_channel(cfg.m_rx, cfg.n_users, rng, size=b)
            h = wl_transform(hbar) if rx.family == "wl" else hbar
            xi = sample_power_profile(cfg, rng, size=b).xi
            sinr = batched_tagged_sinr(h, xi, snr, rx)
            counts[i] += int(np.count_nonzero(sinr < gamma_t))
            done += b
    p = counts / trials
    lo, hi = wilson_interval(counts, trials)
    p_asym = asymptote_curve(gain, snr_db) if gain is not None else None
    return OutageCurve(
        receiver=rx.label,
        snr_db=snr_db,
        p_out=p,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
        rate=cfg.rate,
        p_asym=p_asym,
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
        raise ArithmeticError(
            "moment estimate vanished; all samples clipped (increase trials "
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
    batch: int = 1 << 14,
) -> np.ndarray:
    """I.i.d. draws of the high-SNR MMSE residual eta for the tagged user.

    eta = h_1' H_1 (H_1' H_1)^-1 Psi_1^-1 (H_1' H_1)^-1 H_1' h_1 with H_1
    the interferers' channel and Psi_1 their power profile; WL uses the
    real stacked channel, CL the complex one.  Each sample gets a fresh
    channel and a fresh profile, matching the i.i.d. sampling the gain
    integrals assume.
    """
    n = cfg.n_users
    if family not in ("wl", "cl"):
        raise ValueError("family must be 'wl' or 'cl'")
    if n == 1:
        return np.zeros(count)
    out = np.empty(count)
    filled = 0
    while filled < count:
        b = min(batch, count - filled)
        hbar = sample_channel(cfg.m_rx, n, rng, size=b)
        h = wl_transform(hbar) if family == "wl" else hbar
        h1 = h[:, :, 0]
        rest = h[:, :, 1:]
        gram = np.swapaxes(rest.conj(), 1, 2) @ rest
        rhs = np.einsum("bmk,bm->bk", rest.conj(), h1)
        coef = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        xi_rest = sample_power_profile(cfg, rng, size=b).xi[:, 1:]
        out[filled : filled + b] = np.sum(np.abs(coef) ** 2 / xi_rest, axis=1)
        filled += b
    return out


def linear_gains(
    cfg: LinkConfig, rx: ReceiverSpec, trials: int, rng: np.random.Generator
) -> GainSummary:
    """Diversity and coding gain of the linear receivers, WL and CL.

        C_ZF   = k (d Gamma(d))^(1/d) / gamma_T * [E{xi^-d}]^(-1/d)
        C_MMSE = same prefactor with [E{([1/xi - eta/gamma_T]^+)^d}]^(-1/d)

    with k = 2 for WL and k = 1 for CL; d and gamma_T follow the family
    (:func:`diversity_order`, :func:`threshold_for`).  Under PPC the ZF
    expectation is the constant xi_ppc and the result is exact (stderr 0).
    """
    if rx.sic:
        raise ValueError("linear_gains needs a linear receiver spec")
    d = diversity_order(cfg.m_rx, cfg.n_users, rx.family)
    gamma_t = threshold_for(rx, cfg.rate)
    k = 2.0 if rx.family == "wl" else 1.0
    pre = k * (d * math.gamma(d)) ** (1.0 / d) / gamma_t
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


def _wl_beta_root(n_users: int, m_rx: int, d: float) -> float:
    """beta1(N, 2M)^(-1/d), the Wishart constant entering SIC gains."""
    return beta1(n_users, 2 * m_rx) ** (-1.0 / d)


def _cl_beta_root(n_users: int, d: float) -> float:
    """CL analogue via the exact complex moment elimination.

    The smallest-eigenvalue constant of the complex Wishart matrix cancels
    against E{mu^d} with mu = |v_1|^2, v Haar on the complex sphere, and mu
    is Beta(1, N-1), so E{mu^d} = Gamma(1+d) Gamma(N) / Gamma(N+d) exactly.
    """
    log_mu = (
        math.lgamma(1.0 + d) + math.lgamma(n_users) - math.lgamma(n_users + d)
    )
    return math.exp((math.log(d * math.gamma(d)) + log_mu) / d)


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
    there, making it exact); when that bracket clips to zero surely (small
    rates) the reported constant is the residual-based lower bound instead.
    Without power control the headline constant averages vartheta_min^+
    with vartheta_n = v_n^2 (1/xi_n - eta_n/gamma_T) and the (lower, upper)
    fields carry the computable bound pair; `upper` is None where that
    bracket vanishes on every draw, i.e. there is no finite upper bound.
    """
    if not rx.sic:
        raise ValueError("sic_gains needs a SIC receiver spec")
    n = cfg.n_users
    d = diversity_order(cfg.m_rx, n, rx.family)
    gamma_t = threshold_for(rx, cfg.rate)
    if rx.family == "wl":
        broot, kind = _wl_beta_root(n, cfg.m_rx, d), "real"
    else:
        broot, kind = _cl_beta_root(n, d), "complex"

    squared = _haar_squared(n, trials, rng, kind)        # (trials, N)
    xi = sample_power_profile(cfg, rng, size=trials).xi  # (trials, N)

    if rx.criterion == "zf":
        theta_min = np.min(squared / xi, axis=1)
        scale, se, heavy = _moment_to_scale(theta_min ** d, d)
        c = broot / gamma_t * scale
        return GainSummary(rx, d, c, stderr=broot / gamma_t * se, heavy_tail=heavy)

    if cfg.power_control == "ppc":
        u_min = np.min(squared, axis=1)
        w = np.clip(u_min - 1.0 / (gamma_t + 1.0), 0.0, None) ** d
        if w.mean() > 0:
            # The bound pair coincides under PPC, so this closed bracket is
            # the exact constant.
            scale, se, heavy = _moment_to_scale(w, d)
            pre = broot * cfg.xi_ppc / (gamma_t + 1.0)
            return GainSummary(rx, d, pre * scale, stderr=pre * se,
                               heavy_tail=heavy)
        # Degenerate bracket (small rates make u_min <= 1/N fall below
        # 1/(gamma_T+1) surely): the outage then decays faster than
        # snr^-d and no finite exact constant exists at this order.  Fall
        # through to the residual-based lower bound, which stays finite.

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
    if rx.sic:
        return sic_gains(cfg, rx, trials, rng)
    return linear_gains(cfg, rx, trials, rng)


# ---------------------------------------------------------------------------
# Moment identities behind the SIC comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRatio:
    """E{u_1^d} / E{u_min^d} against the N^d reference."""

    ratio: float
    stderr: float
    reference: float
    n_users: int
    d: float
    trials: int

    @property
    def ci95(self) -> tuple[float, float]:
        return self.ratio - 1.96 * self.stderr, self.ratio + 1.96 * self.stderr


def moment_ratio_check(
    family: str,
    n_users: int,
    d: float,
    trials: int,
    rng: np.random.Generator,
) -> MomentRatio:
    """Estimate E{u_1^d}/E{u_min^d} for squared Haar-vector entries.

    Complex vectors give exactly N^d; real vectors overshoot N^d by a
    factor that grows with N, because the smallest squared entry piles up
    near zero much harder than in the complex case.  Numerator and
    denominator use independent streams so the delta-method stderr is
    valid.
    """
    if d <= 0 or n_users < 1:
        raise ValueError("need d > 0 and at least one user")
    kind = "real" if family == "wl" else "complex"
    first = _haar_squared(n_users, trials, rng, kind)[:, 0] ** d
    umin = np.min(_haar_squared(n_users, trials, rng, kind), axis=1) ** d
    num, den = first.mean(), umin.mean()
    se_num = first.std(ddof=1) / math.sqrt(trials)
    se_den = umin.std(ddof=1) / math.sqrt(trials)
    ratio = num / den
    stderr = ratio * math.hypot(se_num / num, se_den / den)
    return MomentRatio(
        ratio=float(ratio),
        stderr=float(stderr),
        reference=float(n_users) ** d,
        n_users=n_users,
        d=d,
        trials=trials,
    )
