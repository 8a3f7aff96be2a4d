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
entries of Haar-distributed unit vectors.  Under PPC (xi = 1) the moment
is exact, with no draws, for every receiver but WL-MMSE-SIC at
N < gamma_T + 1: closed Gamma ratios, or one numpy tanh-sinh rule over
the residual's beta-prime law and the minimum of a Haar vector's squared
entries.  Elsewhere it is Monte Carlo evaluated with a reported standard
error.  The MMSE-SIC bracket bounds C from both sides, and under PPC the
two bounds coincide in the exact C.  eta is drawn without a channel,
from the Bartlett factor of the interferers' channel
(:func:`residual_interference_samples`), for N <= D M users.
Heavy-tailed moment estimates (inverse powers of lognormal shadowing) are
flagged when the top 10 samples carry more than 5% of the sample sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

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
# Largest |SNR| in dB a grid may hold: beyond it the linear SNR under- or
# overflows on the way through the kernel.
MAX_SNR_DB = 300.0
# Step and half-width in t of the tanh-sinh rule for the exact PPC moments;
# beyond |t| = 4.5 a node lies within e^-141 of its end point.
TANH_SINH_STEP = 1.0 / 64.0
TANH_SINH_SPAN = 4.5


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
    """An SNR grid in dB: a non-empty, strictly ascending list of points
    within +-MAX_SNR_DB (NaN fails that test too)."""
    grid = np.array(snr_db, dtype=float)
    if grid.ndim != 1 or not grid.size or not (abs(grid) <= MAX_SNR_DB).all() \
            or (np.diff(grid) <= 0).any():
        raise ValueError(f"snr_db must be a non-empty, ascending list of points "
                         f"within +-{MAX_SNR_DB:g} dB, not {snr_db!r}")
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
    Outage is SINR strictly below the rate threshold, which
    :func:`wlmimo.receivers.threshold` keeps positive.  The grid is checked
    by :func:`snr_grid`.
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
    """Diversity exponent and coding gain of one receiver.

    `lower`/`upper` hold the coding-gain bound pair where the analysis only
    brackets the constant (MMSE-SIC without power control); elsewhere they
    are None.  `stderr` propagates the MC error of the moment estimate to C
    (zero when the moment is exact, as for most receivers under PPC).
    """

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
    """(C * snr)^(-d) over a dB grid; EstimateError if a value overflows."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    with np.errstate(over="ignore", divide="ignore"):
        curve = (gain.coding_gain * snr) ** (-gain.diversity)
    if not np.isfinite(curve).all():
        raise EstimateError(
            f"asymptote (C snr)^(-d) overflows a float: C = {gain.coding_gain:.3g}, "
            f"d = {gain.diversity:g}")
    return curve


def _check_log_gain(log_gain: float) -> None:
    """Refuse a coding gain e^log_gain outside e^+-700, where floats are normal."""
    if not -700.0 < log_gain < 700.0:
        raise EstimateError(f"coding gain e^{log_gain:.6g} is outside the float range")


def _gain(d: float, pre: float, w: np.ndarray, **bounds) -> GainSummary:
    """C = pre [E w]^(-1/d) from samples w of a d-th moment, with the
    moment's standard error carried to C, and the heavy-tail flag.  Both
    come from w / E w, which cannot overflow where E w does not."""
    mean = float(w.mean())
    if mean <= 0:
        raise EstimateError(
            "moment estimate vanished; all samples clipped (increase gain_trials "
            "or the rate target)"
        )
    if not mean < math.inf:
        raise EstimateError(f"moment estimate overflows a float at order d = {d:g}")
    _check_log_gain(math.log(pre) - math.log(mean) / d)
    gain = pre * mean ** (-1.0 / d)
    rel = w / mean
    rel_se = float(rel.std(ddof=1)) / math.sqrt(len(w))
    heavy = len(w) > HEAVY_TAIL_TOP and bool(
        np.sort(rel)[-HEAVY_TAIL_TOP:].sum() > HEAVY_TAIL_SHARE * rel.sum())
    return GainSummary(d, gain, stderr=gain / d * rel_se, heavy_tail=heavy, **bounds)


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


# ---------------------------------------------------------------------------
# Exact moments under power control
# ---------------------------------------------------------------------------

@cache
def _tanh_sinh_nodes() -> tuple:
    """Node arrays y, 1 - y and weight of the tanh-sinh rule on (0, 1)
    (Takahasi & Mori, 1974): y = 1/(1 + e^s), s = -pi sinh t,
    t = k TANH_SINH_STEP.  Both y and 1 - y come from e^s, so neither loses
    digits next to its end point.  Built on first use."""
    half = round(TANH_SINH_SPAN / TANH_SINH_STEP)
    nodes = []
    for k in range(-half, half + 1):
        t = k * TANH_SINH_STEP
        e = math.exp(-math.pi * math.sinh(t))
        y, yc = 1.0 / (1.0 + e), e / (1.0 + e)
        nodes.append((y, yc, TANH_SINH_STEP * math.pi * math.cosh(t) * y * yc))
    nodes = np.array(nodes).T
    nodes.flags.writeable = False           # every caller shares the cached arrays
    return tuple(nodes)


def _residual_law(family: str, n: int, d: float, gamma_t: float, every: int) -> tuple:
    """Nodes c = 1 - eta/gamma_T and weights of the MMSE residual eta at
    xi = 1, on every `every`-th node of the tanh-sinh rule, for N >= 2.

    eta = z' W^-1 z, with z standard normal in K = N - 1 dimensions and
    independent of the K x K Wishart W = H_1' H_1 (real with 2M degrees of
    freedom for WL, complex with M for CL), so eta ~ BetaPrime(a, b),
    a = K/D, b = d + 1/D (Muirhead, Aspects of Multivariate Statistical
    Theory, 1982, Thm 3.2.12).  x = eta/(1 + eta) is Beta(a, b); writing
    x = q y, q = gamma_T/(gamma_T + 1), gives c = (1 - y)/(1 - q y) and
    E[f(c); eta <= gamma_T] = q^a/B(a, b) times the integral of
    y^(a-1) (1 - q y)^(b-1) f(c) over (0, 1).
    """
    y, yc, w = (nodes[::every] for nodes in _tanh_sinh_nodes())
    dim = DIMS[family]
    a, b = (n - 1) / dim, d + 1.0 / dim
    one_qy = yc + y / (gamma_t + 1.0)                   # 1 - q y
    log_scale = -a * math.log1p(1.0 / gamma_t) + math.lgamma(a + b) \
        - math.lgamma(a) - math.lgamma(b)
    return yc / one_qy, every * w * np.exp(
        log_scale + (a - 1.0) * np.log(y) + (b - 1.0) * np.log(one_qy))


def _log_complex_min_moment(n: int, d: float, excess: float) -> float:
    """log E[(min_i |v_i|^2 - c)_+^d] for v Haar on the unit sphere of C^N,
    given excess = 1 - N c > 0.

    The |v_i|^2 are uniform spacings, P(min > t) = (1 - N t)^(N-1) (Feller,
    An Introduction to Probability Theory, vol. II, sec. I.7), so given
    min > c, min - c is `excess` times a minimum of the same law, and
    E[min^d] = N^-d Gamma(d+1) Gamma(N)/Gamma(N+d).
    """
    return (d * math.log(excess / n) + (n - 1) * math.log(excess)
            + math.lgamma(d + 1.0) + math.lgamma(n) - math.lgamma(n + d))


@lru_cache(maxsize=256)
def _log_mmse_moment(family: str, n: int, d: float, gamma_t: float) -> float:
    """log E[(1 - eta/gamma_T)_+^d] = log E[c^d] for the MMSE residual eta
    at xi = 1 (:func:`_residual_law`).  For CL the integral is
    B(a, d + 1) = B(a, b), so the moment is q^K."""
    if family == "cl" or n == 1:
        return -(n - 1) * math.log1p(1.0 / gamma_t)
    c, w = _residual_law(family, n, d, gamma_t, 1)
    return math.log(w @ c ** d)


def _tail(family: str, u: np.ndarray) -> np.ndarray:
    """P(g^2 > u) for a standard normal g: erfc(sqrt(u/2)) for WL (real),
    e^-u for CL (complex, E|g|^2 = 1)."""
    if family == "cl":
        return np.exp(-u)
    return np.fromiter(map(math.erfc, np.sqrt(0.5 * u).tolist()), float, u.size)


@lru_cache(maxsize=256)
def _log_min_moment(family: str, n: int, d: float, gamma_t: float) -> float:
    """log E[(min_n v_n^2 c_n)_+^d], c_n = 1 - eta_n/gamma_T, for v Haar on
    the unit sphere and i.i.d. MMSE residuals eta_n at xi = 1; at
    gamma_T = inf every c_n is 1 (the ZF-SIC moment).

    v = g/|g| for standard normal g, independent of S = |g|^2, so E w =
    E[S^d]^-1 times the integral of d x^(d-1) phi(x)^N over x > 0, with
    phi(x) = P(g_n^2 c_n > x) = E T(x/c_n) and T = :func:`_tail`.  The
    integral, over x = s/(1 - s) and summed in logs, takes the whole
    tanh-sinh rule: its integrand peaks with a width of about d^-1/2 in
    log x.  The expectation over c_n (:func:`_residual_law`) is smooth
    enough for every fourth node (step 1/16).
    """
    s, sc, ws = _tanh_sinh_nodes()
    x = s / sc
    if gamma_t == math.inf:
        phi = _tail(family, x)
    else:
        c, w = _residual_law(family, n, d, gamma_t, 4)
        phi = np.array([_tail(family, v / c) @ w for v in x])   # no whole grid in memory
    dim = DIMS[family]                  # S is D times a Gamma(N/D) variable
    log_es = d * math.log(dim) + math.lgamma(n / dim + d) - math.lgamma(n / dim)
    with np.errstate(divide="ignore"):                  # phi is 0 at large x
        terms = (np.log(ws * d) + (d - 1.0) * np.log(x) - 2.0 * np.log(sc)
                 + n * np.log(phi))
    top = float(terms.max())
    return top + math.log(np.exp(terms - top).sum()) - log_es


def _exact_gain(d: float, pre: float, log_moment: float) -> GainSummary:
    """C = pre [E w]^(-1/d) from an exact log-moment, with stderr 0."""
    log_gain = math.log(pre) - log_moment / d
    _check_log_gain(log_gain)
    return GainSummary(d, math.exp(log_gain))


@np.errstate(over="ignore")       # an infinite sample is refused by _gain
def gain_for(
    cfg: LinkConfig,
    rx: ReceiverSpec,
    trials: int,
    rng: np.random.Generator,
) -> GainSummary:
    """Diversity d and coding gain C of any receiver spec, WL or CL.

    Every C is K [E w]^(-1/d) for a d-th moment E w; D, d and gamma_T
    follow the family (:func:`diversity_order`,
    :func:`wlmimo.receivers.threshold`).  Under PPC (xi = 1) E w is exact,
    with stderr 0 and no draws, except for WL-MMSE-SIC at N < gamma_T + 1;
    otherwise it is the mean of `trials` samples w.

    * ZF: K = D (d Gamma(d))^(1/d) / gamma_T, w = xi^-d.  Under PPC C = K.
    * MMSE: the same K, w = ([1/xi - eta/gamma_T]^+)^d.  Under PPC eta is
      beta-prime (:func:`_log_mmse_moment`).
    * SIC (diversity unchanged): K carries b = beta1(N, 2M)^(-1/d) for WL;
      for CL the complex Wishart constant cancels against E{mu^d}, where
      mu = |v_1|^2 ~ Beta(1, N-1) for v Haar on the complex sphere, so b
      is closed.  ZF-SIC takes K = b / gamma_T, w = theta_min^d with
      theta_n = v_n^2 / xi_n over Haar vectors v and independent profiles;
      under PPC E w is the Haar-minimum integral
      (:func:`_log_min_moment` at gamma_T = inf).
    * MMSE-SIC: the bracket [theta_min - (1/xi_min)/(gamma_T+1)]^+ with
      K = b / (gamma_T+1) bounds C from above, and with xi_max from below.
      At constant xi (PPC) the pair coincides, so the bracket is the exact
      C (closed for CL, :func:`_log_complex_min_moment`); as
      min_n v_n^2 <= 1/N surely, it is positive with positive probability
      exactly when N < gamma_T + 1.  Otherwise the
      headline is the residual-based K = b / gamma_T, w = ([vartheta_min]^+)^d
      with vartheta_n = v_n^2 (1/xi_n - eta_n/gamma_T), exact under PPC
      (:func:`_log_min_moment`), and without power control
      `lower`/`upper` carry the bound pair; `upper` is None where the upper
      bracket vanishes on every draw (no finite upper bound).

    A sampled SIC gain draws the Haar vectors, then the profile, then eta
    where the headline reads it.
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
            return GainSummary(d, pre)
        if ppc:
            return _exact_gain(d, pre, _log_mmse_moment(rx.family, n, d, gamma_t))
        if rx.criterion == "zf":
            return _gain(d, pre, sample_large_scale(cfg, trials, rng) ** (-d))
        xi = sample_large_scale(cfg, trials, rng)
        eta = residual_interference_samples(cfg, rx.family, trials, rng)
        return _gain(d, pre, np.clip(1.0 / xi - eta / gamma_t, 0.0, None) ** d)

    if rx.family == "wl":
        broot, kind = beta1(n, 2 * cfg.m_rx) ** (-1.0 / d), "real"
    else:
        log_mu = math.lgamma(1.0 + d) + math.lgamma(n) - math.lgamma(n + d)
        broot = math.exp((math.log(d * math.gamma(d)) + log_mu) / d)
        kind = "complex"
    if ppc and (rx.criterion == "zf" or n >= gamma_t + 1.0):
        residual = math.inf if rx.criterion == "zf" else gamma_t    # ZF: c_n = 1
        return _exact_gain(d, broot / gamma_t, _log_min_moment(rx.family, n, d, residual))
    if ppc and kind == "complex":
        excess = (gamma_t + 1.0 - n) / (gamma_t + 1.0)      # 1 - N/(gamma_T+1)
        return _exact_gain(d, broot / (gamma_t + 1.0),
                           _log_complex_min_moment(n, d, excess))
    squared = np.abs(sample_haar_unit_vector(n, rng, size=trials, kind=kind)) ** 2
    xi = sample_power_profile(cfg, rng, size=trials)     # (trials, N)
    if rx.criterion == "zf":
        return _gain(d, broot / gamma_t, np.min(squared / xi, axis=1) ** d)

    pre = broot / (gamma_t + 1.0)
    theta_min = np.min(squared / xi, axis=1)
    upper = np.clip(theta_min - (1.0 / np.min(xi, axis=1)) / (gamma_t + 1.0),
                    0.0, None) ** d
    if ppc:         # WL at N < gamma_T + 1; a sample with no positive draw refuses
        return _gain(d, pre, upper)
    lower = np.clip(theta_min - (1.0 / np.max(xi, axis=1)) / (gamma_t + 1.0),
                    0.0, None) ** d
    # Once N >= gamma_T + 1 the upper bracket clips to zero on every draw
    # (it needs every v_n^2 above 1/(gamma_T+1)): no finite upper bound.
    bounds = {"lower": _gain(d, pre, lower).coding_gain,
              "upper": _gain(d, pre, upper).coding_gain if upper.any() else None}
    eta = residual_interference_samples(cfg, rx.family, trials * n, rng)
    vartheta_min = np.min(squared * (1.0 / xi - eta.reshape(trials, n) / gamma_t), axis=1)
    return _gain(d, broot / gamma_t, np.clip(vartheta_min, 0.0, None) ** d, **bounds)
