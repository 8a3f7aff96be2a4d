"""Outage probabilities and high-SNR diversity/coding gains.

Every receiver here obeys the same high-SNR law

    P_out(snr) ~ (C * snr)^(-d)

with diversity d and coding gain C.  With the dimension factor D of
:data:`wlmimo.receivers.DIMS` (2 for WL, 1 for CL), d = (D M - N + 1)/D:
M - (N-1)/2 for WL (the smallest-eigenvalue exponent of the real Wishart
matrix H'H with n = N, m = 2M) and M - N + 1 for CL.  A rate target R
translates into the SINR threshold gamma_T = 2^(D R) - 1
(:func:`wlmimo.receivers.threshold`).

Each receiver's coding gain is written once, as C = K [E w]^(-1/d): a
prefactor K times a d-th moment E w over the received-power profile xi,
the high-SNR MMSE residual eta, and squared entries of Haar-distributed
unit vectors.  One dispatch, :func:`_law`, gives (d, K, moment) for every
receiver, and one finisher forms C in logs.  Under PPC (xi = 1) the moment
is exact, with no draws, for every receiver but WL-MMSE-SIC at
1 < N < gamma_T + 1: closed Gamma ratios, or one numpy tanh-sinh rule
over the residual's beta-prime law and the minimum of a Haar vector's
squared entries.  Elsewhere it is a Monte Carlo mean with a reported
standard error.  :func:`exact_gain` reads the law without a generator and
:func:`gain_for` with one.  eta is drawn without a channel, from the
Bartlett factor of the interferers' channel
(:func:`residual_interference_samples`), for N <= D M users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .link_model import LinkConfig, sample_large_scale, sample_power_profile
from .montecarlo import DomainError, EstimateError, check_count
from .random_matrix import sample_channel, sample_haar_unit_vector, wl_transform
from .receivers import DIMS, ReceiverSpec, batched_tagged_sinr, threshold
from .stacked import abs2
from .wishart_asymptotics import beta1

__all__ = [
    "outage_domain",
    "outage_mc",
    "gain_for",
    "exact_gain",
    "asymptote_curve",
    "residual_interference_samples",
    "snr_grid",
    "MIN_TRIALS",
    "MIN_GAIN_TRIALS",
]

# Draws per batch.  Each batch draws its matrix entries, then its power
# profile, so a change of either constant changes every stream that spans
# more than one batch.  An outage batch holds OUTAGE_ELEMENTS // (M N) draws
# if fewer (M N > 32), and one draw at most OUTAGE_ELEMENTS channel entries.
OUTAGE_BATCH = 1 << 15
OUTAGE_ELEMENTS = 1 << 20
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
# Largest M each tanh-sinh moment accepts: it meets its oracle to 1e-12 up
# to there, over every N at rates 0.3, 1, 2 and 4.  The Haar-minimum
# integrand narrows as d^-1/2: at N = 1, where the moment is 1, the error
# first passes 1e-12 at M = 69 (WL) and M = 82 (CL), and is 2e-13 at
# M = 64; it binds only CL-MMSE-SIC at N >= gamma_T + 1, as beta1 refuses
# WL-SIC beyond M = 32 first and CL-ZF-SIC's moment is closed.  The WL MMSE
# moment's error against its Gauss hypergeometric form grows about as M:
# 5e-13 at M = 256 and 1.0e-12 at M = 512.
MIN_MOMENT_MAX_M = 64
MMSE_MOMENT_MAX_M = 256


def diversity_order(m_rx: int, n_users: int, family: str) -> float:
    """High-SNR outage exponent (D M - N + 1)/D; refuses N > D M and an
    exponent too large for a float."""
    if family not in DIMS:
        raise DomainError(f"family must be one of {tuple(DIMS)}, not {family!r}")
    dim = DIMS[family]
    if n_users > dim * m_rx:
        raise DomainError(
            f"{family.upper()} receivers separate at most {dim * m_rx} users "
            f"with {m_rx} antennas, not {n_users}"
        )
    try:
        return (dim * m_rx - n_users + 1) / dim
    except OverflowError:
        raise DomainError(f"{m_rx} antennas give a diversity order too large "
                          f"for a float") from None


# ---------------------------------------------------------------------------
# Monte Carlo outage curves
# ---------------------------------------------------------------------------

def snr_grid(snr_db) -> np.ndarray:
    """An SNR grid in dB: a non-empty, strictly ascending list of points
    within +-MAX_SNR_DB (NaN fails that test too, and so does an integer
    too large for a float)."""
    try:
        grid = np.array(snr_db, dtype=float)
    except OverflowError:
        grid = np.array([np.inf])
    if grid.ndim != 1 or not grid.size or not (abs(grid) <= MAX_SNR_DB).all() \
            or (np.diff(grid) <= 0).any():
        raise DomainError(f"snr_db must be a non-empty, ascending list of points "
                          f"within +-{MAX_SNR_DB:g} dB, not {snr_db!r}")
    return grid


def outage_domain(cfg: LinkConfig, family: str) -> tuple[float, int]:
    """(gamma_T, draws per batch) of an outage curve, drawing nothing; refuses
    N > D M, a rate out of threshold's range and M N > OUTAGE_ELEMENTS."""
    diversity_order(cfg.m_rx, cfg.n_users, family)
    gamma_t, entries = threshold(family, cfg.rate), cfg.m_rx * cfg.n_users
    if entries > OUTAGE_ELEMENTS:
        raise DomainError(f"an outage draw holds at most {OUTAGE_ELEMENTS} channel "
                          f"entries m_rx n_users, not {entries}")
    return gamma_t, min(OUTAGE_BATCH, OUTAGE_ELEMENTS // entries)


@dataclass(frozen=True)
class OutageCurve:
    """Tagged-user outage events over an SNR grid, of `trials` draws each;
    the CLI writes each count as a proportion with its Wilson interval."""

    snr_db: np.ndarray
    events: np.ndarray
    trials: int


def outage_mc(rx: ReceiverSpec, cfg: LinkConfig, snr_db, trials: int,
              rng: np.random.Generator) -> OutageCurve:
    """Count the tagged user's outage events at each point of an SNR grid.

    Per draw the channel, the power profile, and (for SIC) the decode order
    are resampled; user 0 is the tagged user (users are exchangeable).
    Outage is SINR strictly below the rate threshold, which
    :func:`wlmimo.receivers.threshold` keeps positive.  The kernel gets the
    threshold and stops each draw once its side is certain
    (:func:`wlmimo.receivers.batched_tagged_sinr`), so the counts are those
    of the exact SINRs.  The link is checked by :func:`outage_domain`,
    the grid by :func:`snr_grid`, and `trials` must lie in
    [MIN_TRIALS, MAX_COUNT].
    """
    gamma_t, batch = outage_domain(cfg, rx.family)
    snr_db = snr_grid(snr_db)
    check_count("trials", trials, MIN_TRIALS)
    counts = np.zeros(len(snr_db), dtype=np.int64)
    for i, point_db in enumerate(snr_db):
        snr = 10.0 ** (point_db / 10.0)
        done = 0
        while done < trials:
            b = min(batch, trials - done)
            hbar = sample_channel(cfg.m_rx, cfg.n_users, rng, size=b)
            h = wl_transform(hbar) if rx.family == "wl" else hbar
            xi = sample_power_profile(cfg, rng, size=b)
            sinr = batched_tagged_sinr(h, xi, snr, rx, gamma_t)
            counts[i] += int(np.count_nonzero(sinr < gamma_t))
            done += b
    return OutageCurve(snr_db, counts, trials)


# ---------------------------------------------------------------------------
# Asymptotic gains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSummary:
    """Diversity exponent and coding gain of one receiver.

    `stderr` propagates the MC error of the moment estimate to C (zero when
    the moment is exact, as for most receivers under PPC).
    """

    diversity: float
    coding_gain: float
    stderr: float = 0.0

    def __post_init__(self):
        if self.diversity <= 0:
            raise ValueError("diversity exponent must be positive")
        if not (self.coding_gain > 0 and math.isfinite(self.coding_gain)):
            raise ValueError("coding gain must be positive and finite")


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
    """Nodes c = 1 - eta/gamma_T, rule weights and log densities of the MMSE
    residual eta at xi = 1, on every `every`-th tanh-sinh node, for N >= 2.

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
    return yc / one_qy, every * w, \
        log_scale + (a - 1.0) * np.log(y) + (b - 1.0) * np.log(one_qy)


def _log_sum_exp(terms: np.ndarray) -> float:
    """log sum e^terms, shifted by the largest; -inf where every term is."""
    top = float(terms.max())
    return top if top == -math.inf else top + math.log(np.exp(terms - top).sum())


def _check_exact_m(family: str, n: int, d: float, bound: int, moment: str) -> None:
    """Refuse M = d + (N-1)/D beyond the largest M a moment rule holds at."""
    m = d + (n - 1) / DIMS[family]
    if m > bound:
        raise DomainError(f"the exact {moment} moment holds to 1e-12 for "
                          f"m_rx <= {bound}, not {m:g}")


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
    B(a, d + 1) = B(a, b), so the moment is q^K, at every M; the WL rule
    holds for M <= MMSE_MOMENT_MAX_M and refuses beyond."""
    if family == "cl" or n == 1:
        return -(n - 1) * math.log1p(1.0 / gamma_t)
    _check_exact_m(family, n, d, MMSE_MOMENT_MAX_M, "MMSE")
    c, w, log_density = _residual_law(family, n, d, gamma_t, 1)
    return _log_sum_exp(np.log(w) + log_density + d * np.log(c))   # may be below e^-745


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
    gamma_T = inf every c_n is 1 (the WL ZF-SIC moment).

    v = g/|g| for standard normal g, independent of S = |g|^2, so E w =
    E[S^d]^-1 times the integral of d x^(d-1) phi(x)^N over x > 0, with
    phi(x) = P(g_n^2 c_n > x) = E T(x/c_n) and T = :func:`_tail`.  The
    integral, over x = s/(1 - s) and summed in logs, takes the whole
    tanh-sinh rule: its integrand peaks with a width of about d^-1/2 in
    log x.  The expectation over c_n (:func:`_residual_law`) is smooth
    enough for every fourth node (step 1/16).  Holds for
    M <= MIN_MOMENT_MAX_M and refuses beyond.
    """
    _check_exact_m(family, n, d, MIN_MOMENT_MAX_M, "Haar-minimum")
    s, sc, ws = _tanh_sinh_nodes()
    x = s / sc
    if gamma_t == math.inf:
        phi = _tail(family, x)
    else:
        c, w, log_density = _residual_law(family, n, d, gamma_t, 4)
        w = w * np.exp(log_density)
        phi = np.array([_tail(family, v / c) @ w for v in x])   # no whole grid in memory
    dim = DIMS[family]                  # S is D times a Gamma(N/D) variable
    log_es = d * math.log(dim) + math.lgamma(n / dim + d) - math.lgamma(n / dim)
    with np.errstate(divide="ignore"):                  # phi is 0 at large x
        terms = (np.log(ws * d) + (d - 1.0) * np.log(x) - 2.0 * np.log(sc)
                 + n * np.log(phi))
    return _log_sum_exp(terms) - log_es


def _linear_pre(family: str, d: float, gamma_t: float) -> float:
    """K = D (d Gamma(d))^(1/d) / gamma_T of the linear receivers, formed in
    logs so that no Gamma overflows at large d."""
    return DIMS[family] * math.exp(math.lgamma(d + 1.0) / d) / gamma_t


@lru_cache(maxsize=256)
def _sic_root(family: str, n: int, m_rx: int, d: float) -> float:
    """b of the SIC prefactors: beta1(N, 2M)^(-1/d) for WL; for CL the
    closed (d Gamma(d) E{mu^d})^(1/d), mu ~ Beta(1, N-1), in logs.  Cached."""
    if family == "wl":
        try:
            return beta1(n, 2 * m_rx) ** (-1.0 / d)
        except DomainError as exc:
            raise DomainError(f"{exc}: the WL-SIC asymptote takes n = n_users = "
                              f"{n} and m = 2 m_rx = {2 * m_rx}") from exc
    log_mu = math.lgamma(1.0 + d) + math.lgamma(n) - math.lgamma(n + d)
    return math.exp((math.lgamma(d + 1.0) + log_mu) / d)


@np.errstate(over="ignore")       # an infinite sample is refused by _finish
def _law(cfg: LinkConfig, rx: ReceiverSpec, trials: int = 0,
         rng: np.random.Generator | None = None) -> tuple:
    """(d, K, moment) of a receiver's law C = K [E w]^(-1/d).

    The moment is the exact log E w where it is exact, else the `trials`
    samples w drawn from `rng`, or None without a generator.  Every
    refusal (N > D M, a rate out of threshold's range, beyond beta1's or
    an exact moment's M) comes before the first draw.  D, d and gamma_T
    follow the family (:func:`diversity_order`,
    :func:`wlmimo.receivers.threshold`); under PPC xi = 1.

    * ZF: K = D (d Gamma(d))^(1/d) / gamma_T, w = xi^-d, so E w = 1 under
      PPC.
    * MMSE: the same K, w = ([1/xi - eta/gamma_T]^+)^d.  Under PPC eta is
      beta-prime (:func:`_log_mmse_moment`).
    * SIC (diversity unchanged): K carries b = beta1(N, 2M)^(-1/d) for WL;
      for CL the complex Wishart constant cancels against E{mu^d}, where
      mu = |v_1|^2 ~ Beta(1, N-1) for v Haar on the complex sphere, so b
      is closed.  ZF-SIC: K = b / gamma_T, w = (min_n v_n^2 / xi_n)^d;
      under PPC the Haar-minimum integral for WL (:func:`_log_min_moment`
      at gamma_T = inf), closed for CL (:func:`_log_complex_min_moment`).
    * MMSE-SIC: K = b / gamma_T,
      w = ([min_n v_n^2 (1/xi_n - eta_n/gamma_T)]^+)^d, exact under PPC
      (:func:`_log_min_moment`) but at N < gamma_T + 1.  There the PPC
      bracket takes K = b / (gamma_T+1), w = ([min_n v_n^2 - 1/(gamma_T+1)]^+)^d,
      positive with positive probability exactly then, as
      min_n v_n^2 <= 1/N; closed for CL and at N = 1, where v_1^2 = 1
      (:func:`_log_complex_min_moment`), and sampled for WL at 1 < N.

    Every sampled w is one law over the users it reads (the tagged one
    for a linear receiver, all N for SIC): w = ([min_n u_n c_n - c_0]^+)^d
    with u_n = v_n^2 (SIC) or 1, c_n = 1/xi_n - eta_n/gamma_T (eta = 0 for
    ZF and the bracket) and c_0 = 1/(gamma_T+1) for the bracket, else 0.
    It draws the Haar vectors, then those users' profile (the stream of
    :func:`wlmimo.link_model.sample_power_profile`), then their eta.
    """
    n = cfg.n_users
    d = diversity_order(cfg.m_rx, n, rx.family)
    gamma_t = threshold(rx.family, cfg.rate)
    ppc = cfg.power_control == "ppc"
    zf = rx.criterion == "zf"
    bracket = ppc and rx.sic and not zf and n < gamma_t + 1.0
    if not rx.sic:
        pre = _linear_pre(rx.family, d, gamma_t)
        if ppc:
            return d, pre, 0.0 if zf else _log_mmse_moment(rx.family, n, d, gamma_t)
    else:
        broot = _sic_root(rx.family, n, cfg.m_rx, d)
        pre = broot / (gamma_t + 1.0 if bracket else gamma_t)
        if ppc and rx.family == "cl" and zf:            # c_n = 1, at every M
            return d, pre, _log_complex_min_moment(n, d, 1.0)
        if ppc and not bracket:
            residual = math.inf if zf else gamma_t      # ZF: c_n = 1
            return d, pre, _log_min_moment(rx.family, n, d, residual)
        if bracket and (rx.family == "cl" or n == 1):
            excess = (gamma_t + 1.0 - n) / (gamma_t + 1.0)  # 1 - N/(gamma_T+1)
            return d, pre, _log_complex_min_moment(n, d, excess)
    if rng is None:
        return d, pre, None
    shape = (trials, n if rx.sic else 1)
    u, xi, eta = 1.0, 1.0, 0.0          # under PPC only the bracket is sampled
    if rx.sic:
        kind = "real" if rx.family == "wl" else "complex"
        u = np.abs(sample_haar_unit_vector(n, rng, size=trials, kind=kind)) ** 2
    if not ppc:
        xi = sample_large_scale(cfg, math.prod(shape), rng).reshape(shape)
    if not (ppc or zf):
        eta = residual_interference_samples(cfg, rx.family, xi.size, rng).reshape(shape)
    c0 = 1.0 / (gamma_t + 1.0) if bracket else 0.0
    theta = np.min(u * (1.0 / xi - eta / gamma_t), axis=1) - c0
    return d, pre, np.clip(theta, 0.0, None) ** d     # all zeros: _finish refuses


def _finish(d: float, pre: float, moment: float | np.ndarray) -> GainSummary:
    """C = exp(log pre - log E w / d), from an exact log-moment with
    stderr 0, or from samples w with the moment's standard error carried
    to C.  That comes from w / E w, which cannot overflow where E w does
    not.  Refuses a C outside e^+-700, where floats are normal."""
    rel_se = 0.0
    if isinstance(moment, np.ndarray):
        mean = float(moment.mean())
        if mean <= 0:
            raise EstimateError(
                "moment estimate vanished; all samples clipped (increase gain_trials "
                "or the rate target)"
            )
        if not mean < math.inf:
            raise EstimateError(f"moment estimate overflows a float at order d = {d:g}")
        rel_se = float((moment / mean).std(ddof=1)) / math.sqrt(len(moment))
        moment = math.log(mean)
    log_gain = math.log(pre) - moment / d
    if not -700.0 < log_gain < 700.0:
        raise EstimateError(f"coding gain e^{log_gain:.6g} is outside the float range")
    gain = math.exp(log_gain)
    return GainSummary(d, gain, stderr=gain / d * rel_se)


def exact_gain(cfg: LinkConfig, rx: ReceiverSpec) -> GainSummary | None:
    """The one draw-free check of a coding gain: in either power mode it
    refuses (DomainError) every config :func:`gain_for` refuses, then
    returns the gain gain_for returns where the moment of :func:`_law` is
    exact, and None where gain_for samples it."""
    d, pre, moment = _law(cfg, rx)
    return None if moment is None else _finish(d, pre, moment)


def gain_for(cfg: LinkConfig, rx: ReceiverSpec, trials: int,
             rng: np.random.Generator) -> GainSummary:
    """Diversity d and coding gain C of any receiver spec, WL or CL, from
    the law C = K [E w]^(-1/d) of :func:`_law`: exact, with stderr 0 and
    no draws, where :func:`exact_gain` returns a gain, else from the mean
    of `trials` samples w drawn from `rng`."""
    check_count("gain trials", trials, MIN_GAIN_TRIALS)
    return _finish(*_law(cfg, rx, trials, rng))
