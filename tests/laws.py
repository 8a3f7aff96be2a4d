"""Paper laws and fits the tests check the package against.

Closed-form constants (the WL/CL coding-gain ratio, the chi-square CDF's
leading coefficient), the Haar moment ratio behind the SIC comparison, and
the log-log slope fit of simulated outage curves.  No experiment or
benchmark calls them, so they live with the tests, not in the package.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wlmimo.outage_analysis import _haar_squared


def coding_gain_ratio(rate: float) -> float:
    """L(R) = 2(2^R - 1)/(2^(2R) - 1), the WL/CL coding-gain ratio at
    matched diversity (N_WL = 2 N_CL - 1, PPC).  Tends to 1 as R -> 0 and
    to 2^(1-R) for large R."""
    return 2.0 * (2.0 ** rate - 1.0) / (2.0 ** (2.0 * rate) - 1.0)


def chi2_cdf_poly_coeff(k: int) -> float:
    """Leading coefficient of the chi-square_k CDF at the origin:

        F(x) ~ coeff * x^(k/2),   coeff = 1 / ((k/2) 2^(k/2) Gamma(k/2)).
    """
    if k < 1 or k != int(k):
        raise ValueError("degrees of freedom must be a positive integer")
    half = k / 2.0
    return 1.0 / (half * 2.0 ** half * math.gamma(half))


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


# ---------------------------------------------------------------------------
# Slope fits of simulated outage curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of log10(p_out) against log10(snr).

    d_hat is the diversity estimate (minus the slope); c_hat recovers the
    coding gain from the intercept via p = (c * snr)^(-d).
    """

    d_hat: float
    c_hat: float
    r2: float
    window_db: tuple[float, float]
    n_points: int


def default_fit_window(
    snr_db: np.ndarray, p_out: np.ndarray, trials: int, span_db: float = 10.0
) -> np.ndarray:
    """Boolean mask selecting the default slope-fit window.

    Keeps grid points whose outage count lies in [10, trials/10] (enough
    events to trust, far enough from p=1 to be in the decaying regime) and
    then restricts to the top `span_db` dB of what remains.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    p_out = np.asarray(p_out, dtype=float)
    counts = p_out * trials
    ok = (counts >= 10) & (counts <= trials / 10)
    if not ok.any():
        raise ValueError("no grid points with usable outage counts; widen the SNR grid")
    top = snr_db[ok].max()
    return ok & (snr_db >= top - span_db)


def fit_diversity(
    snr_db: Sequence[float],
    p_out: Sequence[float],
    window: np.ndarray | None = None,
    trials: int | None = None,
) -> SlopeFit:
    """Fit p = (C snr)^(-d) on log axes and return (d_hat, c_hat).

    `window` is a boolean mask over the grid; if omitted, `trials` must be
    given so the default count-based window can be built.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    p_out = np.asarray(p_out, dtype=float)
    if window is None:
        if trials is None:
            raise ValueError("need either an explicit window or the trial count")
        window = default_fit_window(snr_db, p_out, trials)
    window = np.asarray(window, dtype=bool)
    if window.sum() < 2:
        raise ValueError("slope fit needs at least two grid points in the window")
    x = np.log10(10.0 ** (snr_db[window] / 10.0))
    y = np.log10(p_out[window])
    if not np.all(np.isfinite(y)):
        raise ValueError("zero outage estimates inside the fit window")
    slope, intercept = np.polyfit(x, y, 1)
    d_hat = -float(slope)
    if d_hat <= 0:
        c_hat = float("nan")
    else:
        c_hat = float(10.0 ** (-intercept / d_hat))
    yhat = slope * x + intercept
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(
        d_hat=d_hat,
        c_hat=c_hat,
        r2=r2,
        window_db=(float(snr_db[window].min()), float(snr_db[window].max())),
        n_points=int(window.sum()),
    )
