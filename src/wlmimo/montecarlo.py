"""Monte Carlo plumbing: seeded streams, interval estimates, slope fits.

Every randomized routine in this package takes a ``numpy.random.Generator``
and never touches global state.  Experiments derive one independent stream
per task from a base seed with :func:`derive_rng`, so runs are reproducible
and tasks can be reordered or parallelized without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Estimate",
    "SlopeFit",
    "derive_rng",
    "wilson_interval",
    "default_fit_window",
    "fit_diversity",
]

# 95% two-sided normal quantile, used for every confidence interval here.
Z95 = 1.959963984540054


def derive_rng(seed: int, *key) -> np.random.Generator:
    """Return an independent generator for (seed, *key).

    The key elements are mixed into the SeedSequence entropy, so each
    (experiment, task-index, ...) tuple gets its own stream.  Strings are
    hashed to integers first; SeedSequence itself only takes ints.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for item in key:
        if isinstance(item, str):
            words.append(int.from_bytes(item.encode("utf-8"), "little") % (1 << 64))
        else:
            words.append(int(item) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def wilson_interval(successes, trials: int, z: float = Z95):
    """Wilson score interval for a binomial proportion.

    Stays inside (0, 1) and behaves sanely at zero counts, which matters for
    outage probabilities down at 1e-6 where the Wald interval collapses.
    `successes` may be a scalar or an array (one interval per entry).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    s = np.asarray(successes, dtype=float)
    if np.any((s < 0) | (s > trials)):
        raise ValueError("successes must lie in [0, trials]")
    phat = s / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    lo = np.maximum(center - half, 0.0)
    hi = np.minimum(center + half, 1.0)
    # center - half is 0 (or 1) in exact arithmetic at the boundary counts;
    # snap the float residue so the interval always contains phat.
    lo = np.where(s == 0, 0.0, lo)
    hi = np.where(s == trials, 1.0, hi)
    if s.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with a 95% confidence interval."""

    value: float
    stderr: float
    ci_lo: float
    ci_hi: float
    trials: int
    kind: str  # "bernoulli" or "mean"

    def __post_init__(self):
        if not (self.ci_lo <= self.value <= self.ci_hi):
            raise ValueError("estimate must lie inside its own interval")


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
