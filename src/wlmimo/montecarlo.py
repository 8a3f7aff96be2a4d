"""Monte Carlo plumbing: seeded streams, interval estimates and count checks.

Every randomized routine in this package takes a ``numpy.random.Generator``
and never touches global state.  Experiments derive one independent stream
per task from a base seed with :func:`derive_rng`, so runs are reproducible
and tasks can be reordered or parallelized without changing results.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "EstimateError",
    "check_count",
    "derive_rng",
    "wilson_interval",
]

# 95% two-sided normal quantile, used for every confidence interval here.
Z95 = 1.959963984540054
# Largest count of draws, samples or slots a routine accepts: the most its
# int64 event counters hold.
MAX_COUNT = int(np.iinfo(np.int64).max)


class DomainError(ValueError):
    """A caller's value lies outside the domain a routine declares; it refuses."""


class EstimateError(ArithmeticError):
    """The draws of a run cannot form an estimate it needs; the run refuses."""


def check_count(name: str, value: int, minimum: int) -> int:
    """`value` if it lies in [minimum, MAX_COUNT], else DomainError."""
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, not {value}")
    if value > MAX_COUNT:
        raise DomainError(f"{name} must be at most {MAX_COUNT}, the int64 "
                          f"event counters' limit, not {value}")
    return value


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


def wilson_interval(successes, trials: int):
    """95% Wilson score interval for a binomial proportion.

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
    denom = 1.0 + Z95 * Z95 / trials
    center = (phat + Z95 * Z95 / (2 * trials)) / denom
    half = (Z95 / denom) * np.sqrt(phat * (1 - phat) / trials + Z95 * Z95 / (4 * trials * trials))
    lo = np.maximum(center - half, 0.0)
    hi = np.minimum(center + half, 1.0)
    # center - half is 0 (or 1) in exact arithmetic at the boundary counts;
    # snap the float residue so the interval always contains phat.
    lo = np.where(s == 0, 0.0, lo)
    hi = np.where(s == trials, 1.0, hi)
    if s.ndim == 0:
        return float(lo), float(hi)
    return lo, hi
