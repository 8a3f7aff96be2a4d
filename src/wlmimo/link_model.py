"""Uplink large-scale fading model and the received-power profile.

Users are dropped uniformly over a disk cell (default radius 0.91 km, with a
1 m keep-out around the base station).  Large-scale attenuation follows the
urban macro law

    beta_dB = -120.9 - 37.6 log10(r / km)

plus log-normal shadowing with 8 dB standard deviation.  The normalized
received power of user i is xi_i = p_i beta_i psi_i / p_av; two power modes
are supported:

* ``"none"``   no power control, xi = beta * psi with unit transmit power;
* ``"ppc"``    perfect power control, xi pinned to the constant `xi_ppc`.

The operating SNR is defined against unit complex noise variance, so a
received SINR of, say, 2 snr xi h'Ph is dimensionless and the rate target R
alone decides outage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkConfig",
    "PowerProfile",
    "sample_power_profile",
]

MIN_DISTANCE_KM = 0.001

POWER_MODES = ("none", "ppc")


@dataclass(frozen=True)
class LinkConfig:
    """Static description of one uplink scenario."""

    m_rx: int                     # receive antennas M
    n_users: int                  # users N
    snr: float                    # operating SNR, linear
    rate: float                   # target rate R in bits/s/Hz
    cell_radius_km: float = 0.91
    pathloss_intercept_db: float = -120.9
    pathloss_slope_db: float = -37.6   # dB per decade of distance
    shadow_sigma_db: float = 8.0
    power_control: str = "none"
    xi_ppc: float = 1.0

    def __post_init__(self):
        if self.m_rx < 1 or self.n_users < 1:
            raise ValueError("antenna and user counts must be positive")
        if self.n_users > 2 * self.m_rx:
            raise ValueError("more users than virtual receive dimensions (N > 2M)")
        if self.snr <= 0:
            raise ValueError("snr must be positive (linear scale)")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.cell_radius_km <= MIN_DISTANCE_KM:
            raise ValueError("cell radius must exceed the keep-out distance")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        if self.power_control not in POWER_MODES:
            raise ValueError(f"power_control must be one of {POWER_MODES}")
        if self.xi_ppc <= 0:
            raise ValueError("xi_ppc must be positive")


@dataclass(frozen=True)
class PowerProfile:
    """Normalized received powers xi for one channel use (or a batch)."""

    xi: np.ndarray   # (N,) or (batch, N), strictly positive
    mode: str

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim not in (1, 2) or xi.size == 0:
            raise ValueError("xi must be a (N,) vector or a (batch, N) stack")
        if not np.all(np.isfinite(xi)) or np.any(xi <= 0):
            raise ValueError("xi entries must be finite and positive")
        object.__setattr__(self, "xi", xi)
        if self.mode not in POWER_MODES:
            raise ValueError(f"mode must be one of {POWER_MODES}")

    @property
    def n_users(self) -> int:
        return self.xi.shape[-1]


def sample_large_scale(cfg: LinkConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. attenuation samples beta * psi (linear).

    Distance from area-uniform placement (r = radius * sqrt(U)), clipped to
    the 1 m keep-out; shadowing log-normal with the configured sigma.
    """
    r = cfg.cell_radius_km * np.sqrt(rng.random(count))
    r = np.maximum(r, MIN_DISTANCE_KM)
    beta_db = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(r)
    psi_db = rng.normal(0.0, cfg.shadow_sigma_db, count)
    return 10.0 ** ((beta_db + psi_db) / 10.0)


def sample_power_profile(
    cfg: LinkConfig, rng: np.random.Generator, size: int | None = None
) -> PowerProfile:
    """Draw the received-power profile for one instant (or a batch of them)."""
    n = cfg.n_users
    if cfg.power_control == "ppc":
        shape = (n,) if size is None else (size, n)
        return PowerProfile(xi=np.full(shape, cfg.xi_ppc), mode="ppc")
    count = n if size is None else size * n
    xi = sample_large_scale(cfg, count, rng)
    if size is not None:
        xi = xi.reshape(size, n)
    return PowerProfile(xi=xi, mode="none")
