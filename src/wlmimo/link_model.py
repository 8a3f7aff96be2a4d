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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkConfig",
    "check_large_scale",
    "sample_large_scale",
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
        check_large_scale(self, "snr", "rate", "xi_ppc")
        if self.m_rx < 1 or self.n_users < 1:
            raise ValueError("antenna and user counts must be positive")
        if self.snr <= 0:
            raise ValueError("snr must be positive (linear scale)")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.power_control not in POWER_MODES:
            raise ValueError(f"power_control must be one of {POWER_MODES}, "
                             f"not {self.power_control!r}")
        if self.xi_ppc <= 0:
            raise ValueError("xi_ppc must be positive")


def check_large_scale(cfg, *finite: str) -> None:
    """Refuse a config `sample_large_scale` would draw quietly wrong values from.

    The cell and pathloss fields, and the fields named in `finite`, must be
    finite: NaN passes every comparison below, and infinities pass most.
    """
    names = (*finite, "cell_radius_km", "pathloss_intercept_db",
             "pathloss_slope_db", "shadow_sigma_db")
    if bad := [name for name in names if not math.isfinite(getattr(cfg, name))]:
        raise ValueError(f"{', '.join(bad)} must be finite")
    if cfg.cell_radius_km <= MIN_DISTANCE_KM:
        raise ValueError("cell radius must exceed the keep-out distance")
    if cfg.shadow_sigma_db < 0:
        raise ValueError("shadowing sigma must be non-negative")


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
) -> np.ndarray:
    """Received powers xi of the N users, (N,) or a (size, N) batch.

    Finite and positive by construction in both power modes.
    """
    n = cfg.n_users
    shape = (n,) if size is None else (size, n)
    if cfg.power_control == "ppc":
        return np.full(shape, cfg.xi_ppc)
    return sample_large_scale(cfg, n if size is None else size * n, rng).reshape(shape)
