"""Uplink large-scale fading model and the received-power profile.

The scenario is fixed, as in the paper: users are dropped uniformly over
one disk cell of radius 0.91 km, with a 1 m keep-out around the base
station.  Large-scale attenuation follows the urban macro law

    beta_dB = -120.9 - 37.6 log10(r / km)

plus log-normal shadowing with 8 dB standard deviation.  These four values
are the class constants of :class:`Cell`, which every config inherits.
:func:`sample_large_scale` forms beta psi in natural logs, one log and one
exp per sample, from the same uniform and normal draws as the dB form.  The
normalized received power of user i is xi_i = p_i beta_i psi_i / p_av; two
power modes are supported:

* ``"none"``   no power control, xi = beta * psi with unit transmit power;
* ``"ppc"``    perfect power control, xi = 1 for every user.

The operating SNR is defined against unit complex noise variance, so a
received SINR of, say, 2 snr xi h'Ph is dimensionless and the rate target R
alone decides outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .montecarlo import DomainError

__all__ = [
    "Cell",
    "LinkConfig",
    "sample_large_scale",
    "sample_power_profile",
]

MIN_DISTANCE_KM = 0.001

POWER_MODES = ("none", "ppc")


class Cell:
    """The cell geometry and attenuation law, shared by every scenario."""

    cell_radius_km: ClassVar[float] = 0.91
    pathloss_intercept_db: ClassVar[float] = -120.9
    pathloss_slope_db: ClassVar[float] = -37.6   # dB per decade of distance
    shadow_sigma_db: ClassVar[float] = 8.0


@dataclass(frozen=True)
class LinkConfig(Cell):
    """Static description of one uplink scenario."""

    m_rx: int                     # receive antennas M
    n_users: int                  # users N
    snr: float                    # operating SNR, linear
    rate: float                   # target rate R in bits/s/Hz
    power_control: str = "none"

    def __post_init__(self):
        for name in ("snr", "rate"):             # NaN fails the test too
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and positive")
        if self.m_rx < 1 or self.n_users < 1:
            raise DomainError("antenna and user counts must be positive")
        if self.power_control not in POWER_MODES:
            raise DomainError(f"power_control must be one of {POWER_MODES}, "
                              f"not {self.power_control!r}")


def sample_large_scale(cfg: Cell, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. attenuation samples beta * psi (linear).

    Distance from area-uniform placement, r = R sqrt(U), clipped to the 1 m
    keep-out r0; shadowing log-normal with the cell's sigma.  With the law
    in dB written in natural logs, each sample is one log and one exp:

        beta psi = exp(c0 + (s/20) ln max(U, (r0/R)^2) + (sigma ln10/10) z),

    c0 = (a + s log10 R) ln10/10 for intercept a and slope s; the slope
    takes s/20, not s ln10/20, since ln U already carries the ln 10.  The
    draws are U = rng.random(count), then `count` standard normals z, the
    stream rng.normal(0, sigma, count) scales.
    """
    to_nat = math.log(10.0) / 10.0                      # dB to ln
    radius = cfg.cell_radius_km
    c0 = (cfg.pathloss_intercept_db + cfg.pathloss_slope_db * math.log10(radius)) * to_nat
    u = rng.random(count)
    np.maximum(u, (MIN_DISTANCE_KM / radius) ** 2, out=u)
    np.log(u, out=u)
    u *= cfg.pathloss_slope_db / 20.0
    u += c0
    z = rng.standard_normal(count)
    z *= cfg.shadow_sigma_db * to_nat
    u += z
    return np.exp(u, out=u)


def sample_power_profile(cfg: LinkConfig, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Received powers xi of the N users in a (size, N) batch.

    Finite and positive by construction in both power modes.
    """
    shape = (size, cfg.n_users)
    if cfg.power_control == "ppc":
        return np.ones(shape)
    return sample_large_scale(cfg, size * cfg.n_users, rng).reshape(shape)
