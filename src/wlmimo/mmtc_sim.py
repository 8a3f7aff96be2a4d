"""Grant-free machine-type traffic over a narrowband multi-tone uplink.

The system occupies 180 kHz split into 48 single tones of 3.75 kHz.  In
every TTI each of the `users` devices independently wakes up with
probability 1 - exp(-arrival_rate) (Poisson arrivals thinned to at most one
packet per TTI) and transmits its packet on a uniformly chosen tone.  The
base station resolves a tone carrying n simultaneous packets only when its
receiver can separate them: n <= D M, with the dimension factor D of
:data:`wlmimo.receivers.DIMS` (2 for WL, 1 for CL).  Overloaded tones lose
every packet on them; packets on resolvable tones still face link outage,
drawn from the exact per-user SINR law of the zero-forcing front end,
snr xi D Gamma((D M - n + 1)/D), at the tone's operating SNR (23 dBm
transmit power against the thermal noise of one tone), with an
individually drawn pathloss/shadowing attenuation per packet.

CL devices can alternatively compress each packet into half a TTI at twice
the rate ("half-TTI mode"), which halves the collision pressure per slot.

Drop probability counts both loss mechanisms; throughput is correctly
decoded payload normalized per second and hertz of system bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .link_model import check_large_scale, sample_large_scale
from .receivers import DIMS, threshold

__all__ = [
    "MmtcConfig",
    "run_scenario",
    "half_tti_mode",
    "MIN_TTIS",
]

THERMAL_NOISE_DBM_PER_HZ = -174.0

# Fewest slots run_scenario accepts, for stable statistics.
MIN_TTIS = 1000
# Slots simulated per vectorised step.  The chunk length fixes how the
# arrival, tone and fading draws interleave, so changing it changes results.
TTI_CHUNK = 4096


@dataclass(frozen=True)
class MmtcConfig:
    """One machine-type traffic scenario."""

    users: int
    m_rx: int
    family: str
    arrival_rate: float = 4.16e-4   # expected packets per user per TTI
    rate: float = 0.3               # per-user target rate, bits/s/Hz
    tx_power_dbm: float = 23.0
    tones: int = 48
    subcarrier_hz: float = 3.75e3
    tti_ms: float = 32.0
    packet_bits: int = 32
    half_tti: bool = False
    cell_radius_km: float = 0.91
    pathloss_intercept_db: float = -120.9
    pathloss_slope_db: float = -37.6
    shadow_sigma_db: float = 8.0

    def __post_init__(self):
        if not all(isinstance(v, Integral) for v in (self.users, self.m_rx, self.tones)):
            raise ValueError("users, m_rx and tones must be integers")
        if self.users < 0:
            raise ValueError("user count cannot be negative")
        if self.m_rx < 1:
            raise ValueError("need at least one receive antenna")
        if self.family not in DIMS:
            raise ValueError(
                f"family must be one of {tuple(DIMS)}, not {self.family!r}")
        check_large_scale(self, "tx_power_dbm", "subcarrier_hz", "rate", "tti_ms")
        if self.tones < 1 or not self.subcarrier_hz > 0:
            raise ValueError("need at least one tone of positive width")
        if not self.arrival_rate > 0:
            raise ValueError("arrival rate must be positive")
        if not (self.rate > 0 and self.tti_ms > 0) or self.packet_bits < 1:
            raise ValueError("rate, TTI and packet size must be positive")
        if self.half_tti and self.family != "cl":
            raise ValueError("half-TTI mode is defined for CL only")

    @property
    def bandwidth_hz(self) -> float:
        """System bandwidth: the tone grid fills the band."""
        return self.tones * self.subcarrier_hz

    @property
    def capacity(self) -> int:
        """Largest collision the receiver can still separate."""
        return DIMS[self.family] * self.m_rx

    @property
    def tx_probability(self) -> float:
        """P(a user sends in one slot): Poisson thinned to at most one."""
        return 1.0 - math.exp(-self.arrival_rate)


def operating_snr(cfg: MmtcConfig) -> float:
    """Transmit SNR (linear) of one tone: tx power over thermal noise."""
    noise_dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(cfg.subcarrier_hz)
    return 10.0 ** ((cfg.tx_power_dbm - noise_dbm) / 10.0)


def half_tti_mode(cfg: MmtcConfig) -> MmtcConfig:
    """CL variant sending each packet in half a TTI at twice the rate.

    The slot shrinks to TTI/2, so the per-slot arrival rate halves while
    the per-second offered load is unchanged.
    """
    if cfg.half_tti:
        raise ValueError("config is already in half-TTI mode")
    return replace(
        cfg,
        rate=2.0 * cfg.rate,
        arrival_rate=cfg.arrival_rate / 2.0,
        tti_ms=cfg.tti_ms / 2.0,
        half_tti=True,
    )


@dataclass(frozen=True)
class MmtcResult:
    """Aggregated outcome of one scenario run: packet counts and throughput."""

    config: MmtcConfig
    ttis: int
    offered: int
    decoded: int
    dropped_overload: int
    dropped_outage: int
    throughput: float   # bits/s/Hz over the whole system band
    max_decoded_collision: int

    def __post_init__(self):
        if self.decoded + self.dropped_overload + self.dropped_outage != self.offered:
            raise ValueError("packet conservation violated")
        if self.max_decoded_collision > self.config.capacity:
            raise ValueError("a decoded tone exceeded the receiver capacity")

    @property
    def dropped(self) -> int:
        return self.dropped_overload + self.dropped_outage


def run_scenario(cfg: MmtcConfig, ttis: int, rng: np.random.Generator) -> MmtcResult:
    """Count the packets offered, decoded and dropped over `ttis` slots, and
    the throughput; the CLI writes the drop rate with its Wilson interval.

    Fully vectorized: slots are processed in chunks of `TTI_CHUNK`, the
    packets sharing each (slot, tone) cell are counted with one bincount
    over the chunk's cells, and link outages are drawn from the exact
    marginal ZF SINR law snr xi D Gamma((D M - n + 1)/D) rather than
    per-draw matrix factorizations.  Exactness note: drop
    probability and throughput are expectations of per-packet indicators,
    so the marginal law per packet is all that matters even though packets
    colliding on one tone have dependent SINRs.
    """
    if ttis < MIN_TTIS:
        raise ValueError(f"need at least {MIN_TTIS} slots, not {ttis}")
    snr = operating_snr(cfg)
    gamma_t = threshold(cfg.family, cfg.rate)
    dim = DIMS[cfg.family]
    cap = cfg.capacity
    p_tx = cfg.tx_probability

    decoded_per_tti = np.zeros(ttis)
    offered = 0
    dropped_overload = 0
    dropped_outage = 0
    max_decoded_collision = 0

    start = 0
    while start < ttis:
        nt = min(TTI_CHUNK, ttis - start)
        arrivals = rng.binomial(cfg.users, p_tx, size=nt)
        total = int(arrivals.sum())
        offered += total
        if total == 0:
            start += nt
            continue
        slot = np.repeat(np.arange(nt), arrivals)
        tone = rng.integers(0, cfg.tones, size=total)
        key = slot * cfg.tones + tone
        collision = np.bincount(key)[key]

        resolvable = collision <= cap
        dropped_overload += total - int(np.count_nonzero(resolvable))
        n_ok = collision[resolvable]
        if n_ok.size:
            xi = sample_large_scale(cfg, n_ok.size, rng)
            gain = dim * rng.standard_gamma((cap - n_ok + 1) / dim)
            outage = snr * xi * gain < gamma_t
            dropped_outage += int(np.count_nonzero(outage))
            good_slots = slot[resolvable][~outage]
            decoded_per_tti[start : start + nt] += np.bincount(
                good_slots, minlength=nt
            )
            if np.any(~outage):
                max_decoded_collision = max(
                    max_decoded_collision, int(n_ok[~outage].max())
                )
        start += nt

    slot_s = cfg.tti_ms / 1000.0
    per_slot = decoded_per_tti * cfg.packet_bits / (slot_s * cfg.bandwidth_hz)
    return MmtcResult(
        config=cfg,
        ttis=ttis,
        offered=offered,
        decoded=int(decoded_per_tti.sum()),
        dropped_overload=dropped_overload,
        dropped_outage=dropped_outage,
        throughput=float(per_slot.mean()),
        max_decoded_collision=max_decoded_collision,
    )
