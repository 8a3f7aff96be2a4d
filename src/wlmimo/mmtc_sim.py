"""Grant-free machine-type traffic over a narrowband multi-tone uplink.

The system occupies 180 kHz split into 48 single tones of 3.75 kHz, sends
32-bit packets at 23 dBm and shares the cell of :class:`wlmimo.link_model.Cell`;
the paper fixes these, so they are class constants of :class:`MmtcConfig`.  In
every TTI each of the `users` devices independently wakes up with
probability 1 - exp(-arrival_rate) (Poisson arrivals thinned to at most one
packet per TTI) and transmits its packet on a uniformly chosen tone.  The
base station resolves a tone carrying n simultaneous packets only when its
receiver can separate them: n <= D M, with the dimension factor D of
:data:`wlmimo.receivers.DIMS` (2 for WL, 1 for CL).  Overloaded tones lose
every packet on them; packets on resolvable tones still face link outage,
drawn from the exact per-user SINR law of the zero-forcing front end,
snr xi D Gamma((D M - n + 1)/D), at the tone's operating SNR (the transmit
power against the thermal noise of one tone), with an individually drawn
pathloss/shadowing attenuation per packet.  Packets are not tracked one by
one: each (slot, tone) cell holds Binomial(users, p_tx / tones) packets, drawn
independently, the tones of one slot too, and each size draws its gains in one
batch (:func:`run_scenario` says why this is exact).

The traffic is fixed too: 4.16e-4 expected packets per user per 32 ms TTI
at 0.3 bits/s/Hz.  The one traffic input is the `half_tti` flag: CL devices
can compress each packet into half a TTI at twice the rate ("half-TTI
mode"), so the slot and the per-slot arrival rate halve, which halves the
collision pressure per slot at the same per-second load.

Drop probability counts both loss mechanisms; throughput is correctly
decoded payload normalized per second and hertz of system bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import ClassVar

import numpy as np

from .link_model import Cell, sample_large_scale
from .montecarlo import DomainError, check_count
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
# occupancy, attenuation and gain draws interleave, so changing it changes results.
TTI_CHUNK = 4096


@dataclass(frozen=True)
class MmtcConfig(Cell):
    """One machine-type traffic scenario."""

    users: int
    m_rx: int
    family: str
    half_tti: bool = False

    tx_power_dbm: ClassVar[float] = 23.0
    tones: ClassVar[int] = 48
    subcarrier_hz: ClassVar[float] = 3.75e3
    packet_bits: ClassVar[int] = 32
    # The traffic at the full TTI; half-TTI mode derives its own from these.
    full_tti_arrival_rate: ClassVar[float] = 4.16e-4   # packets per user per TTI
    full_tti_rate: ClassVar[float] = 0.3               # per-user target, bits/s/Hz
    full_tti_ms: ClassVar[float] = 32.0

    def __post_init__(self):
        if not all(isinstance(v, Integral) for v in (self.users, self.m_rx)):
            raise DomainError("users and m_rx must be integers")
        if self.users < 0:
            raise DomainError("user count cannot be negative")
        if self.m_rx < 1:
            raise DomainError("need at least one receive antenna")
        if self.family not in DIMS:
            raise DomainError(
                f"family must be one of {tuple(DIMS)}, not {self.family!r}")
        if not isinstance(self.half_tti, (bool, np.bool_)):
            raise DomainError(f"half_tti must be a bool, not {self.half_tti!r}")
        if self.half_tti and self.family != "cl":
            raise DomainError("half-TTI mode is defined for CL only")

    @property
    def arrival_rate(self) -> float:
        """Expected packets per user per slot; half a TTI holds half."""
        return self.full_tti_arrival_rate / (2.0 if self.half_tti else 1.0)

    @property
    def rate(self) -> float:
        """Per-user target rate, bits/s/Hz; doubled in half a TTI."""
        return self.full_tti_rate * (2.0 if self.half_tti else 1.0)

    @property
    def tti_ms(self) -> float:
        """Slot length in ms."""
        return self.full_tti_ms / (2.0 if self.half_tti else 1.0)

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
        return -math.expm1(-self.arrival_rate)


def operating_snr(cfg: MmtcConfig) -> float:
    """Transmit SNR (linear) of one tone: tx power over thermal noise."""
    noise_dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(cfg.subcarrier_hz)
    return 10.0 ** ((cfg.tx_power_dbm - noise_dbm) / 10.0)


def half_tti_mode(cfg: MmtcConfig) -> MmtcConfig:
    """The same scenario in half-TTI mode: `cfg` with the flag set, which
    halves the slot and the per-slot arrival rate and doubles the rate."""
    return replace(cfg, half_tti=True)


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


def _occupancy_pmf(users: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(users, q) on a run of sizes holding all that reach the least
    normal float, the mode last: it takes `Generator.multinomial`'s remainder."""
    if q in (0.0, 1.0):                       # a point mass: a log below is -inf
        return np.array([users if q else 0]), np.ones(1)
    mode = min(users, math.floor((users + 1) * q))
    peak = math.exp(math.log(math.comb(users, mode)) + mode * math.log(q)
                    + (users - mode) * math.log1p(-q))
    a = -math.log(np.finfo(float).tiny)       # Bernstein: rarer beyond `reach`
    reach = a / 3 + math.sqrt(a * a / 9 + 2 * a * users * q * (1 - q)) + 1
    up = np.arange(mode, min(users, math.ceil(users * q + reach)))
    down = np.arange(mode, max(0, math.floor(users * q - reach)), -1)
    return np.concatenate((up + 1, down - 1, [mode])), peak * np.concatenate((
        np.cumprod((users - up) / (up + 1) * q / (1 - q)),
        np.cumprod(down / (users - down + 1) * (1 - q) / q), [1.0]))


def run_scenario(cfg: MmtcConfig, ttis: int, rng: np.random.Generator) -> MmtcResult:
    """Count the packets offered, decoded and dropped over `ttis` slots, and
    the throughput; the CLI writes the drop rate with its Wilson interval.

    Slots are processed in chunks of `TTI_CHUNK`.  Each chunk draws the
    occupancy histogram h of its cells in one multinomial: h[n] cells hold
    n packets, so n h[n] packets sit in collisions of size n.  Those above
    the capacity are dropped; the resolvable ones get one attenuation xi
    each from one `sample_large_scale` call, then, size by size in ascending
    order, the exact marginal ZF gain D Gamma(k/D), k = D M - n + 1, drawn
    as D Gamma(floor(k/D)) plus a squared standard normal when k/D is a
    half-integer.  A packet is in outage when snr xi gain < gamma_T.
    Exactness note: drop probability and throughput are expectations of
    per-packet indicators, which depend only on the law of the packet's own
    cell; so drawing a slot's tones independently moves neither, and nor do
    the dependent SINRs of packets colliding on one tone.
    """
    check_count("ttis", ttis, MIN_TTIS)
    snr = operating_snr(cfg)
    gamma_t = threshold(cfg.family, cfg.rate)
    dim = DIMS[cfg.family]
    cap = cfg.capacity

    sizes, pmf = _occupancy_pmf(cfg.users, cfg.tx_probability / cfg.tones)
    offered = decoded = dropped_overload = dropped_outage = 0
    max_decoded_collision = 0
    for start in range(0, ttis, TTI_CHUNK):
        h = np.zeros(max(cap, sizes.max()) + 1, dtype=np.int64)
        h[sizes] = rng.multinomial(min(TTI_CHUNK, ttis - start) * cfg.tones, pmf)
        packets = np.arange(h.size) * h
        offered += int(packets.sum())
        dropped_overload += int(packets[cap + 1 :].sum())
        resolvable = packets[1 : cap + 1]
        xi = sample_large_scale(cfg, int(resolvable.sum()), rng)
        for n, xi_n in enumerate(np.split(xi, np.cumsum(resolvable)[:-1]), start=1):
            k = cap - n + 1
            gain = dim * rng.standard_gamma(k // dim, xi_n.size)
            if k % dim:
                gain += rng.standard_normal(xi_n.size) ** 2
            outage = int(np.count_nonzero(snr * xi_n * gain < gamma_t))
            dropped_outage += outage
            decoded += xi_n.size - outage
            if outage < xi_n.size:
                max_decoded_collision = max(max_decoded_collision, n)

    slot_s = cfg.tti_ms / 1000.0
    return MmtcResult(
        config=cfg,
        ttis=ttis,
        offered=offered,
        decoded=decoded,
        dropped_overload=dropped_overload,
        dropped_outage=dropped_outage,
        throughput=decoded * cfg.packet_bits / (slot_s * cfg.bandwidth_hz * ttis),
        max_decoded_collision=max_decoded_collision,
    )
