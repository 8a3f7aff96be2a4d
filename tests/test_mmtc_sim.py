"""Tests for the grant-free machine-type traffic simulator."""

import dataclasses
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wlmimo.mmtc_sim import (
    TTI_CHUNK,
    _occupancy_pmf,
    MmtcConfig,
    MmtcResult,
    half_tti_mode,
    operating_snr,
    run_scenario,
)
from wlmimo.montecarlo import derive_rng, wilson_interval
from wlmimo.receivers import DIMS, threshold


def drop_rate(res):
    """A run's drop proportion and its binomial standard error."""
    p = res.dropped / res.offered
    return p, math.sqrt(p * (1 - p) / res.offered)


def wl_cfg(**kw):
    defaults = dict(users=1000, m_rx=1, family="wl")
    defaults.update(kw)
    return MmtcConfig(**defaults)


class FlatSingleTone(MmtcConfig):
    """One tone at -120 dBm with deterministic unit attenuation and
    saturated arrivals."""

    tones = 1
    full_tti_arrival_rate = 20.0
    tx_power_dbm = -120.0
    pathloss_intercept_db = 0.0
    pathloss_slope_db = 0.0
    shadow_sigma_db = 0.0


class FaintFlatSingleTone(FlatSingleTone):
    tx_power_dbm = -140.0


class LoudFlatSingleTone(FlatSingleTone):
    tx_power_dbm = 23.0


class CertainFlatSingleTone(FlatSingleTone):
    full_tti_arrival_rate = 50.0      # the send probability rounds to 1


class VanishingArrivals(MmtcConfig):
    full_tti_arrival_rate = 5e-324    # p_tx / tones underflows to 0


class FourTones(MmtcConfig):
    tones = 4
    full_tti_arrival_rate = 0.01


def flat_single_tone_cfg(kind=FlatSingleTone, **kw):
    """One user, one tone, deterministic unit attenuation, saturated arrivals."""
    defaults = dict(users=1, m_rx=1, family="wl")
    defaults.update(kw)
    return kind(**defaults)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        wl_cfg(half_tti=True)                 # WL has no half-TTI variant
    with pytest.raises(ValueError):
        wl_cfg(users=-1)
    with pytest.raises(ValueError):
        wl_cfg(family="ml")


@pytest.mark.parametrize("kw", [
    dict(users=1000.7),
    dict(users=1000.0),
    dict(m_rx=1.5),
    dict(m_rx=0),
    dict(family="cl", half_tti="no"),         # truthy: it ran in half-TTI mode
    dict(family="cl", half_tti=1),
    dict(family="cl", half_tti=None),
], ids=["kw4", "kw5", "kw6", "kw7", "cl-half-str", "cl-half-int", "cl-half-none"])
def test_config_refuses_quietly_wrong_inputs(kw):
    with pytest.raises(ValueError):
        wl_cfg(**kw)


def test_config_accepts_numpy_integers():
    cfg = wl_cfg(users=np.int64(1000), m_rx=np.int32(2))
    assert cfg.capacity == 4


def test_config_accepts_a_numpy_bool():
    cfg = wl_cfg(family="cl", half_tti=np.bool_(True))
    assert cfg.tti_ms == MmtcConfig.full_tti_ms / 2


def test_config_derived_properties():
    cfg = wl_cfg(m_rx=2)
    assert (cfg.arrival_rate, cfg.rate, cfg.tti_ms) == (4.16e-4, 0.3, 32.0)
    assert cfg.tx_probability == pytest.approx(1 - math.exp(-4.16e-4))
    assert cfg.bandwidth_hz == 180e3
    assert FourTones(users=1000, m_rx=1, family="wl").bandwidth_hz == 15e3


def test_operating_snr_budget():
    # 23 dBm against thermal noise over one 3.75 kHz tone
    cfg = wl_cfg()
    snr_db = 10 * math.log10(operating_snr(cfg))
    expect = 23.0 - (-174.0 + 10 * math.log10(3750.0))
    assert snr_db == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(161.26, abs=0.01)


def test_half_tti_mode_transform():
    cfg = MmtcConfig(users=10, m_rx=1, family="cl")
    half = half_tti_mode(cfg)
    assert half.half_tti is True
    assert half.rate == 0.6
    assert half.arrival_rate == pytest.approx(cfg.arrival_rate / 2)
    assert half.tti_ms == 16.0
    assert half_tti_mode(half) == half
    with pytest.raises(ValueError):
        half_tti_mode(wl_cfg())


def test_half_tti_flag_is_the_one_traffic_input():
    """A config built with the flag is the one half_tti_mode makes: the
    rate doubles, the slot and the per-slot arrival rate halve, and a run
    on one stream gives the same result."""
    direct = MmtcConfig(16_000, 1, "cl", True)
    derived = half_tti_mode(MmtcConfig(16_000, 1, "cl"))
    assert direct == derived
    assert (direct.rate, direct.arrival_rate, direct.tti_ms) == (0.6, 2.08e-4, 16.0)
    assert ([f.name for f in dataclasses.fields(MmtcConfig)]
            == ["users", "m_rx", "family", "half_tti"])
    assert (run_scenario(direct, TTI_CHUNK, derive_rng(11, "half-flag"))
            == run_scenario(derived, TTI_CHUNK, derive_rng(11, "half-flag")))


# ---------------------------------------------------------------------------
# Occupancy law of one (slot, tone) cell
# ---------------------------------------------------------------------------

TINY = sys.float_info.min
# Per-cell send probabilities q = p_tx / tones the runs use (full and half
# TTI on 48 tones, FourTones, one saturated tone), and 1/2.
FULL_Q = MmtcConfig(users=1, m_rx=1, family="cl").tx_probability / 48
HALF_Q = MmtcConfig(users=1, m_rx=1, family="cl", half_tti=True).tx_probability / 48
RUN_QS = [FULL_Q, HALF_Q, FourTones(users=1, m_rx=1, family="cl").tx_probability / 4,
          FlatSingleTone(users=1, m_rx=1, family="cl").tx_probability, 0.5]


def exact_binomial_pmf(users, q, sizes):
    """Fraction(comb(users, n)) q^n (1 - q)^(users - n) for the exact
    rational a/b of the float q, rounded once to a float."""
    a, b = Fraction(q).as_integer_ratio()
    den = b ** users
    return np.array([math.comb(users, n) * a**n * (b - a) ** (users - n) / den
                     for n in sizes])


def check_pmf(sizes, pmf, users, truth):
    """The sizes form one run lo..hi; `truth(n)` gives the exact pmf."""
    lo, hi = int(sizes.min()), int(sizes.max())
    assert sorted(sizes.tolist()) == list(range(lo, hi + 1))
    # the pmf is unimodal, so the sizes beyond its neighbours are rarer still
    outside = [n for n in (lo - 1, hi + 1) if 0 <= n <= users]
    assert all(p < TINY for p in truth(outside))
    exact = truth(sizes.tolist())
    kept = exact >= 1e-300
    assert np.all(np.abs(pmf[kept] - exact[kept]) <= 1e-12 * exact[kept])
    assert pmf[-1] == pmf.max() and exact[-1] == exact.max()


@pytest.mark.parametrize("q", RUN_QS, ids=["full", "half", "four-tones", "saturated", "even"])
@pytest.mark.parametrize("users", [1, 2, 7, 250, 2000])
def test_occupancy_pmf_matches_exact_binomial(users, q):
    sizes, pmf = _occupancy_pmf(users, q)
    check_pmf(sizes, pmf, users, lambda ns: exact_binomial_pmf(users, q, ns))


@pytest.mark.parametrize("q", [FULL_Q, HALF_Q], ids=["full", "half"])
def test_occupancy_pmf_at_the_largest_population(q):
    mpmath = pytest.importorskip("mpmath")
    users = 128_000
    sizes, pmf = _occupancy_pmf(users, q)
    with mpmath.workdps(40):
        qm = mpmath.mpf(q)

        def truth(ns):
            return np.array([float(mpmath.binomial(users, n) * qm**n
                                   * (1 - qm) ** (users - n)) for n in ns])

        check_pmf(sizes, pmf, users, truth)
    # the last category takes numpy's remainder, so no cell count is refused
    counts = np.random.default_rng(0).multinomial(TTI_CHUNK * 48, pmf)
    assert counts.sum() == TTI_CHUNK * 48


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

def test_empty_population_produces_zeros():
    res = run_scenario(wl_cfg(users=0), 1000, derive_rng(1, "empty"))
    assert res.offered == 0
    assert res.decoded == 0
    assert res.dropped == 0
    assert res.throughput == 0.0


def test_run_scenario_needs_slots():
    with pytest.raises(ValueError):
        run_scenario(wl_cfg(), 100, derive_rng(1, "short"))


def test_single_user_drop_matches_closed_form():
    """With one user on one tone and flat unit attenuation, the only loss
    is link outage and its probability is exactly 1 - exp(-gamma_t/(2 snr))."""
    cfg = flat_single_tone_cfg()
    res = run_scenario(cfg, 30_000, derive_rng(2, "oracle"))
    snr = operating_snr(cfg)
    truth = 1.0 - math.exp(-threshold(cfg.family, cfg.rate) / (2.0 * snr))
    assert res.dropped_overload == 0
    p, se = drop_rate(res)
    assert abs(p - truth) < 4 * max(se, 1e-6)
    lo, hi = wilson_interval(res.dropped, res.offered)
    assert lo <= truth <= hi


@pytest.mark.parametrize("family, n", [
    ("wl", 1), ("wl", 2), ("wl", 3), ("cl", 1), ("cl", 2), ("wl", 4),
])
def test_collision_drop_matches_zf_link_law(family, n):
    """n saturated users on one tone, flat attenuation, M = 2: every slot
    carries the same n-packet collision, so the drop probability is the
    exact ZF link law P(D Gamma((D M - n + 1)/D) < gamma_T / snr)."""
    cfg = flat_single_tone_cfg(FaintFlatSingleTone, users=n, m_rx=2, family=family)
    res = run_scenario(cfg, 20_000, derive_rng(6, "link-law", family, n))
    d = DIMS[family]
    x = threshold(family, cfg.rate) / operating_snr(cfg)
    truth = stats.gamma((d * cfg.m_rx - n + 1) / d).cdf(x / d)
    assert res.dropped_overload == 0
    assert res.max_decoded_collision == n
    assert 0.01 < truth < 0.99
    p, se = drop_rate(res)
    assert abs(p - truth) < 4 * se


def test_throughput_bookkeeping_identity():
    cfg = flat_single_tone_cfg()
    res = run_scenario(cfg, 2_000, derive_rng(3, "tput"))
    per_packet = cfg.packet_bits / (cfg.tti_ms / 1000.0 * cfg.bandwidth_hz)
    assert res.throughput == pytest.approx(
        res.decoded / res.ttis * per_packet, rel=1e-12)


def test_conservation_and_capacity_accounting():
    cfg = wl_cfg(users=30_000, m_rx=2)
    res = run_scenario(cfg, 3_000, derive_rng(4, "conserve"))
    assert res.decoded + res.dropped == res.offered
    assert 0 < res.max_decoded_collision <= cfg.capacity
    # offered volume should match the thinned-arrival mean
    expect = cfg.users * cfg.tx_probability * res.ttis
    assert abs(res.offered - expect) < 5 * math.sqrt(expect)


def test_bookkeeping_across_chunk_boundary():
    cfg = wl_cfg(users=30_000, m_rx=2)
    ttis = TTI_CHUNK + 1_000
    res = run_scenario(cfg, ttis, derive_rng(4, "chunks"))
    assert res.decoded + res.dropped == res.offered
    assert 0 < res.max_decoded_collision <= cfg.capacity
    expect = cfg.users * cfg.tx_probability * ttis
    assert abs(res.offered - expect) < 5 * math.sqrt(expect)
    per_packet = cfg.packet_bits / (cfg.tti_ms / 1000.0 * cfg.bandwidth_hz)
    assert res.throughput == pytest.approx(
        res.decoded / ttis * per_packet, rel=1e-12)


@pytest.mark.parametrize("family", ["wl", "cl"])
def test_overload_count_matches_counter_oracle(family):
    """Replay the occupancy draw of a one-chunk run and count the packets
    offered and overloaded from the replayed histogram."""
    cfg = FourTones(users=2_000, m_rx=1, family=family)
    ttis = 1_000
    res = run_scenario(cfg, ttis, derive_rng(9, "oracle", family))

    rng = derive_rng(9, "oracle", family)
    sizes, pmf = _occupancy_pmf(cfg.users, cfg.tx_probability / cfg.tones)
    cells = Counter(dict(zip(sizes.tolist(), rng.multinomial(ttis * cfg.tones, pmf).tolist())))
    assert cells.total() == ttis * cfg.tones
    overloaded = sum(n * c for n, c in cells.items() if n > cfg.capacity)
    assert res.offered == sum(n * c for n, c in cells.items())
    assert overloaded > 0
    assert res.dropped_overload == overloaded


@pytest.mark.parametrize("users", [5, 2, 0])
def test_certain_arrivals_on_one_tone(users):
    """At arrival rate 50 the send probability rounds to 1, so the one tone
    holds every user in every slot: a point mass, not a binomial."""
    cfg = flat_single_tone_cfg(CertainFlatSingleTone, users=users)
    assert cfg.tx_probability == 1.0
    res = run_scenario(cfg, 1_000, derive_rng(10, "certain", users))
    assert res.offered == users * 1_000
    if users > cfg.capacity:
        assert res.dropped_overload == res.offered
    else:
        assert res.dropped_overload == 0
    if users == 0:
        assert (res.decoded, res.dropped, res.throughput) == (0, 0, 0.0)


def test_vanishing_send_probability_offers_nothing():
    cfg = VanishingArrivals(users=1000, m_rx=1, family="wl")
    assert cfg.tx_probability / cfg.tones == 0.0
    res = run_scenario(cfg, 1_000, derive_rng(10, "vanishing"))
    assert (res.offered, res.throughput) == (0, 0.0)


def test_saturated_single_tone_overloads():
    cfg = flat_single_tone_cfg(LoudFlatSingleTone, users=8, family="cl")
    res = run_scenario(cfg, 1_000, derive_rng(5, "overload"))
    assert res.dropped_overload > 0
    assert res.dropped / res.offered > 0.9


def test_drop_grows_with_population():
    small = run_scenario(wl_cfg(users=2_000), 2_000, derive_rng(6, "mono", 0))
    large = run_scenario(wl_cfg(users=64_000), 2_000, derive_rng(6, "mono", 1))
    assert drop_rate(large)[0] > drop_rate(small)[0]


def test_half_tti_relieves_collision_pressure():
    base = MmtcConfig(users=50_000, m_rx=1, family="cl")
    full = run_scenario(base, 2_000, derive_rng(7, "half", 0))
    half = run_scenario(half_tti_mode(base), 2_000, derive_rng(7, "half", 1))
    assert drop_rate(half)[0] < drop_rate(full)[0]


def test_run_scenario_deterministic():
    cfg = wl_cfg(users=5_000)
    a = run_scenario(cfg, 1_500, derive_rng(8, "det"))
    b = run_scenario(cfg, 1_500, derive_rng(8, "det"))
    assert a == b


class QuietCell(MmtcConfig):
    """The cell at 0 dBm, where CL outage drops are common enough to pin."""

    tx_power_dbm = 0.0


@pytest.mark.parametrize("cfg, counts", [
    (wl_cfg(users=64_000), (26654, 23758, 2870, 26)),
    (QuietCell(users=16_000, m_rx=1, family="cl"), (6669, 5731, 902, 36)),
])
def test_run_scenario_counts_are_pinned(cfg, counts):
    # Any change of the occupancy, attenuation or gain streams moves these,
    # so it fails here instead of passing quietly.
    res = run_scenario(cfg, 1_000, derive_rng(2027, "pin", cfg.family))
    assert (res.offered, res.decoded, res.dropped_overload,
            res.dropped_outage) == counts


def test_result_validation():
    cfg = wl_cfg()
    with pytest.raises(ValueError):
        MmtcResult(config=cfg, ttis=10, offered=5, decoded=3,
                   dropped_overload=1, dropped_outage=0,
                   throughput=0.0, max_decoded_collision=1)
    with pytest.raises(ValueError):
        MmtcResult(config=cfg, ttis=10, offered=5, decoded=4,
                   dropped_overload=1, dropped_outage=0,
                   throughput=0.0, max_decoded_collision=3)
