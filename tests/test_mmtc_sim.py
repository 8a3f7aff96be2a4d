"""Tests for the grant-free machine-type traffic simulator."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from wlmimo.mmtc_sim import (
    TTI_CHUNK,
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


def flat_single_tone_cfg(**kw):
    """One user, one tone, deterministic unit attenuation, saturated arrivals."""
    defaults = dict(
        users=1, m_rx=1, family="wl", arrival_rate=20.0,
        tones=1, subcarrier_hz=3.75e3,
        tx_power_dbm=-120.0, pathloss_intercept_db=0.0,
        pathloss_slope_db=0.0, shadow_sigma_db=0.0,
    )
    defaults.update(kw)
    return MmtcConfig(**defaults)


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
    dict(cell_radius_km=0.0),                 # every user at the keep-out
    dict(cell_radius_km=float("nan")),
    dict(tx_power_dbm=float("nan")),          # every outage test reads False
    dict(tx_power_dbm=float("inf")),
    dict(pathloss_intercept_db=float("nan")),
    dict(pathloss_slope_db=float("-inf")),
    dict(shadow_sigma_db=float("nan")),
    dict(shadow_sigma_db=-1.0),
    dict(rate=float("nan")),
    dict(rate=float("inf")),                  # every packet in outage
    dict(subcarrier_hz=float("inf")),         # an infinite band
    dict(tti_ms=float("nan")),
    dict(arrival_rate=float("nan")),
    dict(users=1000.7),
    dict(users=1000.0),
    dict(m_rx=1.5),
    dict(tones=48.0),
    dict(tones=0),
    dict(subcarrier_hz=-3.75e3),
])
def test_config_refuses_quietly_wrong_inputs(kw):
    with pytest.raises(ValueError):
        wl_cfg(**kw)


def test_config_accepts_numpy_integers():
    cfg = wl_cfg(users=np.int64(1000), m_rx=np.int32(2), tones=np.int64(48))
    assert cfg.capacity == 4


def test_config_derived_properties():
    cfg = wl_cfg(m_rx=2)
    assert cfg.tx_probability == pytest.approx(1 - math.exp(-4.16e-4))
    assert cfg.bandwidth_hz == 180e3 and wl_cfg(tones=4).bandwidth_hz == 15e3


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
    with pytest.raises(ValueError):
        half_tti_mode(half)
    with pytest.raises(ValueError):
        half_tti_mode(wl_cfg())


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
    ("wl", 1), ("wl", 2), ("wl", 3), ("cl", 1), ("cl", 2),
])
def test_collision_drop_matches_zf_link_law(family, n):
    """n saturated users on one tone, flat attenuation, M = 2: every slot
    carries the same n-packet collision, so the drop probability is the
    exact ZF link law P(D Gamma((D M - n + 1)/D) < gamma_T / snr)."""
    cfg = flat_single_tone_cfg(users=n, m_rx=2, family=family,
                               tx_power_dbm=-140.0)
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
    """Replay the arrival and tone draws of a one-chunk run and count the
    occupancy of each (slot, tone) cell independently."""
    cfg = MmtcConfig(users=2_000, m_rx=1, family=family, arrival_rate=0.01,
                     tones=4)
    ttis = 1_000
    res = run_scenario(cfg, ttis, derive_rng(9, "oracle", family))

    rng = derive_rng(9, "oracle", family)
    arrivals = rng.binomial(cfg.users, cfg.tx_probability, size=ttis)
    tones = rng.integers(0, cfg.tones, size=int(arrivals.sum()))
    slots = [s for s, a in enumerate(arrivals) for _ in range(a)]
    cells = Counter(zip(slots, tones.tolist()))
    overloaded = sum(n for n in cells.values() if n > cfg.capacity)
    assert res.offered == len(slots)
    assert overloaded > 0
    assert res.dropped_overload == overloaded


def test_saturated_single_tone_overloads():
    cfg = flat_single_tone_cfg(users=8, family="cl", tx_power_dbm=23.0)
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
