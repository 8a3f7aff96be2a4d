"""Tests for the cell geometry, attenuation law, and power profiles."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from wlmimo.link_model import (MIN_DISTANCE_KM, Cell, LinkConfig, sample_large_scale,
                               sample_power_profile)
from wlmimo.mmtc_sim import MmtcConfig


def base_cfg(**kw):
    defaults = dict(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    defaults.update(kw)
    return LinkConfig(**defaults)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        base_cfg(snr=0.0)
    with pytest.raises(ValueError):
        base_cfg(rate=-1.0)
    with pytest.raises(ValueError):
        base_cfg(power_control="open-loop")
    # NaN passes every range test, and outage_mc would then count 0 or 1.
    for name in ("rate", "snr"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                base_cfg(**{name: value})


def test_configs_set_only_what_a_run_varies():
    # The cell, the mMTC band, power and packet size are model constants.
    assert [f.name for f in dataclasses.fields(LinkConfig)] == [
        "m_rx", "n_users", "snr", "rate", "power_control"]
    assert [f.name for f in dataclasses.fields(MmtcConfig)] == [
        "users", "m_rx", "family", "half_tti"]


def test_pathloss_point_value():
    """At 100 m the law gives -120.9 + 37.6 = -83.3 dB before shadowing."""
    cfg = base_cfg()
    expect = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(0.1)
    assert expect == pytest.approx(-83.3, abs=1e-10)


def test_large_scale_mean_attenuation_db():
    """Mean dB attenuation with area-uniform drops has a closed form.

    E[log10 r] = log10 R - 1/(2 ln 10) for r = R sqrt(U), and the zero-mean
    shadowing adds nothing, so the sample mean in dB must land on
    intercept + slope (log10 R - 1/(2 ln 10)).
    """
    cfg = base_cfg()
    rng = np.random.default_rng(21)
    g = sample_large_scale(cfg, 200_000, rng)
    mean_db = np.mean(10.0 * np.log10(g))
    expect = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * (
        np.log10(cfg.cell_radius_km) - 1.0 / (2.0 * np.log(10.0)))
    assert mean_db == pytest.approx(expect, abs=0.15)


class Unshadowed(LinkConfig):
    shadow_sigma_db = 0.0


class FlatPathloss(LinkConfig):
    pathloss_intercept_db = 0.0
    pathloss_slope_db = 0.0


def test_large_scale_distance_law():
    # with shadowing off, the distance is recoverable and (r/R)^2 is uniform
    cfg = Unshadowed(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    rng = np.random.default_rng(22)
    g = sample_large_scale(cfg, 50_000, rng)
    r = 10.0 ** ((10.0 * np.log10(g) - cfg.pathloss_intercept_db)
                 / cfg.pathloss_slope_db)
    u = (r / cfg.cell_radius_km) ** 2
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_large_scale_shadowing_law():
    # flat pathloss isolates the shadowing term
    cfg = FlatPathloss(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    assert cfg.shadow_sigma_db == 8.0
    rng = np.random.default_rng(23)
    g = sample_large_scale(cfg, 50_000, rng)
    db = 10.0 * np.log10(g)
    assert stats.kstest(db, stats.norm(0, 8.0).cdf).pvalue > 0.01


def db_route(cfg, count, rng):
    """beta psi by the dB form of the law, on the sampler's draws:
    r = R sqrt(U) clipped to the keep-out, then 10^((a + s log10 r + psi_dB)/10)."""
    r = np.maximum(cfg.cell_radius_km * np.sqrt(rng.random(count)), MIN_DISTANCE_KM)
    beta_db = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(r)
    return 10.0 ** ((beta_db + rng.normal(0.0, cfg.shadow_sigma_db, count)) / 10.0)


def test_large_scale_takes_a_uniform_then_a_normal_per_sample():
    rng, twin = np.random.default_rng(26), np.random.default_rng(26)
    sample_large_scale(base_cfg(), 1_000, rng)
    twin.random(1_000)
    twin.standard_normal(1_000)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_large_scale_matches_the_db_route():
    cfg = base_cfg()
    g = sample_large_scale(cfg, 100_000, np.random.default_rng(27))
    want = db_route(cfg, 100_000, np.random.default_rng(27))
    assert np.max(np.abs(g / want - 1.0)) < 1e-13


class TinyCell(Cell):
    """A 2 mm cell without shadowing: every drop lies inside the keep-out."""

    cell_radius_km = 0.000002
    shadow_sigma_db = 0.0


def test_large_scale_clips_to_the_keep_out():
    g = sample_large_scale(TinyCell(), 1_000, np.random.default_rng(28))
    beta_r0 = 10.0 ** ((TinyCell.pathloss_intercept_db
                        + TinyCell.pathloss_slope_db * np.log10(MIN_DISTANCE_KM)) / 10.0)
    assert np.max(np.abs(g / beta_r0 - 1.0)) < 8 * np.finfo(float).eps


def test_power_profile_ppc_is_constant():
    cfg = base_cfg(power_control="ppc")
    rng = np.random.default_rng(24)
    state = rng.bit_generator.state
    xi = sample_power_profile(cfg, rng, size=1)
    assert xi.shape == (1, 3)
    assert np.all(xi == 1.0)
    batch = sample_power_profile(cfg, rng, size=6)
    assert batch.shape == (6, 3)
    assert np.all(batch == 1.0)
    assert rng.bit_generator.state == state


def test_power_profile_uncontrolled_shapes():
    cfg = base_cfg()
    rng = np.random.default_rng(25)
    xi = sample_power_profile(cfg, rng, size=8)
    assert xi.shape == (8, 3)
    assert np.all(np.isfinite(xi) & (xi > 0))
