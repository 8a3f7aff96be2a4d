"""Tests for the cell geometry, attenuation law, and power profiles."""

import numpy as np
import pytest
from scipy import stats

from wlmimo.link_model import (
    LinkConfig,
    PowerProfile,
    sample_large_scale,
    sample_power_profile,
)


def base_cfg(**kw):
    defaults = dict(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    defaults.update(kw)
    return LinkConfig(**defaults)


def test_config_rejects_overloaded_system():
    with pytest.raises(ValueError):
        base_cfg(m_rx=2, n_users=5)
    base_cfg(m_rx=2, n_users=4)   # N = 2M is the boundary and is fine


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        base_cfg(snr=0.0)
    with pytest.raises(ValueError):
        base_cfg(rate=-1.0)
    with pytest.raises(ValueError):
        base_cfg(power_control="open-loop")
    with pytest.raises(ValueError):
        base_cfg(xi_ppc=0.0)


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


def test_large_scale_distance_law():
    # with shadowing off, the distance is recoverable and (r/R)^2 is uniform
    cfg = base_cfg(shadow_sigma_db=0.0)
    rng = np.random.default_rng(22)
    g = sample_large_scale(cfg, 50_000, rng)
    r = 10.0 ** ((10.0 * np.log10(g) - cfg.pathloss_intercept_db)
                 / cfg.pathloss_slope_db)
    u = (r / cfg.cell_radius_km) ** 2
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_large_scale_shadowing_law():
    # flat pathloss isolates the shadowing term
    cfg = base_cfg(pathloss_intercept_db=0.0, pathloss_slope_db=0.0,
                   shadow_sigma_db=8.0)
    rng = np.random.default_rng(23)
    g = sample_large_scale(cfg, 50_000, rng)
    db = 10.0 * np.log10(g)
    assert stats.kstest(db, stats.norm(0, 8.0).cdf).pvalue > 0.01


def test_power_profile_ppc_is_constant():
    cfg = base_cfg(power_control="ppc", xi_ppc=0.25)
    rng = np.random.default_rng(24)
    prof = sample_power_profile(cfg, rng)
    assert prof.mode == "ppc"
    assert prof.xi.shape == (3,)
    assert np.all(prof.xi == 0.25)
    batch = sample_power_profile(cfg, rng, size=6)
    assert batch.xi.shape == (6, 3)
    assert np.all(batch.xi == 0.25)


def test_power_profile_uncontrolled_shapes():
    cfg = base_cfg()
    rng = np.random.default_rng(25)
    prof = sample_power_profile(cfg, rng, size=8)
    assert prof.xi.shape == (8, 3)
    assert np.all(prof.xi > 0)
    assert prof.n_users == 3


def test_power_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(xi=np.array([1.0, -2.0]), mode="none")
    with pytest.raises(ValueError):
        PowerProfile(xi=np.ones((2, 2, 2)), mode="none")
    with pytest.raises(ValueError):
        PowerProfile(xi=np.ones(2), mode="genie")
