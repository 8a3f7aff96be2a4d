"""Tests for thresholds, exponents, outage simulation, and the gain formulas."""

import math

import numpy as np
import pytest
from scipy import stats

from wlmimo.link_model import LinkConfig
from wlmimo.montecarlo import derive_rng
from wlmimo.outage_analysis import (
    GainSummary,
    OutageCurve,
    asymptote_curve,
    chi2_cdf_poly_coeff,
    cl_threshold,
    coding_gain_ratio,
    diversity_order,
    gain_for,
    linear_gains,
    moment_ratio_check,
    outage_mc,
    residual_interference_samples,
    sic_gains,
    threshold_for,
    wl_threshold,
)
from wlmimo.receivers import ReceiverSpec


def ppc_cfg(m_rx, n_users, rate, snr=100.0):
    return LinkConfig(m_rx=m_rx, n_users=n_users, snr=snr, rate=rate,
                      power_control="ppc")


def zf_ppc_gain(cfg, family="wl"):
    """ZF gain under PPC: exact, so the sample count and stream go unused."""
    return linear_gains(cfg, ReceiverSpec(family, "zf"), 1_000_000,
                        derive_rng(0, "zf-ppc"))


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def test_thresholds():
    assert wl_threshold(2.0) == 15.0
    assert cl_threshold(2.0) == 3.0
    assert wl_threshold(0.5) == pytest.approx(1.0)


def test_coding_gain_ratio_values():
    assert coding_gain_ratio(2.0) == pytest.approx(0.4)
    assert coding_gain_ratio(1e-6) == pytest.approx(1.0, abs=1e-5)
    # decreasing in the rate
    rates = np.linspace(0.1, 6.0, 30)
    vals = [coding_gain_ratio(r) for r in rates]
    assert np.all(np.diff(vals) < 0)


def test_diversity_orders():
    assert diversity_order(2, 4, "wl") == 0.5
    assert diversity_order(2, 2, "wl") == 1.5
    assert diversity_order(2, 2, "cl") == 1.0
    assert diversity_order(4, 1, "cl") == 4.0


def test_diversity_order_equalities_and_gaps():
    # matched diversity at N_wl = 2 N_cl - 1, and a strict WL advantage at
    # equal user counts, across every loadable configuration
    for m in range(1, 5):
        for n_cl in range(1, m + 1):
            assert diversity_order(m, 2 * n_cl - 1, "wl") \
                == diversity_order(m, n_cl, "cl")
            assert diversity_order(m, n_cl, "wl") \
                > diversity_order(m, n_cl, "cl") - 0.5 + 1e-12
            if n_cl > 1:
                assert diversity_order(m, n_cl, "wl") \
                    > diversity_order(m, n_cl, "cl")


def test_diversity_order_rejects_overload():
    with pytest.raises(ValueError):
        diversity_order(2, 5, "wl")
    with pytest.raises(ValueError):
        diversity_order(2, 3, "cl")
    with pytest.raises(ValueError):
        diversity_order(2, 2, "ml")


def test_chi2_poly_coeff():
    assert chi2_cdf_poly_coeff(2) == pytest.approx(0.5)
    assert chi2_cdf_poly_coeff(1) == pytest.approx(math.sqrt(2 / math.pi))
    # leading-order check against the actual CDF near zero
    for k in (1, 2, 3, 5):
        eps = 1e-8
        lead = stats.chi2(k).cdf(eps) / eps ** (k / 2)
        assert lead == pytest.approx(chi2_cdf_poly_coeff(k), rel=1e-3)
    with pytest.raises(ValueError):
        chi2_cdf_poly_coeff(0)


def test_threshold_for_dispatch():
    assert threshold_for(ReceiverSpec("wl", "zf"), 2.0) == 15.0
    assert threshold_for(ReceiverSpec("cl", "mmse"), 2.0) == 3.0


# ---------------------------------------------------------------------------
# Outage curves
# ---------------------------------------------------------------------------

def test_outage_curve_validation():
    with pytest.raises(ValueError):
        OutageCurve("WL-ZF", np.array([20.0, 10.0]), np.zeros(2),
                    np.zeros(2), np.zeros(2), 1000, 2.0)
    with pytest.raises(ValueError):
        OutageCurve("WL-ZF", np.array([10.0, 20.0]), np.array([0.5, 1.2]),
                    np.zeros(2), np.ones(2), 1000, 2.0)


def test_outage_mc_matches_exact_law():
    """WL-ZF outage under PPC is an exact chi-square tail probability."""
    cfg = ppc_cfg(2, 2, rate=1.0)
    rx = ReceiverSpec("wl", "zf")
    snr_db = np.array([6.0, 10.0, 14.0])
    rng = derive_rng(1001, "outage-oracle")
    curve = outage_mc(rx, cfg, snr_db, trials=100_000, rng=rng)
    gamma_t = wl_threshold(1.0)
    for i, s in enumerate(snr_db):
        truth = stats.chi2(3).cdf(gamma_t / 10 ** (s / 10))
        halfwidth = (curve.ci_hi[i] - curve.ci_lo[i]) / 2
        assert abs(curve.p_out[i] - truth) < 4 * halfwidth


def test_outage_mc_attaches_asymptote():
    cfg = ppc_cfg(2, 4, rate=2.0)
    rx = ReceiverSpec("wl", "zf")
    gain = zf_ppc_gain(cfg)
    rng = derive_rng(1002, "outage-asym")
    curve = outage_mc(rx, cfg, np.array([30.0, 40.0]), 2_000, rng, gain=gain)
    assert curve.p_asym is not None
    assert np.allclose(curve.p_asym,
                       (gain.coding_gain * 10 ** (np.array([3.0, 4.0]))) ** -0.5)


def test_outage_mc_validates_inputs():
    cfg = ppc_cfg(2, 2, rate=1.0)
    rng = derive_rng(0, "x")
    with pytest.raises(ValueError):
        outage_mc(ReceiverSpec("wl", "zf"), cfg, [10.0], 100, rng)
    with pytest.raises(ValueError):
        outage_mc(ReceiverSpec("cl", "zf"), ppc_cfg(2, 4, 1.0), [10.0],
                  2_000, rng)


def test_mmse_outage_never_worse_than_zf():
    cfg = ppc_cfg(2, 4, rate=2.0)
    snr_db = np.array([20.0])
    p = {}
    for crit in ("zf", "mmse"):
        rng = derive_rng(1003, "mmse-vs-zf", crit)
        p[crit] = outage_mc(ReceiverSpec("wl", crit), cfg, snr_db,
                            50_000, rng).p_out[0]
    assert p["mmse"] <= p["zf"] + 0.01


def test_simulation_tracks_asymptote_at_moderate_outage():
    # the regime where the asymptote is already tight but events are still
    # frequent enough to simulate cheaply
    cfg = ppc_cfg(2, 4, rate=2.0)
    rx = ReceiverSpec("wl", "zf")
    gain = zf_ppc_gain(cfg)
    rng = derive_rng(1004, "factor")
    curve = outage_mc(rx, cfg, np.array([35.0, 40.0, 45.0]), 100_000, rng,
                      gain=gain)
    ratio = curve.p_out / curve.p_asym
    assert np.all((ratio > 1 / 1.5) & (ratio < 1.5))


# ---------------------------------------------------------------------------
# Gain summaries
# ---------------------------------------------------------------------------

def test_gain_summary_validation():
    rx = ReceiverSpec("wl", "zf")
    with pytest.raises(ValueError):
        GainSummary(rx, 0.5, -1.0)
    with pytest.raises(ValueError):
        GainSummary(rx, 0.5, 1.0, lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        GainSummary(rx, 0.0, 1.0)


def test_asymptote_curve_values():
    g = GainSummary(ReceiverSpec("wl", "zf"), 3.0, 2.0)
    out = asymptote_curve(g, [0.0, 10.0])
    assert out[0] == pytest.approx(0.125)
    assert out[1] == pytest.approx(0.125e-3)
    # doubling the gain scales a diversity-d curve by 2^-d
    g2 = GainSummary(ReceiverSpec("wl", "zf"), 3.0, 4.0)
    assert asymptote_curve(g2, [7.0]) == pytest.approx(
        asymptote_curve(g, [7.0]) / 8.0)


def test_wl_zf_gain_ppc_closed_form():
    g = zf_ppc_gain(ppc_cfg(2, 4, 2.0))
    assert g.coding_gain == pytest.approx(math.pi / 30, rel=1e-12)
    assert g.stderr == 0.0
    assert g.diversity == 0.5
    assert g.heavy_tail is False


def test_cl_zf_gain_ppc_closed_form():
    g = zf_ppc_gain(ppc_cfg(2, 2, 2.0), "cl")
    assert g.coding_gain == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert g.diversity == 1.0


@pytest.mark.parametrize("rate", [0.3, 2.0, 4.0])
def test_linear_gain_ratio_is_exact_at_matched_diversity(rate):
    """C_wl / C_cl equals L(R) exactly under PPC when N_wl = 2 N_cl - 1."""
    wl = zf_ppc_gain(ppc_cfg(2, 3, rate))
    cl = zf_ppc_gain(ppc_cfg(2, 2, rate), "cl")
    assert wl.diversity == cl.diversity
    assert wl.coding_gain / cl.coding_gain == pytest.approx(
        coding_gain_ratio(rate), rel=1e-12)


def test_wl_mmse_gain_beats_zf():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1005, "mmse-gain")
    g = linear_gains(cfg, ReceiverSpec("wl", "mmse"), 200_000, rng)
    assert g.coding_gain == pytest.approx(0.158, rel=0.05)
    assert g.coding_gain > zf_ppc_gain(cfg).coding_gain
    assert g.stderr > 0


def test_cl_mmse_gain_beats_zf():
    cfg = ppc_cfg(2, 2, 2.0)
    rng = derive_rng(1005, "cl-mmse-gain")
    g = linear_gains(cfg, ReceiverSpec("cl", "mmse"), 200_000, rng)
    assert g.coding_gain > zf_ppc_gain(cfg, "cl").coding_gain
    assert g.stderr > 0


def test_mmse_gain_equals_zf_when_no_interference():
    # a lone user has no residual interference, so the bracket collapses
    cfg = ppc_cfg(2, 1, 2.0)
    for family in ("wl", "cl"):
        rng = derive_rng(1006, "single")
        zf = zf_ppc_gain(cfg, family)
        mmse = linear_gains(cfg, ReceiverSpec(family, "mmse"), 2_000, rng)
        assert mmse.coding_gain == pytest.approx(zf.coding_gain, rel=1e-12)


def test_wl_zf_sic_gain_reference_value():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1007, "zsic")
    g = sic_gains(cfg, ReceiverSpec("wl", "zf", sic=True), trials=300_000,
                  rng=rng)
    assert g.coding_gain == pytest.approx(0.9716, rel=0.03)
    assert g.coding_gain > zf_ppc_gain(cfg).coding_gain


def test_wl_mmse_sic_gain_reference_value():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1008, "msic")
    g = sic_gains(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=300_000,
                  rng=rng)
    assert g.coding_gain == pytest.approx(19.42, rel=0.05)
    assert g.lower is None and g.upper is None


def test_sic_equals_linear_for_single_user():
    """With one user there is nothing to cancel; the constants must agree.

    The SIC route goes through the eigenvalue coefficient and the Haar
    moment, so agreement also validates that algebra against the direct
    Gamma-function form.
    """
    for m in (1, 2):
        cfg = ppc_cfg(m, 1, 2.0)
        rng = derive_rng(1009, "collapse", m)
        zf = zf_ppc_gain(cfg)
        zsic = sic_gains(cfg, ReceiverSpec("wl", "zf", sic=True),
                         trials=2_000, rng=rng)
        assert zsic.coding_gain == pytest.approx(zf.coding_gain, rel=1e-9)


def test_ppc_small_rate_sic_falls_back_to_residual_bound():
    """The closed PPC bracket clips to zero at small rates; the reported
    constant must stay finite and come without a bound pair."""
    cfg = ppc_cfg(2, 3, 0.3)
    rng = derive_rng(1010, "degenerate")
    g = sic_gains(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=50_000,
                  rng=rng)
    assert math.isfinite(g.coding_gain) and g.coding_gain > 0
    assert g.lower is None and g.upper is None


def test_uncontrolled_mmse_sic_reports_bound_pair():
    cfg = LinkConfig(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    rng = derive_rng(1011, "bounds")
    g = sic_gains(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=50_000,
                  rng=rng)
    assert g.lower is not None and g.upper is not None
    assert g.lower <= g.upper


@pytest.mark.parametrize("m", [3, 2])
def test_uncontrolled_mmse_sic_without_finite_upper_bound(m):
    # N = 2 >= gamma_T + 1 = 2 at R = 1 (CL): the upper bracket needs both
    # v_n^2 above 1/2, so it vanishes on every draw; the headline and the
    # lower bound stay finite.
    cfg = LinkConfig(m_rx=m, n_users=2, snr=1.0, rate=1.0)
    g = sic_gains(cfg, ReceiverSpec("cl", "mmse", sic=True), 20_000,
                  derive_rng(1012, "no-upper", m))
    assert math.isfinite(g.coding_gain) and g.coding_gain > 0
    assert g.lower is not None and math.isfinite(g.lower) and g.lower > 0
    assert g.upper is None


def test_gain_for_dispatches_by_spec():
    cfg = ppc_cfg(2, 2, 2.0)
    lin = gain_for(cfg, ReceiverSpec("wl", "zf"), trials=2_000,
                   rng=derive_rng(1, "a"))
    assert lin.coding_gain == pytest.approx(
        zf_ppc_gain(cfg).coding_gain, rel=1e-12)
    sic = gain_for(cfg, ReceiverSpec("cl", "zf", sic=True), trials=2_000,
                   rng=derive_rng(1, "b"))
    assert sic.receiver.sic
    with pytest.raises(ValueError):
        linear_gains(cfg, ReceiverSpec("wl", "zf", sic=True), 2_000,
                     derive_rng(1, "c"))
    with pytest.raises(ValueError):
        sic_gains(cfg, ReceiverSpec("wl", "zf"), 2_000, derive_rng(1, "c"))


def test_heavy_tail_flag_trips_on_wild_shadowing():
    cfg = LinkConfig(m_rx=2, n_users=1, snr=100.0, rate=2.0,
                     shadow_sigma_db=30.0)
    rng = derive_rng(1012, "heavy")
    g = linear_gains(cfg, ReceiverSpec("wl", "zf"), 50_000, rng)
    assert g.heavy_tail is True


# ---------------------------------------------------------------------------
# Residual interference law
# ---------------------------------------------------------------------------

def test_residual_zero_for_single_user():
    cfg = ppc_cfg(2, 1, 2.0)
    out = residual_interference_samples(cfg, "wl", 100, derive_rng(2, "r"))
    assert np.all(out == 0)


def test_wl_residual_follows_f_law():
    """(2M-N+2)/(N-1) xi eta is F-distributed under PPC."""
    cfg = ppc_cfg(2, 3, 2.0)
    rng = derive_rng(1013, "fwl")
    eta = residual_interference_samples(cfg, "wl", 40_000, rng)
    scaled = (2 * 2 - 3 + 2) / (3 - 1) * cfg.xi_ppc * eta
    assert stats.kstest(scaled, stats.f(2, 3).cdf).pvalue > 0.01


def test_cl_residual_follows_f_law():
    cfg = ppc_cfg(3, 2, 2.0)
    rng = derive_rng(1014, "fcl")
    eta = residual_interference_samples(cfg, "cl", 40_000, rng)
    scaled = (3 - 2 + 2) / (2 - 1) * cfg.xi_ppc * eta
    assert stats.kstest(scaled, stats.f(2 * (2 - 1), 2 * (3 - 2 + 2)).cdf).pvalue > 0.01


def test_residual_rejects_unknown_family():
    with pytest.raises(ValueError):
        residual_interference_samples(ppc_cfg(2, 2, 1.0), "ml", 10,
                                      derive_rng(0, "z"))


# ---------------------------------------------------------------------------
# Haar moment identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d,expect", [(2, 1.0, 2.0), (3, 2.0, 9.0)])
def test_complex_moment_ratio_is_exactly_n_to_d(n, d, expect):
    rng = derive_rng(1015, "complex-moment", n)
    out = moment_ratio_check("cl", n, d, 400_000, rng)
    assert abs(out.ratio - expect) < 3 * out.stderr
    assert out.reference == expect


def test_real_moment_ratio_exceeds_reference_for_large_n():
    rng = derive_rng(1016, "real-moment")
    out = moment_ratio_check("wl", 16, 1.0, 200_000, rng)
    assert out.ratio / out.reference >= 0.8


def test_real_moment_ratio_excess_grows_with_n():
    vals = []
    for n in (4, 8, 16):
        rng = derive_rng(1017, "real-moment-trend", n)
        out = moment_ratio_check("wl", n, 1.0, 200_000, rng)
        vals.append(out.ratio / out.reference)
    assert vals[0] < vals[1] < vals[2]


def test_single_entry_moment_ratio_is_one():
    out = moment_ratio_check("wl", 1, 1.0, 1_000, derive_rng(3, "one"))
    assert out.ratio == pytest.approx(1.0)
    assert out.ci95[0] <= 1.0 <= out.ci95[1]


def test_moment_ratio_check_validation():
    with pytest.raises(ValueError):
        moment_ratio_check("wl", 0, 1.0, 100, derive_rng(0, "v"))
    with pytest.raises(ValueError):
        moment_ratio_check("wl", 2, -1.0, 100, derive_rng(0, "v"))
