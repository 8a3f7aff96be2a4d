"""Tests for thresholds, exponents, outage simulation, and the gain formulas."""

import math

import numpy as np
import pytest
from scipy import stats

import exact
from laws import chi2_cdf_poly_coeff, coding_gain_ratio, moment_ratio_check
from wlmimo import outage_analysis
from wlmimo.link_model import LinkConfig, sample_large_scale, sample_power_profile
from wlmimo.montecarlo import EstimateError, derive_rng, wilson_interval
from wlmimo.outage_analysis import (
    RESIDUAL_BATCH,
    GainSummary,
    _gain,
    _log_complex_min_moment,
    _log_min_moment,
    _log_mmse_moment,
    asymptote_curve,
    diversity_order,
    gain_for,
    outage_mc,
    residual_interference_samples,
)
from wlmimo.random_matrix import sample_channel, sample_haar_unit_vector, wl_transform
from wlmimo.receivers import DIMS, ReceiverSpec, threshold


def ppc_cfg(m_rx, n_users, rate, snr=100.0):
    return LinkConfig(m_rx=m_rx, n_users=n_users, snr=snr, rate=rate,
                      power_control="ppc")


def zf_ppc_gain(cfg, family="wl"):
    """ZF gain under PPC: exact, so the sample count and stream go unused."""
    return gain_for(cfg, ReceiverSpec(family, "zf"), 1_000_000,
                    derive_rng(0, "zf-ppc"))


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Outage curves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [[20.0, 10.0], [10.0, 10.0], [math.nan],
                                  [20.0, math.inf], [], [[10.0, 20.0]]])
def test_outage_mc_refuses_a_bad_grid_before_any_draw(grid):
    # A NaN or inf point would read as no outage; every bad grid is refused
    # before the first draw.
    rng = derive_rng(0, "grid")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="snr_db must be"):
        outage_mc(ReceiverSpec("wl", "zf"),
                  LinkConfig(2, 4, 1.0, 2.0, power_control="ppc"),
                  grid, 1000, rng)
    assert rng.bit_generator.state == state


def test_outage_mc_matches_exact_law():
    """WL-ZF outage under PPC is an exact chi-square tail probability."""
    cfg = ppc_cfg(2, 2, rate=1.0)
    rx = ReceiverSpec("wl", "zf")
    snr_db = np.array([6.0, 10.0, 14.0])
    rng = derive_rng(1001, "outage-oracle")
    curve = outage_mc(rx, cfg, snr_db, trials=100_000, rng=rng)
    gamma_t = threshold("wl", 1.0)
    p_out = curve.events / curve.trials
    lo, hi = wilson_interval(curve.events, curve.trials)
    for i, s in enumerate(snr_db):
        truth = stats.chi2(3).cdf(gamma_t / 10 ** (s / 10))
        assert abs(p_out[i] - truth) < 4 * (hi[i] - lo[i]) / 2


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
                            50_000, rng).events[0] / 50_000
    assert p["mmse"] <= p["zf"] + 0.01


def test_simulation_tracks_asymptote_at_moderate_outage():
    # the regime where the asymptote is already tight but events are still
    # frequent enough to simulate cheaply
    cfg = ppc_cfg(2, 4, rate=2.0)
    rx = ReceiverSpec("wl", "zf")
    gain = zf_ppc_gain(cfg)
    rng = derive_rng(1004, "factor")
    grid = np.array([35.0, 40.0, 45.0])
    curve = outage_mc(rx, cfg, grid, 100_000, rng)
    ratio = curve.events / curve.trials / asymptote_curve(gain, grid)
    assert np.all((ratio > 1 / 1.5) & (ratio < 1.5))


# ---------------------------------------------------------------------------
# Gain summaries
# ---------------------------------------------------------------------------

def test_gain_summary_validation():
    with pytest.raises(ValueError):
        GainSummary(0.5, -1.0)
    with pytest.raises(ValueError):
        GainSummary(0.5, 1.0, lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        GainSummary(0.0, 1.0)


def test_asymptote_curve_values():
    g = GainSummary(3.0, 2.0)
    out = asymptote_curve(g, [0.0, 10.0])
    assert out[0] == pytest.approx(0.125)
    assert out[1] == pytest.approx(0.125e-3)
    # doubling the gain scales a diversity-d curve by 2^-d
    g2 = GainSummary(3.0, 4.0)
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


def oracle_mmse_moment(family, m, n, gamma_t):
    """E[(1 - eta/gamma_T)_+^d] for eta ~ BetaPrime(K/D, (D M - K + 1)/D),
    by mpmath quadrature of the beta-prime density over eta = gamma_T s."""
    mp = pytest.importorskip("mpmath")
    dim, k = DIMS[family], n - 1
    if k == 0:
        return 1.0
    with mp.workdps(30):
        a, b = mp.mpf(k) / dim, mp.mpf(dim * m - k + 1) / dim
        d, g = mp.mpf(dim * m - n + 1) / dim, mp.mpf(gamma_t)
        f = lambda s: (1 - s) ** d * s ** (a - 1) * (1 + g * s) ** (-a - b)
        return float(g ** a / mp.beta(a, b) * mp.quad(f, [0, min(1 / g, 0.5), 1]))


def oracle_min_moment(family, n, d, c=0.0):
    """E[(min_i |v_i|^2 - c)_+^d] for v Haar on the unit sphere, as the
    integral of d t^(d-1) P(min - c > t) by mpmath quadrature: uniform
    spacings for CL; for WL (c = 0 only) E[(min g_i^2)^d] / E[|g|^(2d)] with
    P(g_i^2 > t) = erfc(sqrt(t/2))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        if family == "cl":
            c = mp.mpf(c)
            f = lambda t: d * t ** (d - 1) * (1 - n * (c + t)) ** (n - 1)
            return float(mp.quad(f, [0, (1 - n * c) / n]))
        peak = max((2 * d - 1) / n, 0.1)
        f = lambda t: d * t ** (d - 1) * mp.erfc(mp.sqrt(t / 2)) ** n
        half = mp.mpf(n) / 2                     # E[|g|^(2d)] = 2^d Gamma(half+d)/Gamma(half)
        return float(mp.quad(f, [0, peak, mp.inf]) * mp.gamma(half)
                     / (2 ** mp.mpf(d) * mp.gamma(half + d)))


def test_wl_mmse_gain_beats_zf():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1005, "mmse-gain")
    g = gain_for(cfg, ReceiverSpec("wl", "mmse"), 200_000, rng)
    zf = zf_ppc_gain(cfg).coding_gain
    assert g.coding_gain == pytest.approx(0.158, rel=0.05)
    assert g.coding_gain > zf
    assert g.stderr == 0.0
    # Linear MMSE shares ZF's prefactor, so C = C_ZF [E w]^(-1/d).
    moment = oracle_mmse_moment("wl", 2, 4, threshold("wl", 2.0))
    assert g.coding_gain == pytest.approx(zf * moment ** (-1 / g.diversity), rel=1e-12)


def test_cl_mmse_gain_beats_zf():
    cfg = ppc_cfg(2, 2, 2.0)
    rng = derive_rng(1005, "cl-mmse-gain")
    g = gain_for(cfg, ReceiverSpec("cl", "mmse"), 200_000, rng)
    zf = zf_ppc_gain(cfg, "cl").coding_gain
    assert g.coding_gain > zf
    assert g.stderr == 0.0
    moment = oracle_mmse_moment("cl", 2, 2, threshold("cl", 2.0))
    assert g.coding_gain == pytest.approx(zf * moment ** (-1 / g.diversity), rel=1e-12)


@pytest.mark.parametrize("family", ["wl", "cl"])
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("rate", [0.3, 2.0])
def test_every_receiver_has_the_zf_gain_with_one_user(family, m, rate):
    # A lone user meets no interference, so every receiver is linear ZF.  At
    # N = 1 the residual law's a = K/D is 0, so no gain may reach it.
    cfg = ppc_cfg(m, 1, rate)
    zf = zf_ppc_gain(cfg, family).coding_gain
    for criterion, sic in (("mmse", False), ("zf", True), ("mmse", True)):
        g = gain_for(cfg, ReceiverSpec(family, criterion, sic), 1_000,
                     derive_rng(1021, "one-user"))
        assert g.coding_gain == pytest.approx(zf, rel=1e-12), (criterion, sic)


def test_wl_zf_sic_gain_reference_value():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1007, "zsic")
    g = gain_for(cfg, ReceiverSpec("wl", "zf", sic=True), trials=300_000,
                 rng=rng)
    assert g.coding_gain == pytest.approx(0.9716, rel=0.03)
    assert g.coding_gain > zf_ppc_gain(cfg).coding_gain


def test_wl_mmse_sic_gain_reference_value():
    cfg = ppc_cfg(2, 4, 2.0)
    rng = derive_rng(1008, "msic")
    g = gain_for(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=300_000,
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
        zsic = gain_for(cfg, ReceiverSpec("wl", "zf", sic=True),
                        trials=2_000, rng=rng)
        assert zsic.coding_gain == pytest.approx(zf.coding_gain, rel=1e-9)


def test_ppc_small_rate_sic_falls_back_to_residual_bound():
    """The closed PPC bracket clips to zero at small rates; the reported
    constant must stay finite and come without a bound pair."""
    cfg = ppc_cfg(2, 3, 0.3)
    rng = derive_rng(1010, "degenerate")
    g = gain_for(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=50_000,
                 rng=rng)
    assert math.isfinite(g.coding_gain) and g.coding_gain > 0
    assert g.lower is None and g.upper is None


@pytest.mark.parametrize("seed", range(7))
def test_ppc_mmse_sic_refuses_an_open_bracket_no_sample_reached(seed):
    # CL, N = 2 < gamma_T + 1 at R = 1 + 1e-6: P(bracket > 0) ~ 7e-7, so
    # 200k draws would mostly miss it, but the closed form needs none.
    # M = 2 gives d = 1, b = 1/2 and E w = (1 - 2c)^2/4, c = 1/(gamma_T+1),
    # so C = 2 (gamma_T + 1)/(gamma_T - 1)^2, about 2.1e12.
    rng = derive_rng(seed, "x")
    state = rng.bit_generator.state
    g = gain_for(ppc_cfg(2, 2, 1 + 1e-6), ReceiverSpec("cl", "mmse", sic=True),
                 200_000, rng)
    gamma_t = threshold("cl", 1 + 1e-6)
    assert g.coding_gain == pytest.approx(2 * (gamma_t + 1) / (gamma_t - 1) ** 2,
                                          rel=1e-12)
    assert g.stderr == 0.0 and rng.bit_generator.state == state


@pytest.mark.parametrize("family, n, rate, value, sampled", [
    ("cl", 2, 2.0, 2.0, False),                 # N < gamma_T + 1: closed bracket
    ("cl", 2, 0.5, 38.21007117482161, False),   # N > gamma_T + 1: residual moment
    ("wl", 3, 2.0, 1.4297844242804043, True),
    ("wl", 3, 0.3, 423.73620508316947, False),
    ("wl", 4, 2.0, 19.675181893764552, True),   # fig2's PPC WL-MMSE-SIC
])
def test_ppc_mmse_sic_keeps_its_value_away_from_the_bracket_boundary(
        family, n, rate, value, sampled):
    # `value` is what the sampled rows give on these draws, and what the
    # exact rows give with none; the CL closed bracket has
    # E[(u_min - 1/4)+] = 1/16 exactly, so C = 2.
    g = gain_for(ppc_cfg(2, n, rate), ReceiverSpec(family, "mmse", sic=True),
                 20_000, derive_rng(0, "bracket"))
    assert g.coding_gain == pytest.approx(value, rel=1e-12)
    assert (g.stderr > 0) == sampled


def test_uncontrolled_mmse_sic_reports_bound_pair():
    cfg = LinkConfig(m_rx=2, n_users=3, snr=100.0, rate=2.0)
    rng = derive_rng(1011, "bounds")
    g = gain_for(cfg, ReceiverSpec("wl", "mmse", sic=True), trials=50_000,
                 rng=rng)
    assert g.lower is not None and g.upper is not None
    assert g.lower <= g.upper
    # The headline and the bound pair these draws give, pinned to 1e-12.
    assert g.coding_gain == pytest.approx(5.141453961401396e-12, rel=1e-12)
    assert g.lower == pytest.approx(5.066412914257087e-12, rel=1e-12)
    assert g.upper == pytest.approx(5.219621021413891e-11, rel=1e-12)


@pytest.mark.parametrize("m", [3, 2])
def test_uncontrolled_mmse_sic_without_finite_upper_bound(m):
    # N = 2 >= gamma_T + 1 = 2 at R = 1 (CL): the upper bracket needs both
    # v_n^2 above 1/2, so it vanishes on every draw; the headline and the
    # lower bound stay finite.
    cfg = LinkConfig(m_rx=m, n_users=2, snr=1.0, rate=1.0)
    g = gain_for(cfg, ReceiverSpec("cl", "mmse", sic=True), 20_000,
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
    # CL ZF-SIC at N = 2: b = 1/2 and E min_n |v_n|^2 = 1/4, so C = 2/gamma_T,
    # twice the linear CL-ZF gain.
    assert sic.coding_gain == pytest.approx(2.0 / threshold("cl", 2.0), rel=1e-12)


class WildShadowing(LinkConfig):
    shadow_sigma_db = 30.0


def test_heavy_tail_flag_trips_on_wild_shadowing():
    cfg = WildShadowing(m_rx=2, n_users=1, snr=100.0, rate=2.0)
    rng = derive_rng(1012, "heavy")
    g = gain_for(cfg, ReceiverSpec("wl", "zf"), 50_000, rng)
    assert g.heavy_tail is True


# ---------------------------------------------------------------------------
# Exact moments under PPC
# ---------------------------------------------------------------------------

# Every (family, M, N) with M, N <= 8 that the receivers separate, and the
# rates whose thresholds the closed forms are checked at.
ORACLE_DOMAIN = [(family, m, n) for family in ("wl", "cl") for m in range(1, 9)
                 for n in range(1, min(8, DIMS[family] * m) + 1)]
ORACLE_RATES = (0.3, 1.0, 2.0, 4.0)


def worst_relative_error(pairs):
    """The largest |got/want - 1| over (case, got, want), with its case."""
    return max((abs(got / want - 1.0), case) for case, got, want in pairs)


def test_haar_min_moments_match_the_oracle():
    pairs = []
    for family, m, n in ORACLE_DOMAIN:
        d = diversity_order(m, n, family)
        pairs.append(((family, n, d), math.exp(_log_min_moment(family, n, d, math.inf)),
                      oracle_min_moment(family, n, d)))
        if family == "wl":
            continue
        for rate in ORACLE_RATES:
            gamma_t = threshold("cl", rate)
            if n < gamma_t + 1:         # the MMSE-SIC bracket c = 1/(gamma_T+1)
                excess = (gamma_t + 1 - n) / (gamma_t + 1)
                pairs.append(((family, n, d, rate),
                              math.exp(_log_complex_min_moment(n, d, excess)),
                              oracle_min_moment("cl", n, d, 1 / (gamma_t + 1))))
    err, case = worst_relative_error(pairs)
    assert err < 1e-12, (err, case)


def test_mmse_moments_match_the_oracle():
    pairs = []
    for family, m, n in ORACLE_DOMAIN:
        d = diversity_order(m, n, family)
        for rate in ORACLE_RATES:
            gamma_t = threshold(family, rate)
            pairs.append(((family, m, n, rate),
                          math.exp(_log_mmse_moment(family, n, d, gamma_t)),
                          oracle_mmse_moment(family, m, n, gamma_t)))
    err, case = worst_relative_error(pairs)
    assert err < 1e-12, (err, case)


def oracle_mmse_sic_moment(family, m, n, rate):
    """E[(min_n v_n^2 c_n)_+^d], c_n = 1 - eta_n/gamma_T, by mpmath nested
    quadrature over the beta-prime density of eta itself: E[S^d]^-1 times
    the integral of d t^(d-1) P(g_n^2 c_n > t)^N, over t = 2 u^2 for WL so
    that P(g_n^2 c_n > t) = E erfc(u/sqrt(c_n)) has no square root at 0."""
    mp = pytest.importorskip("mpmath")
    dim = DIMS[family]
    with mp.workdps(15):
        g = mp.mpf(threshold(family, rate))
        d = mp.mpf(dim * m - n + 1) / dim
        a, b = mp.mpf(n - 1) / dim, d + mp.mpf(1) / dim
        law = lambda e: e ** (a - 1) * (1 + e) ** (-a - b) / mp.beta(a, b)
        if family == "wl":
            phi = lambda u: mp.quad(lambda e: law(e) * mp.erfc(u / mp.sqrt(1 - e / g)), [0, g])
            f = lambda u: 4 * d * u * (2 * u * u) ** (d - 1) * phi(u) ** n
            e_sd = 2 ** d * mp.gamma(mp.mpf(n) / 2 + d) / mp.gamma(mp.mpf(n) / 2)
        else:
            phi = lambda t: mp.quad(lambda e: law(e) * mp.exp(-t / (1 - e / g)), [0, g])
            f = lambda t: d * t ** (d - 1) * phi(t) ** n
            e_sd = mp.gamma(n + d) / mp.gamma(n)
        return float(mp.quad(f, [0, 1, mp.inf]) / e_sd)


@pytest.mark.parametrize("family, m, n, rate", [("cl", 2, 2, 0.3), ("wl", 2, 3, 0.3)])
def test_mmse_sic_moment_matches_the_oracle(family, m, n, rate):
    d, gamma_t = diversity_order(m, n, family), threshold(family, rate)
    got = math.exp(_log_min_moment(family, n, d, gamma_t))
    assert got == pytest.approx(oracle_mmse_sic_moment(family, m, n, rate), rel=1e-12)


def test_mmse_sic_moments_hold_at_half_the_step(monkeypatch):
    # Every oracle case with N >= gamma_T + 1, and every oracle case at
    # gamma_T = inf (the ZF-SIC moment), against the same formula on a
    # tanh-sinh rule of half the step (outer 1/128, inner 1/32).
    cases = [(family, n, diversity_order(m, n, family), threshold(family, rate))
             for family, m, n in ORACLE_DOMAIN for rate in ORACLE_RATES
             if n >= threshold(family, rate) + 1]
    cases += [(family, n, diversity_order(m, n, family), math.inf)
              for family, m, n in ORACLE_DOMAIN]
    coarse = [_log_min_moment.__wrapped__(*case) for case in cases]
    monkeypatch.setattr(outage_analysis, "TANH_SINH_STEP",
                        outage_analysis.TANH_SINH_STEP / 2)
    fine_nodes = outage_analysis._tanh_sinh_nodes.__wrapped__()
    monkeypatch.setattr(outage_analysis, "_tanh_sinh_nodes", lambda: fine_nodes)
    err, case = max((abs(math.expm1(_log_min_moment.__wrapped__(*case) - log_w)), case)
                    for case, log_w in zip(cases, coarse))
    assert len(cases) > 100 and err < 1e-13, (err, case)


@pytest.mark.parametrize("family, n", [("wl", 2), ("wl", 5), ("cl", 2), ("cl", 5)])
def test_mmse_sic_moment_without_residual_is_the_haar_minimum(family, n):
    # As gamma_T grows every c_n tends to 1, and the moment to E[(min v_n^2)^d].
    d = 1.5
    assert math.exp(_log_min_moment(family, n, d, 1e15)) == pytest.approx(
        oracle_min_moment(family, n, d), rel=1e-12)


@pytest.mark.parametrize("family, n, rate", [("cl", 2, 0.3), ("wl", 3, 0.3)])
def test_mmse_sic_moment_matches_monte_carlo(family, n, rate):
    # w = (min_n v_n^2 (1 - eta_n/gamma_T))_+^d from the sampler's eta and
    # Haar vectors, as gain_for drew it before the moment was exact.
    cfg, count = ppc_cfg(2, n, rate), 200_000
    d, gamma_t = diversity_order(2, n, family), threshold(family, rate)
    rng = derive_rng(1020, "mmse-sic-mc", family)
    kind = "real" if family == "wl" else "complex"
    squared = np.abs(sample_haar_unit_vector(n, rng, size=count, kind=kind)) ** 2
    eta = residual_interference_samples(cfg, family, count * n, rng).reshape(count, n)
    w = np.clip(np.min(squared * (1.0 - eta / gamma_t), axis=1), 0.0, None) ** d
    exact_w = math.exp(_log_min_moment(family, n, d, gamma_t))
    assert abs(w.mean() - exact_w) < 4 * w.std(ddof=1) / math.sqrt(count)


@pytest.mark.parametrize("family, m", [("wl", 32), ("cl", 64)])
def test_exact_mmse_sic_gain_beyond_the_float_range_is_refused(family, m):
    # N = D M users at R = 0.3: the moment is about e^-2182 at d = 1/2 (WL)
    # and e^-6505 at d = 1 (CL), so C is far beyond e^700.
    cfg = ppc_cfg(m, DIMS[family] * m, 0.3)
    rng = derive_rng(0, "huge-sic")
    state = rng.bit_generator.state
    with pytest.raises(EstimateError, match="outside the float range"):
        gain_for(cfg, ReceiverSpec(family, "mmse", sic=True), 100, rng)
    assert rng.bit_generator.state == state


# (family, criterion, sic, N, rate) at M = 2: every PPC gain with an exact
# moment, MMSE-SIC on both sides of N = gamma_T + 1, then the one that stays
# sampled (WL-MMSE-SIC at N < gamma_T + 1).
EXACT_PPC = [("wl", "zf", False, 4, 2.0), ("cl", "zf", False, 2, 2.0),
             ("wl", "mmse", False, 4, 2.0), ("cl", "mmse", False, 2, 2.0),
             ("wl", "zf", True, 4, 2.0), ("cl", "zf", True, 2, 2.0),
             ("cl", "mmse", True, 2, 2.0), ("cl", "mmse", True, 2, 0.3),
             ("wl", "mmse", True, 3, 0.3)]
SAMPLED_PPC = [("wl", "mmse", True, 4, 2.0)]


@pytest.mark.parametrize("family, criterion, sic, n, rate",
                         EXACT_PPC + SAMPLED_PPC)
def test_exact_ppc_gains_draw_nothing(family, criterion, sic, n, rate):
    rng = derive_rng(1019, "draw-free")
    state = rng.bit_generator.state
    g = gain_for(ppc_cfg(2, n, rate), ReceiverSpec(family, criterion, sic),
                 1_000, rng)
    exact = (family, criterion, sic, n, rate) in EXACT_PPC
    assert (rng.bit_generator.state == state) == exact
    assert (g.stderr == 0.0) == exact


def test_exact_gain_beyond_the_float_range_is_refused():
    # CL-MMSE-SIC with N = M = 24 just above the bracket boundary N = 2^R:
    # 1 - N c is about 6e-16, so C = K [E w]^(-1/d) is about e^842.
    cfg = ppc_cfg(24, 24, math.log2(24) + 1e-15)
    with pytest.raises(EstimateError, match="outside the float range"):
        gain_for(cfg, ReceiverSpec("cl", "mmse", sic=True), 100, derive_rng(0, "huge"))


@pytest.mark.parametrize("label, n", [("wl-zf", 1), ("wl-mmse", 2), ("cl-zf", 2)])
def test_sampled_gain_whose_moment_overflows_is_refused(label, n):
    # Without power control at M = 24, xi^-d overflows a float for some of
    # 2000 samples: the moment is refused, with no warning on the way.
    family, criterion = label.split("-")
    cfg = LinkConfig(m_rx=24, n_users=n, snr=1.0, rate=2.0)
    with pytest.raises(EstimateError, match="moment estimate overflows a float"):
        gain_for(cfg, ReceiverSpec(family, criterion), 2_000,
                 derive_rng(1019, "overflow", label))


def test_sampled_gain_outside_the_float_range_is_refused():
    # A finite moment of 1e-300 at d = 1/2 gives C = 1e600.
    with pytest.raises(EstimateError, match="outside the float range"):
        _gain(0.5, 1.0, np.full(4, 1e-300))


def test_sampled_gain_stderr_survives_samples_whose_squares_overflow():
    # At M = 16 the samples xi^-16 reach about 1e300 and their squares
    # overflow, but C and its stderr are formed from w / E w.
    cfg = LinkConfig(m_rx=16, n_users=1, snr=1.0, rate=2.0)
    g = gain_for(cfg, ReceiverSpec("wl", "zf"), 2_000, derive_rng(1019, "squares"))
    w = sample_large_scale(cfg, 2_000, derive_rng(1019, "squares")) ** -16.0
    assert w.max() > 1e160 and np.isfinite(w.mean())
    assert g.coding_gain == pytest.approx(
        2 * (16 * math.gamma(16)) ** (1 / 16) / 15 * w.mean() ** (-1 / 16), rel=1e-14)
    rel = w / w.max()
    rel_se = rel.std(ddof=1) / rel.mean() / math.sqrt(len(w))
    assert g.stderr == pytest.approx(g.coding_gain / 16 * rel_se, rel=1e-9)


# ---------------------------------------------------------------------------
# Residual interference law
# ---------------------------------------------------------------------------

def test_residual_zero_for_single_user():
    cfg = ppc_cfg(2, 1, 2.0)
    out = residual_interference_samples(cfg, "wl", 100, derive_rng(2, "r"))
    assert np.all(out == 0)


@pytest.mark.parametrize("family, m, n, stream", [
    ("wl", 2, 3, (1013, "fwl")),
    ("cl", 3, 2, (1014, "fcl")),
    ("wl", 1, 2, (1018, "beta-prime", "wl", 1)),
    ("wl", 3, 5, (1018, "beta-prime", "wl", 3)),
    ("cl", 2, 2, (1018, "beta-prime", "cl", 2)),
    ("cl", 4, 3, (1018, "beta-prime", "cl", 4)),
])
def test_ppc_residual_follows_the_beta_prime_law(family, m, n, stream):
    """Under PPC (xi = 1) eta is BetaPrime(K/D, (D M - K + 1)/D), K = N - 1,
    the law the exact MMSE moment integrates."""
    dim, k = DIMS[family], n - 1
    eta = residual_interference_samples(ppc_cfg(m, n, 2.0), family, 40_000,
                                        derive_rng(*stream))
    law = stats.betaprime(k / dim, (dim * m - k + 1) / dim)
    assert stats.kstest(eta, law.cdf).pvalue > 0.01


def replay_residual_batch(cfg, family, b, rng):
    """One batch of the sampler's stream as (R, z, xi of the interferers).

    The documented order: the diagonal of R, then the rows of [R z] from
    the last one up, z_i before R_i,i+1 .. R_i,K-1, then the profile.
    """
    k, dim = cfg.n_users - 1, DIMS[family]
    parts = 2 // dim
    diag = np.sqrt(rng.chisquare(parts * (dim * cfg.m_rx - np.arange(k))[:, None],
                                 (k, b)))
    normals = rng.standard_normal((k * (k + 1) // 2, b, parts))
    entries = iter(normals[..., 0] if parts == 1
                   else normals[..., 0] + 1j * normals[..., 1])
    r = np.zeros((b, k, k), dtype=float if parts == 1 else complex)
    z = np.zeros((b, k), dtype=r.dtype)
    r[:, np.arange(k), np.arange(k)] = diag.T
    for i in reversed(range(k)):
        z[:, i] = next(entries)
        for j in range(i + 1, k):
            r[:, i, j] = next(entries)
    return r, z, sample_power_profile(cfg, rng, size=b)[:, 1:]


@pytest.mark.parametrize("family,n", [("wl", 2), ("wl", 3), ("wl", 4), ("cl", 2)])
@pytest.mark.parametrize("mode", ["ppc", "none"])
def test_residual_matches_an_independent_solve_on_the_same_draws(family, n, mode):
    # Replays the sampler's stream into LAPACK's general solve on each R;
    # two batches, the second a partial one.  The bound was fixed before
    # measuring: both routes are backward stable, so coef differs by about
    # eps kappa(R) ||coef||, and eta by twice that times ||coef|| / min xi;
    # 32 covers up to three interferers, complex products and the squaring.
    cfg = LinkConfig(m_rx=2, n_users=n, snr=1.0, rate=1.0, power_control=mode)
    count = RESIDUAL_BATCH + 5000
    got = residual_interference_samples(cfg, family, count, derive_rng(9, family, n))
    rng = derive_rng(9, family, n)
    for start in (0, RESIDUAL_BATCH):
        b = min(RESIDUAL_BATCH, count - start)
        r, z, xi_rest = replay_residual_batch(cfg, family, b, rng)
        coef = np.linalg.solve(r, z[:, :, None])[:, :, 0]
        square = np.abs(coef) ** 2
        expect = np.sum(square / xi_rest, axis=1)
        bound = (32.0 * np.finfo(float).eps * np.linalg.cond(r)
                 * square.sum(axis=1) / xi_rest.min(axis=1))
        assert np.all(np.abs(got[start:start + b] - expect) <= bound)


class ReplayRng:
    """Hands the sampler fixed chi-square and normal draws, in one batch."""

    def __init__(self, chi2, normals):
        self.chi2, self.normals = chi2, normals

    def chisquare(self, df, size):
        assert self.chi2.shape == size
        return self.chi2

    def standard_normal(self, size):
        assert self.normals.shape == size
        return self.normals


@pytest.mark.parametrize("family,m,n", [("wl", 2, 3), ("wl", 2, 4), ("cl", 3, 3)])
@pytest.mark.parametrize("small", ["first", "last"])
@pytest.mark.parametrize("eps", [1e-5, 1e-7])
def test_residual_matches_the_exact_oracle_on_near_singular_factors(
        family, m, n, small, eps):
    # R stacks with one diagonal entry eps times the size of the rest go
    # through the sampler's own back substitution and meet an exact
    # rational solve of the same R and z.  The bound, 1e-5 relative, was
    # fixed before measuring: the triangular solve loses about
    # kappa(R) eps_mach componentwise, never kappa(R)^2.
    rng = np.random.default_rng(61)
    k, parts, b = n - 1, 2 // DIMS[family], 40
    chi2 = rng.uniform(0.5, 4.0, (k, b))
    chi2[0 if small == "first" else k - 1] *= eps ** 2
    normals = rng.standard_normal((k * (k + 1) // 2, b, parts))
    cfg = LinkConfig(m_rx=m, n_users=n, snr=1.0, rate=1.0, power_control="ppc")
    got = residual_interference_samples(cfg, family, b, ReplayRng(chi2, normals))
    r, z, _ = replay_residual_batch(cfg, family, b, ReplayRng(chi2, normals))
    for i in range(b):
        rest = exact.as_fractions(exact.realify(r[i]))
        rhs = exact.as_fractions(exact.realify(z[i])[:, None])
        coef = [c for (c,) in exact.solve(rest, rhs)]
        expect = float(sum(c * c for c in coef))        # over xi = 1
        assert abs(got[i] - expect) <= 1e-5 * expect


@pytest.mark.parametrize("family,n", [("wl", 2), ("wl", 3), ("wl", 4), ("cl", 2)])
def test_residual_law_without_power_control(family, n):
    # Two-sample KS against eta from fresh CN(0, 1) channels by LAPACK,
    # with xi from the package's large-scale law; the threshold p > 1e-3
    # was fixed before measuring.
    cfg = LinkConfig(m_rx=2, n_users=n, snr=1.0, rate=1.0)
    count = 50_000
    got = residual_interference_samples(cfg, family, count,
                                        derive_rng(31, family, n))
    rng = derive_rng(32, family, n)
    hbar = sample_channel(2, n, rng, size=count)
    h = wl_transform(hbar) if family == "wl" else hbar
    h1, rest = h[:, :, 0], h[:, :, 1:]
    rest_h = np.swapaxes(rest.conj(), 1, 2)
    coef = np.linalg.solve(rest_h @ rest, (rest_h @ h1[:, :, None]))[:, :, 0]
    xi_rest = sample_large_scale(cfg, count * (n - 1), rng).reshape(count, n - 1)
    expect = np.sum(np.abs(coef) ** 2 / xi_rest, axis=1)
    assert stats.ks_2samp(got, expect).pvalue > 1e-3


@pytest.mark.parametrize("family,n", [("wl", 5), ("cl", 3)])
def test_residual_refuses_more_users_than_dimensions(family, n):
    cfg = LinkConfig(m_rx=2, n_users=n, snr=1.0, rate=1.0, power_control="ppc")
    with pytest.raises(ValueError):
        residual_interference_samples(cfg, family, 10, derive_rng(0, "over"))


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
