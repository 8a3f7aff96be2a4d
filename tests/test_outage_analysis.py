"""Tests for thresholds, exponents, outage simulation, and the gain formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import exact
from laws import chi2_cdf_poly_coeff, coding_gain_ratio, moment_ratio_check
from wlmimo.link_model import LinkConfig, sample_large_scale, sample_power_profile
from wlmimo.montecarlo import EstimateError, derive_rng, wilson_interval
from wlmimo.outage_analysis import (
    RESIDUAL_BATCH,
    GainSummary,
    asymptote_curve,
    diversity_order,
    gain_for,
    outage_mc,
    residual_interference_samples,
)
from wlmimo.random_matrix import sample_channel, wl_transform
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
    g = gain_for(cfg, ReceiverSpec("wl", "mmse"), 200_000, rng)
    assert g.coding_gain == pytest.approx(0.158, rel=0.05)
    assert g.coding_gain > zf_ppc_gain(cfg).coding_gain
    assert g.stderr > 0


def test_cl_mmse_gain_beats_zf():
    cfg = ppc_cfg(2, 2, 2.0)
    rng = derive_rng(1005, "cl-mmse-gain")
    g = gain_for(cfg, ReceiverSpec("cl", "mmse"), 200_000, rng)
    assert g.coding_gain > zf_ppc_gain(cfg, "cl").coding_gain
    assert g.stderr > 0


def test_mmse_gain_equals_zf_when_no_interference():
    # a lone user has no residual interference, so the bracket collapses
    cfg = ppc_cfg(2, 1, 2.0)
    for family in ("wl", "cl"):
        rng = derive_rng(1006, "single")
        zf = zf_ppc_gain(cfg, family)
        mmse = gain_for(cfg, ReceiverSpec(family, "mmse"), 2_000, rng)
        assert mmse.coding_gain == pytest.approx(zf.coding_gain, rel=1e-12)


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
    # CL, N = 2 < gamma_T + 1 at R = 1 + 1e-6: the closed bracket is the
    # exact law, but P(bracket > 0) ~ 7e-7, and 200k draws at these seeds
    # miss it.  The residual lower bound (~5.9) would be a quietly wrong C.
    rx = ReceiverSpec("cl", "mmse", sic=True)
    with pytest.raises(EstimateError, match="increase gain_trials"):
        gain_for(ppc_cfg(2, 2, 1 + 1e-6), rx, 200_000, derive_rng(seed, "x"))


@pytest.mark.parametrize("family, n, rate, value, exact", [
    ("cl", 2, 2.0, 2.020499796653929, 2.0),     # N < gamma_T + 1: closed bracket
    ("cl", 2, 0.5, 37.78291572815889, None),    # N > gamma_T + 1: residual bound
    ("wl", 3, 2.0, 1.4297844242804043, None),
    ("wl", 3, 0.3, 451.40789642560867, None),
    ("wl", 4, 2.0, 19.675181893764552, None),   # fig2's PPC WL-MMSE-SIC
])
def test_ppc_mmse_sic_keeps_its_value_away_from_the_bracket_boundary(
        family, n, rate, value, exact):
    # `value` is what the sampled bracket test gave on these draws; the
    # CL closed bracket has E[(u_min - 1/4)+] = 1/16 exactly, so C = 2.
    g = gain_for(ppc_cfg(2, n, rate), ReceiverSpec(family, "mmse", sic=True),
                 20_000, derive_rng(0, "bracket"))
    assert g.coding_gain == pytest.approx(value, rel=1e-12)
    if exact is not None:
        assert abs(g.coding_gain - exact) < 4 * g.stderr


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
    assert sic.receiver.sic


def test_heavy_tail_flag_trips_on_wild_shadowing():
    cfg = LinkConfig(m_rx=2, n_users=1, snr=100.0, rate=2.0,
                     shadow_sigma_db=30.0)
    rng = derive_rng(1012, "heavy")
    g = gain_for(cfg, ReceiverSpec("wl", "zf"), 50_000, rng)
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
    cfg = LinkConfig(m_rx=m, n_users=n, snr=1.0, rate=1.0,
                     power_control="ppc", xi_ppc=0.7)
    got = residual_interference_samples(cfg, family, b, ReplayRng(chi2, normals))
    r, z, _ = replay_residual_batch(cfg, family, b, ReplayRng(chi2, normals))
    for i in range(b):
        rest = exact.as_fractions(exact.realify(r[i]))
        rhs = exact.as_fractions(exact.realify(z[i])[:, None])
        coef = [c for (c,) in exact.solve(rest, rhs)]
        expect = float(sum(c * c for c in coef) / Fraction(0.7))
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
