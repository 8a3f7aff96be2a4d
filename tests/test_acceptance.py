"""Acceptance suite: one check per headline claim, with measured numbers.

Each test prints a single ``PASS``/``FAIL`` line (run with ``-s`` to see
them; failures carry the same line in the assertion message).  Checks are
sized so statistical ones sit several standard errors clear of their
thresholds at the fixed seed.

The widely linear zero-forcing outage decays with exponent M - (N-1)/2,
half the chi-square degrees of freedom 2M - N + 1 of its SINR.  An earlier
version of this suite required 2M - (N-1)/2 (2.5 at M=2, N=4), which no
simulation can meet and which contradicts the paper: its abstract says WL
and CL reach the same diversity when WL serves nearly twice the users, and
with CL-ZF at M - N + 1 that forces WL-ZF(2N-1) = M - N + 1, i.e.
WL-ZF(N) = M - (N-1)/2.  At N = 1 the old value would even exceed M, the
most M Rayleigh receive antennas can give.  The chi-square law checks
below and the WL(2N-1) = CL(N) relation confirm the corrected value.
"""

import csv
import filecmp
import math
import time

import numpy as np
import pytest
from scipy import stats

from laws import coding_gain_ratio, fit_diversity, moment_ratio_check
from wlmimo.cli import ExperimentConfig, run
from wlmimo.link_model import LinkConfig
from wlmimo.montecarlo import derive_rng
from wlmimo.outage_analysis import (
    asymptote_curve,
    diversity_order,
    gain_for,
    outage_mc,
    residual_interference_samples,
)
from wlmimo.random_matrix import sample_channel, wl_transform
from wlmimo.receivers import ReceiverSpec, batched_tagged_sinr
from wlmimo.wishart_asymptotics import (
    beta1,
    diversity_exponent,
    sample_kth_eigenvalue,
)

SEED = 90210


def report(ok: bool, label: str, detail: str) -> str:
    line = f"{label}: {detail}"
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    return line


# ---------------------------------------------------------------------------
# Ordered-eigenvalue tails
# ---------------------------------------------------------------------------

EIG_CASES = ((1, 2, 4), (1, 3, 6), (1, 4, 4), (2, 2, 2))


def test_eigenvalue_tail_slopes_and_intercepts():
    t0 = time.perf_counter()
    ok = True
    parts = []
    trials = 1_000_000
    for k, n, m in EIG_CASES:
        rng = derive_rng(SEED, "eig-tail", k, n, m)
        d = diversity_exponent(k, n, m)
        # The quantiles up to 1e-2 read only the lowest samples, as in fig1.
        lowest = int(1e-2 * (trials - 1)) + 3
        low = sample_kth_eigenvalue(k, n, m, trials, rng, lowest)
        lam = np.concatenate([low, np.full(trials - lowest, np.inf)])
        eps = np.quantile(lam, np.logspace(-4, -2, 8))
        cdf = np.searchsorted(lam, eps, side="right") / lam.size
        slope = float(np.polyfit(np.log(eps), np.log(cdf), 1)[0])
        case_ok = abs(slope - d) <= 0.15
        msg = f"lambda_{k} of {n}x{m}: slope {slope:.3f} (want {d}+/-0.15)"
        if k == 1:
            c_hat = math.exp(float(np.mean(np.log(cdf) - d * np.log(eps))))
            ref = beta1(n, m)
            case_ok = case_ok and abs(c_hat / ref - 1.0) <= 0.10
            msg += f", intercept {c_hat:.4f} (want {ref:.4f}+/-10%)"
        ok = ok and case_ok
        parts.append(msg)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 300.0
    line = report(ok, "eigenvalue tails",
                  "; ".join(parts) + f"; {elapsed:.1f}s of 300s budget")
    assert ok, line


# ---------------------------------------------------------------------------
# Finite-SNR distribution laws
# ---------------------------------------------------------------------------

def test_sinr_component_distribution_laws():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for m, n in ((2, 2), (2, 4)):
        rng = derive_rng(SEED, "laws", m, n)
        snr = 50.0
        h = wl_transform(sample_channel(m, n, rng, size=100_000))
        g = batched_tagged_sinr(h, np.ones((len(h), n)), snr, ReceiverSpec("wl", "zf"))
        p_chi = stats.kstest(g / snr, "chi2", args=(2 * m - n + 1,)).pvalue
        cfg = LinkConfig(m, n, 1.0, 2.0, power_control="ppc")
        eta = residual_interference_samples(cfg, "wl", 100_000, rng)
        scale = (2 * m - n + 2) / (n - 1)
        p_f = stats.kstest(scale * eta, "f",
                           args=(n - 1, 2 * m - n + 2)).pvalue
        ok = ok and min(p_chi, p_f) > 1e-3
        parts.append(f"M={m},N={n}: KS p(chi2_{2 * m - n + 1})={p_chi:.3f}, "
                     f"p(F_{n - 1},{2 * m - n + 2})={p_f:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    line = report(ok, "SINR distribution laws",
                  "; ".join(parts) + f" (floor 1e-3); "
                  f"{elapsed:.1f}s of 60s budget")
    assert ok, line


# ---------------------------------------------------------------------------
# Outage curve against its asymptote (shared million-trial sweep)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wl_zf_outage_curve():
    cfg = LinkConfig(2, 4, 1.0, 2.0, power_control="ppc")
    gain = gain_for(cfg, ReceiverSpec("wl", "zf"), 1_000_000,
                    derive_rng(SEED, "wl-zf-gain"))
    grid = np.arange(28.0, 51.0, 2.5)
    rng = derive_rng(SEED, "wl-zf-curve")
    t0 = time.perf_counter()
    curve = outage_mc(ReceiverSpec("wl", "zf"), cfg, grid,
                      trials=1_000_000, rng=rng)
    return curve, asymptote_curve(gain, grid), time.perf_counter() - t0


def test_outage_simulation_tracks_asymptote(wl_zf_outage_curve):
    curve, p_asym, elapsed = wl_zf_outage_curve
    p_out = curve.events / curve.trials
    band = (p_out >= 1e-2) & (p_out <= 1e-1)
    ratios = p_out[band] / p_asym[band]
    ok = (int(band.sum()) >= 3
          and bool(np.all((ratios >= 1 / 1.5) & (ratios <= 1.5)))
          and elapsed <= 1200.0)
    line = report(ok, "outage vs asymptote",
                  f"M=2,N=4,R=2,PPC WL-ZF: {int(band.sum())} grid points "
                  f"with p in [1e-2,1e-1], sim/asym in "
                  f"[{ratios.min():.3f},{ratios.max():.3f}] (allowed "
                  f"[0.667,1.5]); {elapsed:.0f}s of 1200s budget")
    assert ok, line


def test_wl_outage_decay_matches_claimed_exponent(wl_zf_outage_curve):
    # The WL-ZF SINR over snr is chi-square with 2M - N + 1 degrees of
    # freedom (test_sinr_component_distribution_laws), whose CDF goes as
    # x^((2M - N + 1)/2) near 0; so the outage exponent is M - (N-1)/2.  It
    # is the only law under which WL(2N-1 users) = CL(N users)
    # (test_decay_order_relations), the paper's "same diversity with nearly
    # double the users"; the former 2M - (N-1)/2 exceeds M at N = 1.
    curve, _, _ = wl_zf_outage_curve
    fit = fit_diversity(curve.snr_db, curve.events / curve.trials,
                        trials=curve.trials)
    m, n = 2, 4
    expected = (2 * m - n + 1) / 2
    assert diversity_order(m, n, "wl") == expected
    ok = abs(fit.d_hat - expected) <= 0.15
    line = report(ok, "WL-ZF decay exponent",
                  f"law (2M-N+1)/2 = M-(N-1)/2 = {expected} +/- 0.15 at "
                  f"M={m},N={n}, half the chi-square degrees of freedom "
                  f"of the SINR; fitted d_hat = {fit.d_hat:.3f}")
    assert ok, line


# ---------------------------------------------------------------------------
# Rate law for the ZF gain ratio, and decay-order relations
# ---------------------------------------------------------------------------

def test_zf_gain_ratio_follows_rate_law():
    ok = True
    parts = []
    for rate in (0.3, 2.0, 4.0):
        wl = gain_for(LinkConfig(2, 3, 1.0, rate, power_control="ppc"),
                      ReceiverSpec("wl", "zf"), 1_000_000,
                      derive_rng(SEED, "gain-ratio", "wl", str(rate)))
        cl = gain_for(LinkConfig(2, 2, 1.0, rate, power_control="ppc"),
                      ReceiverSpec("cl", "zf"), 1_000_000,
                      derive_rng(SEED, "gain-ratio", "cl", str(rate)))
        assert wl.diversity == cl.diversity == 1.0
        assert wl.stderr == cl.stderr == 0.0  # both exact under PPC
        ratio = wl.coding_gain / cl.coding_gain
        want = coding_gain_ratio(rate)
        ok = ok and math.isclose(ratio, want, rel_tol=1e-12)
        parts.append(f"R={rate}: {ratio:.6f} vs {want:.6f}")
    line = report(ok, "ZF gain ratio rate law",
                  "WL(N=3)/CL(N=2) at M=2, exact to 1e-12: "
                  + "; ".join(parts))
    assert ok, line


def test_decay_order_relations():
    ok = True
    for m in range(1, 5):
        for n_cl in range(1, m + 1):
            d_cl = diversity_order(m, n_cl, "cl")
            ok = ok and diversity_order(m, 2 * n_cl - 1, "wl") == d_cl
            d_wl = diversity_order(m, n_cl, "wl")
            ok = ok and d_wl >= d_cl
            if n_cl >= 2:
                ok = ok and d_wl > d_cl
        for n in range(m + 1, 2 * m + 1):
            ok = ok and diversity_order(m, n, "wl") > 0
    line = report(ok, "decay order relations",
                  "over M=1..4: WL(2N-1 users) = CL(N users) exactly, "
                  "WL >= CL at equal load (strict for N >= 2), and WL "
                  "stays positive up to 2M users")
    assert ok, line


# ---------------------------------------------------------------------------
# Interference cancellation
# ---------------------------------------------------------------------------

def test_zf_sic_keeps_slope_and_lifts_gain():
    cfg = LinkConfig(2, 4, 1.0, 2.0, power_control="ppc")
    grid = np.arange(30.0, 49.0, 3.0)
    fits = {}
    for sic in (False, True):
        rx = ReceiverSpec("wl", "zf", sic=sic)
        rng = derive_rng(SEED, "sic-curve", int(sic))
        curve = outage_mc(rx, cfg, grid, trials=400_000, rng=rng)
        fits[sic] = fit_diversity(curve.snr_db, curve.events / curve.trials,
                                  trials=curve.trials)
    shift_db = 10.0 * math.log10(fits[True].c_hat / fits[False].c_hat)
    ok = (abs(fits[True].d_hat - fits[False].d_hat) <= 0.15
          and shift_db >= 0.5)
    line = report(ok, "ZF-SIC vs ZF",
                  f"M=2,N=4,R=2,PPC: d_hat {fits[True].d_hat:.3f} vs "
                  f"{fits[False].d_hat:.3f} (equal to 0.15), gain shift "
                  f"{shift_db:.2f} dB (need >= 0.5)")
    assert ok, line


def test_sic_gain_ratio_trend_at_low_rate():
    rate = 0.3
    cap = 2.0 * coding_gain_ratio(rate)
    floors, ratios = [], []
    for n_cl in (2, 3, 4):
        m = n_cl
        wl = gain_for(LinkConfig(m, 2 * n_cl - 1, 1.0, rate,
                                 power_control="ppc"),
                      ReceiverSpec("wl", "zf", sic=True), trials=200_000,
                      rng=derive_rng(SEED, "sic-ratio", "wl", n_cl))
        cl = gain_for(LinkConfig(m, n_cl, 1.0, rate, power_control="ppc"),
                      ReceiverSpec("cl", "zf", sic=True), trials=200_000,
                      rng=derive_rng(SEED, "sic-ratio", "cl", n_cl))
        assert wl.diversity == cl.diversity == 1.0
        floors.append(coding_gain_ratio(rate) * (2 * n_cl - 1) / n_cl)
        ratios.append(wl.coding_gain / cl.coding_gain)
    ok = all(r > 1.0 and r >= f for r, f in zip(ratios, floors))
    ok = ok and floors[0] < floors[1] < floors[2] < cap
    line = report(
        ok, "SIC gain ratio trend",
        f"R=0.3, N_cl=2..4 at full CL load: measured "
        f"{'/'.join(f'{r:.2f}' for r in ratios)} vs floors "
        f"{'/'.join(f'{f:.2f}' for f in floors)} rising toward {cap:.2f}")
    assert ok, line


# ---------------------------------------------------------------------------
# Extreme-entry moment identities
# ---------------------------------------------------------------------------

def test_extreme_entry_moment_identities():
    ok = True
    parts = []
    for n, d in ((2, 1.0), (3, 2.0)):
        mr = moment_ratio_check("cl", n, d, 1_000_000,
                                derive_rng(SEED, "moment-cl", n))
        ok = ok and mr.reference == n ** d
        ok = ok and abs(mr.ratio - mr.reference) <= 3.0 * mr.stderr
        parts.append(f"complex N={n},d={d:g}: {mr.ratio:.4f} vs "
                     f"{mr.reference:g} (3se={3 * mr.stderr:.4f})")
    kappas = []
    for n in (4, 8, 16):
        mr = moment_ratio_check("wl", n, 1.0, 1_000_000,
                                derive_rng(SEED, "moment-wl", n))
        kappas.append(mr.ratio / mr.reference)
    ok = ok and kappas[2] >= 0.8 and kappas[0] < kappas[1] < kappas[2]
    parts.append("real d=1 ratio/N at N=4/8/16: "
                 + "/".join(f"{k:.2f}" for k in kappas)
                 + " (need >= 0.8 at N=16, increasing)")
    line = report(ok, "extreme-entry moments", "; ".join(parts))
    assert ok, line


# ---------------------------------------------------------------------------
# Machine-type traffic capacity ordering
# ---------------------------------------------------------------------------

USER_GRID = tuple(int(round(250 * 2 ** (k / 2))) for k in range(19))


@pytest.mark.parametrize("m_rx", [1, 2])
def test_mmtc_supported_user_ordering(m_rx, tmp_path):
    # Runs the CLI's fig4 sweep; every grid point's MmtcResult enforces
    # packet conservation as it is built.
    t0 = time.perf_counter()
    run(ExperimentConfig("fig4-mmtc-drop", seed=SEED, out_dir=str(tmp_path),
                         options={"m_rx": [m_rx], "user_grid": list(USER_GRID),
                                  "ttis": 20_000}))
    supported = {}
    for tag in ("wl", "cl", "cl-half"):
        with open(tmp_path / f"fig4-{tag}-m{m_rx}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["users"]) for r in rows] == list(USER_GRID)
        supported[tag] = max((int(r["users"]) for r in rows
                              if float(r["ci_hi"]) <= 0.01), default=0)
    wl, half, cl = supported["wl"], supported["cl-half"], supported["cl"]
    elapsed = time.perf_counter() - t0
    ok = wl > half > cl > 0 and elapsed <= 600.0
    line = report(ok, f"mMTC supported users (M={m_rx})",
                  f"1% drop target: WL {wl} > CL half-TTI {half} > CL "
                  f"{cl}; conservation held at every grid "
                  f"point; {elapsed:.0f}s of 600s budget")
    assert ok, line


# ---------------------------------------------------------------------------
# Reproducibility of experiment outputs
# ---------------------------------------------------------------------------

def test_experiment_outputs_are_deterministic(tmp_path):
    dirs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        run(ExperimentConfig("fig1-eig-cdf", seed=7, trials=20_000,
                             out_dir=str(out)))
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    same_names = names == sorted(p.name for p in dirs[1].iterdir())
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                           shallow=False)
    ok = same_names and not mismatch and not errors
    line = report(ok, "deterministic outputs",
                  f"two runs of the same config wrote {len(names)} "
                  f"byte-identical files")
    assert ok, line
