"""Correctness checks behind `error_rate`.

Each check compares one CSV curve or table with something that is neither
the code path being timed nor the random stream that produced it:

* ZF outage curves: the exact law, a scaled chi-square with 2M-N+1 degrees
  of freedom (WL) or Gamma(M-N+1) (CL), averaged over xi drawn with the
  package's own `sample_large_scale`;
* MMSE and SIC outage curves: the seed reference's outage table, a direct
  Monte Carlo through the per-draw dual-route reference functions
  (`zf_sinr`, `mmse_sinr`, `cl_sinr`, `sic_sinr_stages`), compared with
  Fisher's exact test; on a few hundred fresh draws `batched_tagged_sinr`
  must also equal the reference SINRs draw by draw;
* coding gains: ZF under perfect power control must equal the closed form,
  the other PPC gains must lie within their Monte Carlo error of the seed
  reference, and every asymptote must decay with the exact diversity;
* Wishart eigenvalue CDFs: an independent eigenvalue Monte Carlo, and the
  seed's beta_1 for the k = 1 asymptote;
* mMTC drop probability and throughput: the per-packet law, collision size
  1 + Binomial(users - 1, p_tx / tones) with the chi-square/Gamma outage
  for that size.

A check never compares bytes: a change may alter the random streams.  Byte
equality with the seed is reported separately, as `cli.csv_changed`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special, stats

from workloads import FIG1_CASES, FIG3_PANELS, MMTC_SCENARIOS, Workload

# Z: standard errors allowed on a reference value before it counts as
# different (coding gains, and the law's own Monte Carlo error).  ALPHA:
# binomial tail probability below which a count is implausible.  A correct
# point fails with probability about 1e-7, so the few thousand points of a
# run stay clean, while a curve scaled by 1.5 still fails on its
# well-sampled points.
Z = 5.0
ALPHA = 1e-7
EXACT_RTOL = 1e-12     # closed form vs CSV, both in float64
SLOPE_RTOL = 1e-9      # every asymptote point must give the same coding gain
KERNEL_RTOL = 1e-6     # batched kernel vs per-draw reference SINR
BETA1_RTOL = 1e-6
XI_BINS = 4000         # log10(xi) histogram the outage laws are averaged over
REF_POINTS = 3         # leading SNR points of the reference outage table and kernel check


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by `wlmimo.cli`; numbers as float arrays."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        values = [r[j] for r in body]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = np.array(values)
    return cols


def wilson(count, n: float, z: float = Z):
    """Wilson score interval; the package's `wilson_interval` is a timed layer."""
    count = np.asarray(count, dtype=float)
    p = count / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z / denom * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return np.clip(centre - half, 0.0, 1.0), np.clip(centre + half, 0.0, 1.0)


def plausible(count, n: float, p_lo, p_hi, alpha: float = ALPHA) -> np.ndarray:
    """False where `count` events in `n` trials are implausible for every p in [p_lo, p_hi].

    Exact binomial tails, P(X >= c | p_hi) and P(X <= c | p_lo), through the
    regularized incomplete beta function, which also takes non-integer counts.
    """
    c = np.asarray(count, dtype=float)
    p_lo = np.clip(p_lo, 0.0, 1.0)
    p_hi = np.clip(p_hi, 0.0, 1.0)
    tiny = 1e-300
    upper = np.where(c <= 0, 1.0, special.betainc(np.maximum(c, tiny),
                                                  np.maximum(n - c + 1, tiny), p_hi))
    lower = np.where(c >= n, 1.0, 1.0 - special.betainc(c + 1, np.maximum(n - c, tiny), p_lo))
    return (upper >= alpha) & (lower >= alpha)


def poisson_plausible(count, mu_lo, mu_hi, alpha: float = ALPHA) -> np.ndarray:
    """False where `count` is implausible for every Poisson mean in [mu_lo, mu_hi].

    Poisson tails through the regularized incomplete gamma functions, which
    also take non-integer counts.  Their variance bounds the binomial one.
    """
    c = np.asarray(count, dtype=float)
    upper = np.where(c <= 0, 1.0, special.gammainc(np.maximum(c, 1e-300), mu_hi))
    lower = special.gammaincc(c + 1, np.maximum(mu_lo, 0.0))
    return (upper >= alpha) & (lower >= alpha)


def log_xi_histogram(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bin centres of log10 xi, probability of each bin) for averaging a law over xi."""
    counts, edges = np.histogram(np.log10(xi), bins=XI_BINS)
    return 0.5 * (edges[:-1] + edges[1:]), counts / len(xi)


def average(f: np.ndarray, weights: np.ndarray, draws: int):
    """Mean of f over the xi histogram (last axis) and its Monte Carlo standard error."""
    mean = f @ weights
    var = np.maximum((f * f) @ weights - mean * mean, 0.0)
    return mean, np.sqrt(var / draws)


def threshold(family: str, rate: float) -> float:
    return 2.0 ** (2.0 * rate) - 1.0 if family == "wl" else 2.0 ** rate - 1.0


def diversity(family: str, m: int, n: int) -> float:
    return m - (n - 1) / 2.0 if family == "wl" else float(m - n + 1)


def zf_cdf(family: str, m: int, n: int, x):
    """P(SINR / (snr xi) < x) for the ZF receiver: the exact chi-square/Gamma law."""
    if family == "wl":
        return stats.chi2.cdf(x, 2 * m - n + 1)
    return stats.gamma.cdf(x, m - n + 1)


def zf_ppc_gain(family: str, m: int, n: int, rate: float, xi_ppc: float = 1.0) -> float:
    """Closed-form ZF coding gain under perfect power control."""
    d = diversity(family, m, n)
    pre = (d * math.gamma(d)) ** (1.0 / d) / threshold(family, rate)
    return (2.0 * pre if family == "wl" else pre) * xi_ppc


def gain_key(label: str, m: int, n: int, rate: float, mode: str) -> str:
    return f"{label} m{m} n{n} r{rate:g} {mode}"


def check_asymptote(p_asym, snr_db, label: str, m: int, n: int, rate: float,
                    mode: str, gain_trials: int, reference: dict) -> str:
    """'' if p_asym = (C snr)^-d with the exact d and an acceptable C."""
    family = label.split("-")[0]
    d = diversity(family, m, n)
    with np.errstate(all="ignore"):
        c = np.asarray(p_asym, dtype=float) ** (-1.0 / d) / 10.0 ** (np.asarray(snr_db) / 10.0)
    if not np.all(np.isfinite(c) & (c > 0)):
        return "asymptote is not positive and finite"
    if np.max(np.abs(c / c[0] - 1.0)) > SLOPE_RTOL:
        return f"asymptote does not decay as snr^-{d}"
    if mode != "ppc":
        # No power control: the moments are heavy-tailed estimates without a
        # trustworthy error bar; values above 1 are counted, not failed.
        return ""
    if label in ("wl-zf", "cl-zf"):
        exact = zf_ppc_gain(family, m, n, rate)
        if abs(c[0] / exact - 1.0) > EXACT_RTOL:
            return f"ZF-PPC coding gain {c[0]!r} != closed form {exact!r}"
        return ""
    # C is a constant times E{w}^(-1/d) for a Monte Carlo moment E{w} >= 0
    # that can rest on few nonzero samples, so compare the moment, as a
    # Poisson count with the moment estimate's relative variance.
    ref = reference["gains"][gain_key(label, m, n, rate, mode)]
    rel = d * ref["sd"] / ref["coding_gain"]      # per-sample relative sd of E{w}
    events = gain_trials / rel ** 2
    count = events * (c[0] / ref["coding_gain"]) ** (-d)
    spread = Z * rel / math.sqrt(ref["samples"])  # the reference's own error
    if not poisson_plausible(count, events * (1 - spread), events * (1 + spread)):
        return (f"coding gain {c[0]:.6g} implausible against the reference "
                f"{ref['coding_gain']:.6g}")
    return ""


# ---------------------------------------------------------------------------
# Outage workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    file: str
    label: str
    m: int
    n: int
    rate: float
    mode: str
    trials: int
    snr_db: np.ndarray
    gain_trials: int

    @property
    def family(self) -> str:
        return self.label.split("-")[0]

    @property
    def rx(self):
        from wlmimo.cli import parse_receiver

        return parse_receiver(self.label)


def outage_curves(workload: Workload) -> list[Curve]:
    curves = []
    for exp in workload.experiments:
        o = exp.options
        modes = o["power_control"] if exp.name == "fig2-wl-outage" else [o["power_control"]]
        prefix = "fig2" if exp.name == "fig2-wl-outage" else "custom"
        for mode in modes:
            for label in o["receivers"]:
                curves.append(Curve(f"{prefix}-{mode}-{label}.csv", label, o["m_rx"],
                                    o["n_users"], o["rate"], mode, exp.trials,
                                    np.asarray(o["snr_db"], dtype=float),
                                    o["gain_trials"]))
    return curves


def sample_xi(curve: Curve, count: int, rng) -> np.ndarray:
    """Large-scale gains xi of `count` users, drawn with the package's own sampler."""
    from wlmimo.link_model import LinkConfig, sample_large_scale

    if curve.mode == "ppc":
        return np.ones(count)
    cfg = LinkConfig(m_rx=curve.m, n_users=curve.n, snr=1.0, rate=curve.rate,
                     power_control=curve.mode)
    return sample_large_scale(cfg, count, rng)


def sample_draws(curve: Curve, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(h, xi) of `k` draws: the stacked real channel for WL, the complex one for CL."""
    hbar = (rng.standard_normal((k, curve.m, curve.n))
            + 1j * rng.standard_normal((k, curve.m, curve.n))) * math.sqrt(0.5)
    h = np.concatenate([hbar.real, hbar.imag], axis=1) if curve.family == "wl" else hbar
    return h, sample_xi(curve, k * curve.n, rng).reshape(k, curve.n)


def reference_sinr(curve: Curve, h: np.ndarray, xi: np.ndarray, snr: float) -> np.ndarray:
    """User 0's SINR of each draw through the per-draw dual-route reference functions.

    NaN where the reference refuses the draw: on an ill-conditioned channel
    its two routes disagree beyond their tolerance and it raises.
    """
    from wlmimo.receivers import cl_sinr, mmse_sinr, sic_sinr_stages, zf_sinr

    rx = curve.rx
    out = np.full(len(h), np.nan)
    for i in range(len(h)):
        try:
            if rx.sic:
                out[i] = sic_sinr_stages(h[i], xi[i], snr, rx).sinr[0]
            elif rx.family == "cl":
                out[i] = cl_sinr(h[i], xi[i], snr, rx.criterion, n=0)
            else:
                out[i] = (zf_sinr if rx.criterion == "zf" else mmse_sinr)(h[i], xi[i], snr, n=0)
        except (ArithmeticError, np.linalg.LinAlgError):
            pass
    return out


def fisher_plausible(count, n: int, ref_count, ref_n: int, alpha: float = ALPHA) -> np.ndarray:
    """False where `count` of `n` and `ref_count` of `ref_n` cannot share one p.

    Fisher's exact test: given the total, the first count is hypergeometric
    under a common p; both tails must stay above `alpha`.
    """
    c = np.asarray(count, dtype=int)
    total = c + np.asarray(ref_count, dtype=int)
    upper = stats.hypergeom.sf(c - 1, n + ref_n, total, n)
    lower = stats.hypergeom.cdf(c, n + ref_n, total, n)
    return (upper >= alpha) & (lower >= alpha)


class OutageChecks:
    def __init__(self, workload: Workload, reference: dict, seed: int,
                 ref_draws: int = 400, xi_draws: int = 4_000_000):
        self.curves = outage_curves(workload)
        self.reference = reference
        self.rng = np.random.default_rng([seed, 0xC4EC])
        self.ref_draws = ref_draws
        self.xi_draws = xi_draws
        self.zf_law = {}      # file -> (p_lo, p_hi) per SNR point
        self.kernel = {}      # file -> '' or a kernel disagreement

    def prepare(self) -> None:
        for curve in self.curves:
            if curve.label in ("wl-zf", "cl-zf"):
                p, sd = self._zf_law(curve)
                self.zf_law[curve.file] = (p - Z * sd, p + Z * sd)
            else:
                table = self.reference["outage"][curve.file]
                if table["snr_db"] != curve.snr_db[:REF_POINTS].tolist():
                    raise ValueError(f"seed reference outage table of {curve.file} is for "
                                     "another SNR grid; rerun make_reference.py")
            self.kernel[curve.file] = self._kernel(curve)

    def _zf_law(self, curve: Curve):
        """Outage of the exact ZF law per SNR point, averaged over xi, and its MC error."""
        snr = 10.0 ** (curve.snr_db / 10.0)
        gamma_t = threshold(curve.family, curve.rate)
        if curve.mode == "ppc":
            return zf_cdf(curve.family, curve.m, curve.n, gamma_t / snr), np.zeros(len(snr))
        log_xi, weights = log_xi_histogram(sample_xi(curve, self.xi_draws, self.rng))
        x = gamma_t / (snr[:, None] * 10.0 ** log_xi[None, :])
        return average(zf_cdf(curve.family, curve.m, curve.n, x), weights, self.xi_draws)

    def _kernel(self, curve: Curve) -> str:
        """'' if `batched_tagged_sinr` equals the reference SINRs draw by draw.

        A draw the reference refuses has no reference value to compare with.
        """
        from wlmimo.receivers import batched_tagged_sinr

        h, xi = sample_draws(curve, self.ref_draws, self.rng)
        for point_db in curve.snr_db[:REF_POINTS]:
            snr = 10.0 ** (point_db / 10.0)
            ref = reference_sinr(curve, h, xi, snr)
            try:
                batched = batched_tagged_sinr(h, xi, snr, curve.rx)
            except (ArithmeticError, np.linalg.LinAlgError) as exc:
                return f"batched_tagged_sinr raised {exc!r} at {point_db} dB"
            ok = np.isnan(ref) | np.isclose(batched, ref, rtol=KERNEL_RTOL, atol=1e-12)
            if not ok.all():
                worst = int(np.argmin(ok))
                return (f"batched_tagged_sinr {batched[worst]!r} != reference "
                        f"{ref[worst]!r} at {point_db} dB")
        return ""

    def check(self, out_dir: Path) -> dict[str, str]:
        return {c.file: self._check_curve(c, out_dir / c.file) for c in self.curves}

    def _check_curve(self, curve: Curve, path: Path) -> str:
        if not path.is_file():
            return "missing"
        cols = read_csv(path)
        t = curve.trials
        p = cols.get("p_out")
        if p is None or "p_asym" not in cols or not np.array_equal(cols["snr_db"], curve.snr_db):
            return "unexpected columns or SNR grid"
        if np.any((p < 0) | (p > 1)) or np.any(cols["ci_lo"] > p) or np.any(p > cols["ci_hi"]):
            return "p_out outside [0, 1] or outside its own interval"
        count = p * t
        if np.max(np.abs(count - np.round(count))) > 1e-6:
            return "p_out is not a count over the trial number"
        if self.kernel.get(curve.file):
            return self.kernel[curve.file]
        if curve.file in self.zf_law:
            p_lo, p_hi = self.zf_law[curve.file]
            ok = plausible(np.round(count), t, p_lo, p_hi)
            against = "the exact law"
        else:
            table = self.reference["outage"][curve.file]
            ok = fisher_plausible(np.round(count[:REF_POINTS]), t,
                                  table["outages"], table["draws"])
            against = "the seed reference outage table"
        if not ok.all():
            i = int(np.argmin(ok))
            return f"p_out {p[i]:.6g} at {curve.snr_db[i]} dB implausible against {against}"
        return check_asymptote(cols["p_asym"], curve.snr_db, curve.label, curve.m,
                               curve.n, curve.rate, curve.mode, curve.gain_trials,
                               self.reference)


# ---------------------------------------------------------------------------
# Asymptotics workload
# ---------------------------------------------------------------------------

class AsymptoticsChecks:
    def __init__(self, workload: Workload, reference: dict, seed: int,
                 eig_draws: int = 200_000):
        fig1, fig3 = workload.experiments
        self.eig_trials = fig1.trials
        self.points = fig1.options["points"]
        self.snr_db = np.asarray(fig3.options["snr_db"], dtype=float)
        self.m = fig3.options["m_rx"]
        self.gain_trials = fig3.options["gain_trials"]
        self.reference = reference
        self.rng = np.random.default_rng([seed, 0xE16])
        self.eig_draws = eig_draws
        self.eigs = {}
        self.fig1 = {f"fig1-k{k}-n{n}-m{m}.csv": (k, n, m) for k, n, m in FIG1_CASES}
        self.fig3 = {}
        for panel, n_wl, n_cl, rate in FIG3_PANELS:
            for family, n in (("wl", n_wl), ("cl", n_cl)):
                for label in ("zf", "mmse", "zf-sic", "mmse-sic"):
                    name = f"{family}-{label}"
                    self.fig3[f"fig3-{panel}-{name}.csv"] = (name, n, rate)

    def prepare(self) -> None:
        for k, n, m in FIG1_CASES:
            x = self.rng.standard_normal((self.eig_draws, n, m))
            lam = np.linalg.eigvalsh(x @ x.transpose(0, 2, 1))[:, k - 1]
            self.eigs[(k, n, m)] = np.sort(lam)

    def check(self, out_dir: Path) -> dict[str, str]:
        out = {f: self._fig1(out_dir / f, *case) for f, case in self.fig1.items()}
        for f, (label, n, rate) in self.fig3.items():
            out[f] = self._fig3(out_dir / f, label, n, rate)
        return out

    def _fig1(self, path: Path, k: int, n: int, m: int) -> str:
        if not path.is_file():
            return "missing"
        cols = read_csv(path)
        eps, cdf = cols["epsilon"], cols["cdf_emp"]
        if len(eps) != self.points or not (np.all(cols["k"] == k) and np.all(cols["n"] == n)
                                           and np.all(cols["m"] == m)):
            return "unexpected rows"
        if np.any(eps <= 0) or np.any(np.diff(eps) < 0):
            return "epsilon grid is not positive and ascending"
        if np.any((cdf <= 0) | (cdf >= 1)) or np.any(cols["ci_lo"] > cdf) or np.any(cdf > cols["ci_hi"]):
            return "cdf_emp outside (0, 1) or outside its own interval"
        ref = np.searchsorted(self.eigs[(k, n, m)], eps, side="right")
        p_lo, p_hi = wilson(ref, self.eig_draws)
        ok = plausible(np.round(cdf * self.eig_trials), self.eig_trials, p_lo, p_hi)
        if not ok.all():
            i = int(np.argmin(ok))
            return (f"cdf_emp {cdf[i]:.4g} at eps {eps[i]:.4g} vs reference "
                    f"{ref[i] / self.eig_draws:.4g}")
        d = 0.5 * k * (m - n + k)
        if k == 1:
            intercept = self.reference["beta1"][f"{n},{m}"]
            rtol = BETA1_RTOL
        else:
            # No closed form beyond k = 1: the CSV carries a fitted intercept.
            intercept = float(np.exp(np.mean(np.log(cdf) - d * np.log(eps))))
            rtol = SLOPE_RTOL
        if not np.allclose(cols["cdf_asym"], intercept * eps ** d, rtol=rtol, atol=0.0):
            return f"cdf_asym is not {intercept:.6g} eps^{d}"
        return ""

    def _fig3(self, path: Path, label: str, n: int, rate: float) -> str:
        if not path.is_file():
            return "missing"
        cols = read_csv(path)
        if not np.array_equal(cols.get("snr_db"), self.snr_db) or "p_asym" not in cols:
            return "unexpected columns or SNR grid"
        return check_asymptote(cols["p_asym"], self.snr_db, label, self.m, n, rate,
                               "ppc", self.gain_trials, self.reference)


# ---------------------------------------------------------------------------
# mMTC workload
# ---------------------------------------------------------------------------

class MmtcChecks:
    def __init__(self, workload: Workload, reference: dict, seed: int,
                 xi_draws: int = 4_000_000):
        self.rng = np.random.default_rng([seed, 0x3317C])
        self.xi_draws = xi_draws
        self.tables = {}
        for exp in workload.experiments:
            prefix = exp.name.split("-")[0]
            o = exp.options
            for m in o["m_rx"]:
                for family, half in MMTC_SCENARIOS:
                    tag = f"{family}-half" if half else family
                    self.tables[f"{prefix}-{tag}-m{m}.csv"] = (m, family, half)
        self.ttis = workload.experiments[0].options["ttis"]
        self.grid = np.asarray(workload.experiments[0].options["user_grid"], dtype=float)
        self.laws = {}

    def prepare(self) -> None:
        from wlmimo.link_model import sample_large_scale
        from wlmimo.mmtc_sim import MmtcConfig, half_tti_mode

        hist = None
        for m, family, half in set(self.tables.values()):
            cfg = MmtcConfig(users=1, m_rx=m, family=family)
            cfg = half_tti_mode(cfg) if half else cfg
            if hist is None:   # every scenario shares the cell geometry and shadowing
                hist = log_xi_histogram(sample_large_scale(cfg, self.xi_draws, self.rng))
            self.laws[(m, family, half)] = self._law(cfg, *hist)

    def _law(self, cfg, log_xi: np.ndarray, weights: np.ndarray):
        noise_dbm = -174.0 + 10.0 * math.log10(cfg.subcarrier_hz)
        snr = 10.0 ** ((cfg.tx_power_dbm - noise_dbm) / 10.0)
        cap = 2 * cfg.m_rx if cfg.family == "wl" else cfg.m_rx
        x = threshold(cfg.family, cfg.rate) / (snr * 10.0 ** log_xi)
        f = np.array([zf_cdf(cfg.family, cfg.m_rx, size, x) for size in range(1, cap + 1)])
        f_mean, f_sd = average(f, weights, self.xi_draws)
        p_tx = 1.0 - math.exp(-cfg.arrival_rate)
        q = p_tx / cfg.tones
        users = self.grid
        pmf = np.array([stats.binom.pmf(size - 1, users - 1, q) for size in range(1, cap + 1)])
        overload = stats.binom.sf(cap - 1, users - 1, q)
        drop = overload + (pmf * f_mean[:, None]).sum(axis=0)
        sd_law = np.sqrt(((pmf * f_sd[:, None]) ** 2).sum(axis=0))
        load = users * p_tx                       # offered packets per slot
        # Packets on one tone share their fate: an overloaded tone drops at
        # least cap + 1 at once.  Twice that plus the mean co-tone count
        # bounded the measured variance inflation (2.5-6) on every scenario.
        deff = 2.0 * (cap + 1) + (users - 1) * q
        bits = cfg.packet_bits / (cfg.tti_ms / 1000.0 * cfg.bandwidth_hz)
        return drop, sd_law, load, deff, bits

    def check(self, out_dir: Path) -> dict[str, str]:
        return {f: self._table(out_dir / f, key) for f, key in self.tables.items()}

    def _table(self, path: Path, key) -> str:
        if not path.is_file():
            return "missing"
        m, family, half = key
        cols = read_csv(path)
        p, tput = cols["drop_prob"], cols["throughput"]
        if not (np.array_equal(cols["users"], self.grid) and np.all(cols["family"] == family)
                and np.all(cols["half_tti"] == ("true" if half else "false"))):
            return "unexpected rows"
        if np.any((p < 0) | (p > 1)) or np.any(cols["ci_lo"] > p) or np.any(p > cols["ci_hi"]):
            return "drop_prob outside [0, 1] or outside its own interval"
        drop, sd_law, load, deff, bits = self.laws[key]
        # Count in units of deff packets; the offered count is taken at its mean.
        n_eff = load * self.ttis / deff
        ok = plausible(p * n_eff, n_eff, drop - Z * sd_law, drop + Z * sd_law)
        if not ok.all():
            i = int(np.argmin(ok))
            return (f"drop_prob {p[i]:.5g} at {int(self.grid[i])} users vs "
                    f"per-packet law {drop[i]:.5g}")
        decoded = tput / bits * self.ttis / deff
        ok = poisson_plausible(decoded, (1 - drop - Z * sd_law) * n_eff,
                               (1 - drop + Z * sd_law) * n_eff)
        if not ok.all():
            i = int(np.argmin(ok))
            return (f"throughput {tput[i]:.5g} at {int(self.grid[i])} users vs "
                    f"per-packet law {load[i] * (1 - drop[i]) * bits:.5g}")
        return ""


CHECKS = {"outage": OutageChecks, "asymptotics": AsymptoticsChecks, "mmtc": MmtcChecks}
