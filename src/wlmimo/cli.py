"""Experiment runner: YAML config in, deterministic CSV curves out.

Each experiment writes one CSV per curve plus a metadata sidecar
(`<experiment>-meta.yaml`) recording the seed, the counts the run used
with defaults filled in (`trials`, `gain_trials`, `ttis`, whichever the
experiment has), a hash of the normalized config, the package version, and
the list of files produced.
The simulators return the events they count; one helper here writes each
count as its proportion p and the 95% Wilson interval of p.
Identical config and seed always reproduce byte-identical CSVs: every
curve draws from its own stream derived from (seed, experiment, curve id),
so curves never perturb each other and can run in any order.

Config keys may be written kebab-case or snake_case; they are normalized
before use and before hashing, and two that normalize alike are refused.
An experiment's options are the keyword-only parameters of its runner,
with their defaults; the top-level `trials` is one of them where the
experiment reads it.  Any other key is
refused, and so is a value of another kind than its default's.  A runner
checks every value before its first draw: SNR grids with
`outage_analysis.snr_grid`, and each coding gain it will form with one
`outage_analysis.exact_gain` call per curve.  It returns its tables
without writing anything; `run` forms the config hash before the runner
draws, and writes the CSVs and then the sidecar once the runner has
returned.  A value outside a routine's domain raises a `DomainError` where
that routine checks it (`ConfigError` is one): one line on stderr, exit
status 2.  An estimate the draws cannot form (`EstimateError`) is one line
and exit status 1; any other exception is a fault, a traceback and exit
status 1.  None of these, nor a config the hash cannot dump, writes to the
output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import numbers
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .link_model import LinkConfig
from .mmtc_sim import MIN_TTIS, MmtcConfig, run_scenario
from .montecarlo import (DomainError, EstimateError, check_count, derive_rng,
                         wilson_interval)
from .outage_analysis import (MIN_GAIN_TRIALS, MIN_TRIALS, asymptote_curve,
                              diversity_order, exact_gain, gain_for, outage_mc,
                              snr_grid)
from .receivers import ReceiverSpec, threshold
from .wishart_asymptotics import beta1, diversity_exponent, sample_kth_eigenvalue

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "normalize_options",
    "config_hash",
    "parse_receiver",
    "list_experiments",
    "run",
    "main",
    "EXPERIMENTS",
]


class ConfigError(DomainError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and normalized experiment description."""

    experiment: str
    seed: int = 1234
    trials: int | None = None    # None = experiment-specific default
    out_dir: str = "."
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"valid names: {known}")
        params = inspect.signature(EXPERIMENTS[self.experiment][0]).parameters
        reads = {key for key, p in params.items() if p.kind is p.KEYWORD_ONLY}
        _option("seed", self.seed, 0)
        if self.trials is not None and "trials" not in reads:
            raise ConfigError(f"{self.experiment} does not read trials")
        if self.trials is not None:     # its runner refuses a count below its minimum
            _option("trials", self.trials, 1)
        reads.discard("trials")
        if unknown := sorted(set(self.options) - reads):
            raise ConfigError(f"{self.experiment} does not read options "
                              f"{unknown}; it reads {sorted(reads)}")
        for key, value in self.options.items():
            _option(key, value, params[key].default)


# Option value kinds, in the order that classes a value.
_KINDS = {"true or false": bool, "a name": str, "an integer": numbers.Integral,
          "a real number": numbers.Real, "a list": (list, tuple, np.ndarray)}


def _option(name: str, value, default):
    """`value` if it is of the kind of its runner's `default`: a flag takes
    a bool, a count an int but no bool, a rate a real number, names a string
    or a list (whose names their parser checks), a grid a list of its
    default's kind.  Else a ConfigError that names the option."""
    kind = next(k for k, t in _KINDS.items() if isinstance(default, t))
    if kind == "a name" or kind == "a list" and isinstance(default[0], str):
        kind, ok = "a list", isinstance(value, (str, list, tuple))
    elif kind == "a list":
        ok = isinstance(value, (list, tuple))
        for entry in value if ok else ():
            _option(f"{name} entries", entry, default[0])
    else:
        ok = isinstance(value, _KINDS[kind]) and (
            kind == "true or false" or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{name} must be {kind}, not {value!r}")
    return value


def normalize_options(obj):
    """Lower-case keys and turn hyphens into underscores, recursively; two
    keys of one mapping that normalize alike are refused."""
    if isinstance(obj, dict):
        out, spelled = {}, {}
        for key, val in obj.items():
            if not isinstance(key, str):
                raise ConfigError(f"config keys must be strings, got {key!r}")
            norm = key.strip().lower().replace("-", "_")
            if norm in spelled:
                raise ConfigError(f"config keys {spelled[norm]!r} and {key!r} "
                                  f"both spell {norm!r}")
            spelled[norm] = key
            out[norm] = normalize_options(val)
        return out
    if isinstance(obj, list):
        return [normalize_options(v) for v in obj]
    return obj


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML experiment config with field diagnostics on errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    norm = normalize_options(raw)
    known = {"experiment", "seed", "trials", "out_dir", "options"}
    if extra := set(norm) - known:
        raise ConfigError(f"{path}: unknown top-level fields {sorted(extra)}")
    if "experiment" not in norm:
        raise ConfigError(f"{path}: missing required field 'experiment'")
    options = norm.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError(f"{path}: 'options' must be a mapping")
    return ExperimentConfig(
        experiment=str(norm["experiment"]).strip().lower().replace("_", "-"),
        seed=norm.get("seed", 1234),
        trials=norm.get("trials"),
        out_dir=str(norm.get("out_dir", ".")),
        options=options,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical (sorted-key) YAML form of the config.

    The output directory is deliberately left out: it changes where results
    land, not what they are.
    """
    doc = {"experiment": cfg.experiment, "seed": cfg.seed,
           "trials": cfg.trials, "options": cfg.options}
    canonical = yaml.safe_dump(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_receiver(name: str) -> ReceiverSpec:
    """'wl-zf', 'cl-mmse-sic', ... -> ReceiverSpec."""
    parts = name.strip().lower().split("-") if isinstance(name, str) else []
    sic = parts[-1:] == ["sic"]
    if len(parts) - sic != 2:
        raise ConfigError(f"cannot parse receiver name {name!r}")
    try:
        return ReceiverSpec(family=parts[0], criterion=parts[1], sic=sic)
    except DomainError as exc:
        raise ConfigError(f"receiver {name!r}: {exc}") from exc


def _distinct(name: str, values) -> list:
    """A list option, or one name, whose entries differ."""
    values = [values] if isinstance(values, str) else list(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} names {value!r} twice")
    return values


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return str(float(value))
    return str(value)


def _proportion(events, trials: int):
    """The written columns of an event count, or of an array of them: the
    proportion events / trials and its 95% Wilson interval.  A point with
    no trials, an mMTC population that offered no packet, is 0, 0, 0."""
    if not trials:
        return 0.0, 0.0, 0.0
    return events / trials, *wilson_interval(events, trials)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

FIG1_CASES = ((1, 2, 4), (1, 3, 6), (1, 4, 4), (2, 2, 2))


def _run_fig1(cfg: ExperimentConfig, *, trials=1_000_000,
              points=8) -> tuple[dict, dict]:
    trials = check_count("trials", trials, 1)
    points = check_count("points", points, 1)
    header = ["k", "n", "m", "epsilon", "cdf_emp", "ci_lo", "ci_hi", "cdf_asym"]
    probs = np.logspace(-4, -2, points)
    # The quantiles and the counts below them read no sample past this one.
    lowest = min(trials, int((trials - 1) * probs[-1]) + 3)
    tables = {}
    for k, n, m in FIG1_CASES:
        rng = derive_rng(cfg.seed, "fig1", k, n, m)
        lam = sample_kth_eigenvalue(k, n, m, trials, rng, lowest)
        lam = np.concatenate([lam, np.full(trials - lowest, np.inf)])
        eps = np.quantile(lam, probs)
        cdf, lo, hi = _proportion(np.searchsorted(lam, eps, side="right"),
                                  trials)
        d = diversity_exponent(k, n, m)
        if k == 1:
            intercept = beta1(n, m)
        else:
            # No closed-form constant beyond the smallest eigenvalue; show
            # the polynomial law with a fitted intercept instead.
            intercept = float(np.exp(np.mean(np.log(cdf) - d * np.log(eps))))
        asym = intercept * eps ** d
        rows = [(k, n, m, *row) for row in zip(eps, cdf, lo, hi, asym)]
        tables[f"fig1-k{k}-n{n}-m{m}.csv"] = (header, rows)
    return tables, {"trials": trials}


def _run_outage(cfg: ExperimentConfig, *, trials=100_000, m_rx=2,
                n_users=4, rate=2.0, snr_db=np.arange(15.0, 61.0, 5.0),
                power_control="none", receivers="wl-zf", gain_trials=200_000,
                asymptote=True) -> tuple[dict, dict]:
    """Outage curves for every power mode x receiver, with asymptotes
    unless `asymptote: false`; each curve draws from (seed, prefix, mode,
    receiver) streams, the prefix being `fig2` or `custom` and the receiver
    its lower-case label.  Each mode and receiver may be named once."""
    prefix = cfg.experiment.split("-")[0]
    trials = check_count("trials", trials, MIN_TRIALS)
    snr_db = snr_grid(snr_db)
    modes = _distinct("power_control", power_control)
    gain_trials = check_count("gain_trials", gain_trials, MIN_GAIN_TRIALS)
    links = [LinkConfig(m_rx=m_rx, n_users=n_users, snr=1.0, rate=rate,
                        power_control=mode) for mode in modes]
    specs = [parse_receiver(name) for name in
             ([receivers] if isinstance(receivers, str) else receivers)]
    names = _distinct("receivers", [rx.label.lower() for rx in specs])
    for rx in specs:
        if asymptote:
            for link in links:
                exact_gain(link, rx)        # refuses every gain gain_for would
        else:
            diversity_order(m_rx, n_users, rx.family)    # refuses N > D M
            threshold(rx.family, rate)                   # refuses a huge or tiny rate
    header = ["snr_db", "p_out", "ci_lo", "ci_hi"] + ["p_asym"] * asymptote
    tables = {}
    for mode, link in zip(modes, links):
        for name, rx in zip(names, specs):
            p_asym = []
            if asymptote:
                gain = gain_for(link, rx, gain_trials,
                                derive_rng(cfg.seed, prefix, mode, name, "gain"))
                p_asym = [asymptote_curve(gain, snr_db)]
            curve = outage_mc(rx, link, snr_db, trials,
                              derive_rng(cfg.seed, prefix, mode, name, "curve"))
            rows = zip(snr_db, *_proportion(curve.events, trials), *p_asym)
            tables[f"{prefix}-{mode}-{name}.csv"] = (header, list(rows))
    counts = {"trials": trials}
    if asymptote:
        counts["gain_trials"] = gain_trials
    return tables, counts


# (panel, WL users, CL users, rate); M = 2 receive antennas throughout.
FIG3_PANELS = (
    ("a", 2, 2, 2.0),
    ("b", 3, 2, 4.0),
    ("c", 3, 2, 0.3),
    ("d", 4, 2, 0.3),
)


def _run_fig3(cfg: ExperimentConfig, *, m_rx=2,
              snr_db=np.arange(10.0, 61.0, 2.0),
              gain_trials=200_000) -> tuple[dict, dict]:
    snr_db = snr_grid(snr_db)
    gain_trials = check_count("gain_trials", gain_trials, MIN_GAIN_TRIALS)
    curves = [(panel, LinkConfig(m_rx=m_rx, n_users=n, snr=1.0, rate=rate,
                                 power_control="ppc"),
               ReceiverSpec(family, criterion, sic))
              for panel, n_wl, n_cl, rate in FIG3_PANELS
              for family, n in (("wl", n_wl), ("cl", n_cl))
              for criterion in ("zf", "mmse") for sic in (False, True)]
    for panel, link, rx in curves:
        exact_gain(link, rx)                # refuses every gain gain_for would
    tables = {}
    for panel, link, rx in curves:
        gain = gain_for(link, rx, gain_trials,
                        derive_rng(cfg.seed, "fig3", panel, rx.family,
                                   rx.criterion, int(rx.sic)))
        p = asymptote_curve(gain, snr_db)
        name = f"fig3-{panel}-{rx.label.lower()}.csv"
        tables[name] = (["snr_db", "p_asym"], list(zip(snr_db, p)))
    return tables, {"gain_trials": gain_trials}


MMTC_SCENARIOS = (("wl", False), ("cl", False), ("cl", True))
# The default mMTC population grid, 250 .. 128k users in sqrt(2) steps.
MMTC_USER_GRID = (250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000, 5657, 8000,
                  11314, 16000, 22627, 32000, 45255, 64000, 90510, 128000)


def _run_mmtc(cfg: ExperimentConfig, *, ttis=20_000, m_rx=(1, 2),
              user_grid=MMTC_USER_GRID) -> tuple[dict, dict]:
    prefix = cfg.experiment.split("-")[0]
    ttis = check_count("ttis", ttis, MIN_TTIS)
    m_list = _distinct("m_rx", m_rx)
    grid = _distinct("user_grid", user_grid)
    if not grid:
        raise ConfigError("user_grid is empty")
    sweeps = []
    for m in m_list:
        for family, half in MMTC_SCENARIOS:
            sweeps.append((m, family, half, [MmtcConfig(users, m, family, half)
                                             for users in grid]))
    header = ["users", "family", "half_tti", "drop_prob", "ci_lo", "ci_hi",
              "throughput"]
    tables = {}
    for m, family, half, scenarios in sweeps:
        rows = []
        for sc in scenarios:
            rng = derive_rng(cfg.seed, prefix, m, family, int(half), sc.users)
            res = run_scenario(sc, ttis, rng)
            rows.append((sc.users, family, half,
                         *_proportion(res.dropped, res.offered), res.throughput))
        tag = f"{family}-half" if half else family
        tables[f"{prefix}-{tag}-m{m}.csv"] = (header, rows)
    return tables, {"ttis": ttis}


# name: (runner, description).  A runner's keyword-only parameters are the
# experiment's options.  fig5 is the fig4 sweep under its own streams, so the
# drop-rate and throughput plots can be reseeded independently of each other.
EXPERIMENTS = {
    "fig1-eig-cdf": (
        _run_fig1,
        "empirical vs asymptotic CDF of the k-th smallest Wishart eigenvalue",
    ),
    "fig2-wl-outage": (
        partial(_run_outage, power_control=("none", "ppc"),
                receivers=("wl-zf", "wl-mmse", "wl-zf-sic", "wl-mmse-sic")),
        "WL receiver outage curves with asymptotes, with and without power control",
    ),
    "fig3-wl-vs-cl": (
        _run_fig3,
        "asymptotic outage of WL vs CL receivers across user loads and rates",
    ),
    "fig4-mmtc-drop": (
        _run_mmtc,
        "machine-type traffic packet-drop sweep over the user population",
    ),
    "fig5-mmtc-throughput": (
        _run_mmtc,
        "machine-type traffic throughput sweep over the user population",
    ),
    "custom": (
        _run_outage,
        "outage curve for a caller-chosen link scenario and receiver list",
    ),
}


def list_experiments() -> str:
    width = max(len(name) for name in EXPERIMENTS)
    lines = [f"{name:<{width}}  {desc}"
             for name, (_, desc) in sorted(EXPERIMENTS.items())]
    return "\n".join(lines)


def run(cfg: ExperimentConfig) -> list[str]:
    """Execute one experiment, then write its CSVs and its sidecar; returns
    their names.  The config hash is formed before the runner draws, so a
    config it cannot dump, like a runner that raises, leaves `out_dir` as
    it was."""
    digest = config_hash(cfg)
    trials = {} if cfg.trials is None else {"trials": cfg.trials}
    tables, counts = EXPERIMENTS[cfg.experiment][0](cfg, **cfg.options, **trials)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
    files = sorted(tables)
    meta = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        **counts,
        "config_hash": digest,
        "version": __version__,
        "files": files,
    }
    meta_name = f"{cfg.experiment}-meta.yaml"
    with open(out / meta_name, "w", encoding="utf-8") as f:
        yaml.safe_dump(meta, f, sort_keys=True)
    return files + [meta_name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wlmimo",
        description="Run reproducible outage / machine-type-traffic experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run an experiment from a YAML config")
    runp.add_argument("config", help="path to the YAML experiment config")
    runp.add_argument("--seed", type=int, help="override the config seed")
    runp.add_argument("--trials", type=int, help="override the trial count")
    runp.add_argument("--out-dir", help="override the output directory")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return 0

    try:
        given = {"seed": args.seed, "trials": args.trials, "out_dir": args.out_dir}
        cfg = replace(load_config(args.config),
                      **{key: v for key, v in given.items() if v is not None})
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        files = run(cfg)
    except DomainError as exc:
        print(f"{cfg.experiment}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return 1
    except EstimateError as exc:
        print(f"{cfg.experiment}: {exc}", file=sys.stderr)
        return 1
    for name in files:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
