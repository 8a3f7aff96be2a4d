"""End-to-end tests for the experiment runner and its config handling."""

import ast
import csv
import filecmp
import hashlib
import inspect
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import wlmimo
from wlmimo import outage_analysis
from wlmimo.cli import (
    EXPERIMENTS,
    FIG1_CASES,
    MMTC_SCENARIOS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    list_experiments,
    load_config,
    main,
    normalize_options,
    parse_receiver,
    run,
)
from wlmimo.mmtc_sim import MmtcConfig, half_tti_mode, run_scenario
from wlmimo.montecarlo import derive_rng
from wlmimo.wishart_asymptotics import sample_kth_eigenvalue


def write_yaml(path: Path, doc) -> Path:
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def keywords(experiment: str) -> set[str]:
    """The keyword-only parameters of an experiment's runner."""
    params = inspect.signature(EXPERIMENTS[experiment][0]).parameters
    return {key for key, p in params.items() if p.kind is p.KEYWORD_ONLY}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_normalize_options_kebab_and_case():
    raw = {"Gain-Trials": 10, "nested": {"snr-db": [1, 2]}, "plain": "x"}
    out = normalize_options(raw)
    assert out == {"gain_trials": 10, "nested": {"snr_db": [1, 2]}, "plain": "x"}


def test_normalize_options_rejects_non_string_keys():
    with pytest.raises(ConfigError):
        normalize_options({3: "x"})


def test_normalize_options_refuses_two_spellings_of_one_key():
    with pytest.raises(ConfigError, match="'seed' and 'Seed' both spell 'seed'"):
        normalize_options({"seed": 1, "Seed": 2})


def test_load_config_refuses_two_spellings_of_one_option(tmp_path):
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "options": {"gain-trials": 5, "gain_trials": 6}})
    with pytest.raises(ConfigError, match="'gain-trials' and 'gain_trials'"):
        load_config(p)


def test_load_config_round_trip(tmp_path):
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "fig1-eig-cdf",
        "seed": 7,
        "trials": 5000,
        "out-dir": str(tmp_path / "out"),
        "options": {"points": 4},
    })
    cfg = load_config(p)
    assert cfg.experiment == "fig1-eig-cdf"
    assert cfg.seed == 7
    assert cfg.trials == 5000
    assert cfg.out_dir == str(tmp_path / "out")
    assert cfg.options == {"points": 4}


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml",
                                 {"experiment": "custom"}))
    assert cfg.seed == 1234 and cfg.trials is None and cfg.out_dir == "."


def test_load_config_accepts_snake_or_kebab_experiment_name(tmp_path):
    cfg = load_config(write_yaml(tmp_path / "c.yaml",
                                 {"experiment": "fig1_eig_cdf"}))
    assert cfg.experiment == "fig1-eig-cdf"


def test_load_config_rejects_unknowns(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config(write_yaml(tmp_path / "c.yaml",
                               {"experiment": "custom", "sneed": 3}))
    with pytest.raises(ConfigError, match="missing required"):
        load_config(write_yaml(tmp_path / "c.yaml", {"seed": 3}))
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_config(write_yaml(tmp_path / "c.yaml", ["a", "b"]))


def test_load_config_reports_yaml_position(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("experiment: custom\noptions: {bad\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line \d+"):
        load_config(p)


def test_unknown_experiment_lists_valid_names():
    with pytest.raises(ConfigError, match="fig2-wl-outage"):
        ExperimentConfig(experiment="fig9-nope")


@pytest.mark.parametrize("experiment, minimum", [
    ("custom", 1000), ("fig2-wl-outage", 1000), ("fig1-eig-cdf", 1)])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_zero_trials_are_refused_by_the_runner(tmp_path, capsys, experiment,
                                               minimum, where):
    # The config checks only the kind of `trials`; each runner refuses a
    # count below its own minimum, before its first draw.
    ExperimentConfig(experiment, trials=0)
    options = OUTAGE_RUN if experiment != "fig1-eig-cdf" else {}
    doc = {"experiment": experiment, "seed": 3, "options": options}
    named = f"trials must be at least {minimum}, not 0"
    if where == "config":
        assert_refused_before_any_draw(tmp_path, capsys, named, {**doc, "trials": 0})
        return
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {**doc, "trials": 2000, "out-dir": str(out)})
    assert main(["run", str(p), "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_config_hash_ignores_out_dir_only():
    a = ExperimentConfig("custom", seed=1, out_dir="/tmp/a")
    b = ExperimentConfig("custom", seed=1, out_dir="/tmp/b")
    c = ExperimentConfig("custom", seed=2, out_dir="/tmp/a")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_config_hash_spelling_invariant(tmp_path):
    a = load_config(write_yaml(tmp_path / "a.yaml", {
        "experiment": "custom", "options": {"gain-trials": 5}}))
    b = load_config(write_yaml(tmp_path / "b.yaml", {
        "experiment": "custom", "options": {"GAIN_TRIALS": 5}}))
    assert config_hash(a) == config_hash(b)


def test_parse_receiver():
    spec = parse_receiver("wl-zf")
    assert (spec.family, spec.criterion, spec.sic) == ("wl", "zf", False)
    spec = parse_receiver("CL-MMSE-SIC")
    assert (spec.family, spec.criterion, spec.sic) == ("cl", "mmse", True)
    with pytest.raises(ConfigError):
        parse_receiver("zf")


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

def test_list_experiments_names_everything():
    text = list_experiments()
    lines = text.splitlines()
    assert len(lines) == len(EXPERIMENTS) == 6
    for name in EXPERIMENTS:
        assert any(line.startswith(name) for line in lines)


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.mark.parametrize("trials", [3, 17, 250, 999, 1001, 4321])
def test_fig1_reads_the_quantiles_of_the_whole_sorted_draw(tmp_path, trials):
    # fig1 roots and keeps only its lowest samples; np.quantile and the
    # counts on the whole sorted draw must give the written columns exactly.
    run(ExperimentConfig("fig1-eig-cdf", seed=8, trials=trials,
                         out_dir=str(tmp_path)))
    for k, n, m in FIG1_CASES:
        lam = np.sort(sample_kth_eigenvalue(
            k, n, m, trials, derive_rng(8, "fig1", k, n, m)))
        eps = np.quantile(lam, np.logspace(-4, -2, 8))
        below = np.searchsorted(lam, eps, side="right")
        _, rows = read_csv(tmp_path / f"fig1-k{k}-n{n}-m{m}.csv")
        assert [float(row[3]) for row in rows] == eps.tolist()
        assert [float(row[4]) for row in rows] == (below / trials).tolist()


def test_fig1_run_writes_finite_curves(tmp_path):
    cfg = ExperimentConfig("fig1-eig-cdf", seed=3, trials=4000,
                           out_dir=str(tmp_path))
    files = run(cfg)
    csvs = [f for f in files if f.endswith(".csv")]
    assert len(csvs) == 4
    assert "fig1-k2-n2-m2.csv" in csvs    # the fitted-intercept case
    for name in csvs:
        header, rows = read_csv(tmp_path / name)
        assert header == ["k", "n", "m", "epsilon", "cdf_emp", "ci_lo",
                          "ci_hi", "cdf_asym"]
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row)


def test_run_writes_meta_sidecar(tmp_path):
    cfg = ExperimentConfig("fig1-eig-cdf", seed=3, trials=2000,
                           out_dir=str(tmp_path))
    files = run(cfg)
    meta_name = "fig1-eig-cdf-meta.yaml"
    assert files[-1] == meta_name
    meta = yaml.safe_load((tmp_path / meta_name).read_text())
    assert meta["seed"] == 3
    assert meta["trials"] == 2000
    assert meta["config_hash"] == config_hash(cfg)
    assert sorted(meta["files"]) == [f for f in files if f != meta_name]
    for name in meta["files"]:
        assert (tmp_path / name).exists()


def test_meta_sidecar_records_resolved_default_counts(tmp_path):
    # A config that leaves the counts to the experiment's defaults still
    # records the counts the run used; the hash and the CSVs are those of
    # the config as written.
    options = {"m_rx": 1, "n_users": 1, "snr_db": [0.0],
               "receivers": ["wl-zf"], "power_control": ["ppc"]}
    cfg = ExperimentConfig("fig2-wl-outage", seed=4, out_dir=str(tmp_path / "d"),
                           options=options)
    run(cfg)
    meta = yaml.safe_load((tmp_path / "d" / "fig2-wl-outage-meta.yaml").read_text())
    assert meta["trials"] == 100_000 and meta["gain_trials"] == 200_000
    assert meta["config_hash"] == config_hash(cfg)
    explicit = replace(cfg, trials=100_000, out_dir=str(tmp_path / "e"),
                       options={**options, "gain_trials": 200_000})
    run(explicit)
    for name in meta["files"]:
        assert ((tmp_path / "d" / name).read_bytes()
                == (tmp_path / "e" / name).read_bytes())


def test_run_refuses_a_config_it_cannot_hash_before_any_draw(tmp_path,
                                                            monkeypatch):
    # A numpy count passes the option checks, but the sidecar's YAML cannot
    # dump it; the run refuses before its first stream and writes nothing.
    monkeypatch.setattr("wlmimo.cli.derive_rng",
                        lambda *key: pytest.fail(f"drew from {key}"))
    cfg = ExperimentConfig("custom", seed=1, trials=1000,
                           out_dir=str(tmp_path / "out"), options={
                               "m_rx": np.int64(2), "n_users": 2,
                               "snr_db": [10.0], "gain_trials": 1000})
    with pytest.raises(yaml.representer.RepresenterError):
        run(cfg)
    assert not (tmp_path / "out").exists()


# experiment -> (trials, options) of a small run
SMALL_RUNS = {
    "fig1-eig-cdf": (2000, {"points": 4}),
    "fig2-wl-outage": (1000, {"snr_db": [20.0, 30.0], "gain_trials": 1000}),
    "fig3-wl-vs-cl": (None, {"snr_db": [20.0, 30.0], "gain_trials": 1000}),
    "fig4-mmtc-drop": (None, {"ttis": 1000, "m_rx": [1], "user_grid": [64, 128]}),
    "fig5-mmtc-throughput": (None, {"ttis": 1000, "m_rx": [1],
                                    "user_grid": [64, 128]}),
    "custom": (1000, {"snr_db": [20.0, 30.0], "gain_trials": 1000,
                      "receivers": ["wl-zf", "wl-mmse-sic"]}),
}


def test_reruns_are_byte_identical(tmp_path):
    # Every experiment, sidecars included.
    assert sorted(SMALL_RUNS) == sorted(EXPERIMENTS)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for experiment, (trials, options) in SMALL_RUNS.items():
        for out in (out_a, out_b):
            run(ExperimentConfig(experiment, seed=11, trials=trials,
                                 out_dir=str(out), options=options))
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert {f"{name}-meta.yaml" for name in SMALL_RUNS} <= set(names)
    assert len(names) == 4 + 8 + 32 + 3 + 3 + 2 + len(SMALL_RUNS)
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names,
                                               shallow=False)
    assert mismatch == [] and errors == []


# The first 16 hex digits of the sha256 of every CSV the small runs write
# at seed 2028.  A change that moves a curve on purpose declares the move
# and updates its row.
CSV_DIGESTS = {
    "custom-none-wl-mmse-sic.csv": "b0797d6141aecd43",
    "custom-none-wl-zf.csv": "eb11b5ba18de9ced",
    "fig1-k1-n2-m4.csv": "93c9ad6795596cbf",
    "fig1-k1-n3-m6.csv": "7352c66ba97dfc2a",
    "fig1-k1-n4-m4.csv": "ae7ef0902c887ce7",
    "fig1-k2-n2-m2.csv": "2a303c2e72210e0c",
    "fig2-none-wl-mmse-sic.csv": "0112c5b89ddcf23c",
    "fig2-none-wl-mmse.csv": "2395d8c443afcaf6",
    "fig2-none-wl-zf-sic.csv": "41e8901fd6cd67f3",
    "fig2-none-wl-zf.csv": "75084ee456ff4d5e",
    "fig2-ppc-wl-mmse-sic.csv": "46f09a12e8e848a5",
    "fig2-ppc-wl-mmse.csv": "75358fd11cd4895e",
    "fig2-ppc-wl-zf-sic.csv": "e0af3a85f6802607",
    "fig2-ppc-wl-zf.csv": "ffbb45c5d691c65e",
    "fig3-a-cl-mmse-sic.csv": "7c8f002a4f35e6a3",
    "fig3-a-cl-mmse.csv": "0b6b3c66edf0cc0d",
    "fig3-a-cl-zf-sic.csv": "0925e79db6bd717f",
    "fig3-a-cl-zf.csv": "5121faed4b1d22c3",
    "fig3-a-wl-mmse-sic.csv": "11e6a6f988a9a237",
    "fig3-a-wl-mmse.csv": "e7253b231fc3f78a",
    "fig3-a-wl-zf-sic.csv": "bbc497f8320c8be8",
    "fig3-a-wl-zf.csv": "c8620576e460f0d8",
    "fig3-b-cl-mmse-sic.csv": "081ac3fe10a0f74f",
    "fig3-b-cl-mmse.csv": "adb5a6f64005dd50",
    "fig3-b-cl-zf-sic.csv": "65d2b69e3915adf5",
    "fig3-b-cl-zf.csv": "f9aad1e11d603d55",
    "fig3-b-wl-mmse-sic.csv": "5894e6b4dcff2337",
    "fig3-b-wl-mmse.csv": "dd212b27c85f01ea",
    "fig3-b-wl-zf-sic.csv": "38589ef604264003",
    "fig3-b-wl-zf.csv": "3dd432ba1b672964",
    "fig3-c-cl-mmse-sic.csv": "3cc4641594ff6a9b",
    "fig3-c-cl-mmse.csv": "481c80d35307c8ec",
    "fig3-c-cl-zf-sic.csv": "4595301c8aa9e3eb",
    "fig3-c-cl-zf.csv": "8dfd125131ee144e",
    "fig3-c-wl-mmse-sic.csv": "b068d12de24d0b85",
    "fig3-c-wl-mmse.csv": "9c3d36b70e3e0cd4",
    "fig3-c-wl-zf-sic.csv": "ba86c5dc08174bca",
    "fig3-c-wl-zf.csv": "a1ec548a5bf5c5f4",
    "fig3-d-cl-mmse-sic.csv": "3cc4641594ff6a9b",
    "fig3-d-cl-mmse.csv": "481c80d35307c8ec",
    "fig3-d-cl-zf-sic.csv": "4595301c8aa9e3eb",
    "fig3-d-cl-zf.csv": "8dfd125131ee144e",
    "fig3-d-wl-mmse-sic.csv": "97fc987398680b05",
    "fig3-d-wl-mmse.csv": "e6d33b82f5083069",
    "fig3-d-wl-zf-sic.csv": "51e58b6717e12455",
    "fig3-d-wl-zf.csv": "d429e76e6f7ea0da",
    "fig4-cl-half-m1.csv": "a83e27ad29181a82",
    "fig4-cl-m1.csv": "eb29c6863693e46a",
    "fig4-wl-m1.csv": "b01de6e8c8cf8ecd",
    "fig5-cl-half-m1.csv": "011eaeec068cd642",
    "fig5-cl-m1.csv": "6921bc45cb4016a5",
    "fig5-wl-m1.csv": "964ab8cb6e988be6",
}


def test_small_runs_write_pinned_bytes(tmp_path):
    for experiment, (trials, options) in SMALL_RUNS.items():
        run(ExperimentConfig(experiment, seed=2028, trials=trials,
                             out_dir=str(tmp_path), options=options))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
           for p in sorted(tmp_path.glob("*.csv"))}
    table = "".join(f'    "{name}": "{digest}",\n' for name, digest in got.items())
    assert got == CSV_DIGESTS, "the CSVs now hash to\n" + table


# The same digests for fig1 at the edge sizes of its quantile read (seed
# 2029, the four CSVs in name order): one and two draws, where every draw
# is read, and 1000, with one quantile point or eight.  fig1 reads only its
# lowest samples; these pin that its CSVs are those of the whole sorted draw.
FIG1_EDGE_DIGESTS = {
    (1, 1): "ed50786ac5c587fc 898f34beebb46a89 f8603e048e80b9b4 a0700250aa9fc613",
    (1, 8): "b5dbf42725e46f36 142cff9e446a8140 3f1d57bba52efbad e9f6408cbe387050",
    (2, 1): "e1fa0093cd11a863 d31ca10cf872765f 8fdb42225ba8231c 585c3a93aabeacf1",
    (2, 8): "bfcf0206d0eee257 ac3694b9f066a444 6ba2e9c90187f568 010c158cbff3a88d",
    (1000, 1): "15a7ecc521b18ff6 a6de44432ce6df20 ad1b35aaab32a36b ba63053dd3ca943c",
    (1000, 8): "20feb3997feb5b9d 712927ba3fa6d6c0 70b2b19e23dafb21 3db625a9ef7fcf96",
}


@pytest.mark.parametrize("trials,points", sorted(FIG1_EDGE_DIGESTS))
def test_fig1_at_edge_sizes_writes_pinned_bytes(tmp_path, trials, points):
    run(ExperimentConfig("fig1-eig-cdf", seed=2029, trials=trials,
                         out_dir=str(tmp_path), options={"points": points}))
    got = " ".join(hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in sorted(tmp_path.glob("*.csv")))
    assert got == FIG1_EDGE_DIGESTS[trials, points]


def test_custom_experiment_without_asymptote(tmp_path):
    cfg = ExperimentConfig(
        "custom", seed=5, trials=1000, out_dir=str(tmp_path),
        options={"m_rx": 2, "n_users": 2, "rate": 1.0,
                 "power_control": "ppc", "snr_db": [10.0, 14.0],
                 "receivers": ["wl-zf"], "asymptote": False},
    )
    files = run(cfg)
    header, rows = read_csv(tmp_path / "custom-ppc-wl-zf.csv")
    assert header == ["snr_db", "p_out", "ci_lo", "ci_hi"]
    assert len(rows) == 2
    p = [float(r[1]) for r in rows]
    assert p[0] > p[1]    # outage falls with SNR


@pytest.mark.parametrize("experiment,prefix,one,many", [
    ("fig2-wl-outage", "fig2", "ppc", ["none", "ppc"]),
    ("custom", "custom", "none", ["none", "ppc"]),
])
def test_outage_runs_take_one_power_mode_or_a_list(tmp_path, experiment,
                                                   prefix, one, many):
    # Either form works in both experiments, and a mode's curve does not
    # depend on which form named it.
    options = {"m_rx": 2, "n_users": 2, "rate": 1.0, "snr_db": [10.0, 14.0],
               "receivers": ["wl-zf"], "gain_trials": 2000}
    for tag, modes in (("one", one), ("many", many)):
        p = write_yaml(tmp_path / f"{tag}.yaml", {
            "experiment": experiment, "seed": 3, "trials": 1000,
            "out-dir": str(tmp_path / tag),
            "options": {**options, "power-control": modes},
        })
        assert main(["run", str(p)]) == 0
    made = sorted(p.name for p in (tmp_path / "many").glob("*.csv"))
    assert made == [f"{prefix}-{mode}-wl-zf.csv" for mode in many]
    name = f"{prefix}-{one}-wl-zf.csv"
    assert ((tmp_path / "one" / name).read_bytes()
            == (tmp_path / "many" / name).read_bytes())


def test_mmtc_run_formats_booleans(tmp_path):
    cfg = ExperimentConfig(
        "fig4-mmtc-drop", seed=6, out_dir=str(tmp_path),
        options={"ttis": 1000, "m_rx": [1], "user_grid": [64]},
    )
    files = run(cfg)
    csvs = [f for f in files if f.endswith(".csv")]
    assert sorted(csvs) == ["fig4-cl-half-m1.csv", "fig4-cl-m1.csv",
                            "fig4-wl-m1.csv"]
    header, rows = read_csv(tmp_path / "fig4-cl-half-m1.csv")
    assert header[:3] == ["users", "family", "half_tti"]
    assert rows[0][1] == "cl" and rows[0][2] == "true"
    _, rows = read_csv(tmp_path / "fig4-wl-m1.csv")
    assert rows[0][2] == "false"


def test_mmtc_point_with_nothing_offered_writes_zeros(tmp_path):
    # No packet is offered at 0 users, nor at 1 user in 1000 slots at seed
    # 9: the drop rate and its interval are written as 0.0 on both rows.
    # One user stays silent for 1000 slots with probability about 0.66
    # (0.81 in half-TTI mode), so the seed is chosen, and replaying the
    # runner's streams first shows that it still is one that offers nothing.
    for family, half in MMTC_SCENARIOS:
        sc = MmtcConfig(users=1, m_rx=1, family=family)
        sc = half_tti_mode(sc) if half else sc
        rng = derive_rng(9, "fig4", 1, family, int(half), 1)
        assert run_scenario(sc, 1000, rng).offered == 0, (family, half)
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "fig4-mmtc-drop", "seed": 9, "out-dir": str(tmp_path),
        "options": {"ttis": 1000, "m-rx": [1], "user-grid": [0, 1]}})
    assert main(["run", str(p)]) == 0
    for name in ("fig4-wl-m1.csv", "fig4-cl-m1.csv", "fig4-cl-half-m1.csv"):
        header, rows = read_csv(tmp_path / name)
        cols = [header.index(key) for key in ("drop_prob", "ci_lo", "ci_hi")]
        assert [row[0] for row in rows] == ["0", "1"]
        assert [[row[i] for i in cols] for row in rows] == [["0.0"] * 3] * 2


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------

def test_importing_the_cli_leaves_scipy_out():
    # scipy is a test dependency only; importing it from the package would
    # about double the start-up time of every run.
    src = str(Path(wlmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, wlmimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4-mmtc-drop" in out and "custom" in out


def test_main_run_with_overrides(tmp_path, capsys):
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "fig1-eig-cdf", "seed": 1, "trials": 2000,
        "out-dir": str(tmp_path / "ignored"),
    })
    target = tmp_path / "actual"
    code = main(["run", str(p), "--seed", "9", "--trials", "3000",
                 "--out-dir", str(target)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    meta = yaml.safe_load((target / "fig1-eig-cdf-meta.yaml").read_text())
    assert meta["seed"] == 9 and meta["trials"] == 3000
    assert not (tmp_path / "ignored").exists()
    assert "fig1-eig-cdf-meta.yaml" in printed


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_main_refuses_a_directory_as_config(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and len(err.splitlines()) == 1


def test_main_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "c.yaml"
    p.write_bytes(b"experiment: \xff\xfe\n")
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and len(err.splitlines()) == 1


def test_main_bad_config(tmp_path, capsys):
    p = write_yaml(tmp_path / "c.yaml", {"experiment": "not-a-thing"})
    assert main(["run", str(p)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


OUTAGE_RUN = {"m-rx": 2, "n-users": 2, "rate": 1.0, "snr-db": [10.0],
              "power-control": "ppc", "receivers": ["wl-zf", "cl-zf"],
              "gain-trials": 1000}
M_RX_33 = ("m <= 64, got n=2, m=66: the WL-SIC asymptote takes "
           "n = n_users = 2 and m = 2 m_rx = 66")


@pytest.mark.parametrize("experiment, options, named", [
    ("custom", {**OUTAGE_RUN, "power-control": "foo"}, "'foo'"),
    ("custom", {**OUTAGE_RUN, "receivers": ["wl-foo"]}, "'wl-foo'"),
    ("custom", {**OUTAGE_RUN, "power-control": ["ppc", "foo"]}, "'foo'"),
    ("custom", {**OUTAGE_RUN, "n-users": 3}, "not 3"),      # CL: N > M
    ("custom", {**OUTAGE_RUN, "rate": "two"}, "'two'"),
    ("custom", {**OUTAGE_RUN, "n-user": 3}, "'n_user'"),    # typo of n-users
    ("fig2-wl-outage", {**OUTAGE_RUN, "receivers": ["wl-zf", "wl-zf-foo"]},
     "'wl-zf-foo'"),
    ("fig3-wl-vs-cl", {"m-rx": 1, "gain-trials": 1000}, "not 2"),  # CL: N > M
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": [64, -5]},
     "negative"),
    ("custom", {**OUTAGE_RUN, "gain-trials": 0}, "gain_trials must be at least 2"),
    ("custom", {**OUTAGE_RUN, "receivers": ["wl-mmse"], "gain-trials": 1},
     "gain_trials must be at least 2"),
    ("fig3-wl-vs-cl", {"gain-trials": 1}, "gain_trials must be at least 2"),
    ("fig4-mmtc-drop", {"ttis": 10, "m-rx": [1], "user-grid": [64]},
     "ttis must be at least 1000"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": []},
     "user_grid is empty"),
    ("custom", {**OUTAGE_RUN, "power-control": ["ppc", "ppc"],
                "receivers": ["wl-zf", "WL-ZF"]}, "power_control names 'ppc' twice"),
    ("custom", {**OUTAGE_RUN, "receivers": ["wl-zf", "WL-ZF"]},
     "receivers names 'wl-zf' twice"),
    ("custom", {**OUTAGE_RUN, "rate": math.nan, "asymptote": False},
     "rate must be finite"),
    ("custom", {**OUTAGE_RUN, "rate": math.inf}, "rate must be finite"),
    ("custom", {**OUTAGE_RUN, "snr-db": [20.0, math.nan]}, "snr_db must be"),
    ("custom", {**OUTAGE_RUN, "snr-db": []}, "snr_db must be"),
    ("fig2-wl-outage", {**OUTAGE_RUN, "snr-db": [20.0, 10.0]}, "snr_db must be"),
    ("fig3-wl-vs-cl", {"gain-trials": 1000, "snr-db": [math.nan, 20.0]},
     "snr_db must be"),
    ("fig3-wl-vs-cl", {"gain-trials": 1000, "snr-db": []}, "snr_db must be"),
    ("fig1-eig-cdf", {"points": 0}, "points must be at least 1, not 0"),
    ("fig1-eig-cdf", {"points": -1}, "points must be at least 1, not -1"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": [64, 64]},
     "user_grid names 64 twice"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1, 1], "user-grid": [64]},
     "m_rx names 1 twice"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": None},
     "user_grid must be a list, not None"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": 500},
     "user_grid must be a list, not 500"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": None, "user-grid": [64]},
     "m_rx must be a list, not None"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": 2, "user-grid": [64]},
     "m_rx must be a list, not 2"),
    ("custom", {**OUTAGE_RUN, "power-control": None},
     "power_control must be a list, not None"),
    ("custom", {**OUTAGE_RUN, "receivers": 5}, "receivers must be a list, not 5"),
    ("custom", {**OUTAGE_RUN, "receivers": [5]}, "cannot parse receiver name 5"),
    # A value of another kind than its default's is refused, not coerced.
    ("custom", {**OUTAGE_RUN, "seed": 1.7}, "seed must be an integer, not 1.7"),
    ("custom", {**OUTAGE_RUN, "trials": 1000.9},
     "trials must be an integer, not 1000.9"),
    ("custom", {**OUTAGE_RUN, "m-rx": 2.7}, "m_rx must be an integer, not 2.7"),
    ("custom", {**OUTAGE_RUN, "n-users": 2.9},
     "n_users must be an integer, not 2.9"),
    ("custom", {**OUTAGE_RUN, "gain-trials": 10.5},
     "gain_trials must be an integer, not 10.5"),
    ("custom", {**OUTAGE_RUN, "asymptote": "no"},
     "asymptote must be true or false, not 'no'"),
    ("custom", {**OUTAGE_RUN, "m-rx": True, "receivers": ["wl-zf"]},
     "m_rx must be an integer, not True"),
    ("custom", {**OUTAGE_RUN, "trials": "lots"},
     "trials must be an integer, not 'lots'"),
    ("custom", {**OUTAGE_RUN, "seed": "lots"}, "seed must be an integer, not 'lots'"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1.5], "user-grid": [64]},
     "m_rx entries must be an integer, not 1.5"),
    ("fig4-mmtc-drop", {"ttis": 1000, "m-rx": [1], "user-grid": [64.9]},
     "user_grid entries must be an integer, not 64.9"),
    # WL-SIC gains need beta1(N, 2M), which takes 2M <= 64.
    ("custom", {**OUTAGE_RUN, "m-rx": 33, "receivers": ["wl-zf", "wl-zf-sic"]},
     M_RX_33),
    ("fig3-wl-vs-cl", {"m-rx": 33}, M_RX_33),
    # 2^(D R) - 1 overflows a float above R = 512 for WL.
    ("custom", {**OUTAGE_RUN, "rate": 600, "receivers": ["wl-zf"],
                "gain-trials": 100}, "rate 600 is too large"),
    # ... and rounds to 1 below about R = 1e-16, which would leave gamma_T = 0.
    ("custom", {"rate": 1.0e-17, "m-rx": 2, "n-users": 2,
                "receivers": ["wl-zf", "wl-mmse-sic"], "power-control": ["ppc", "none"],
                "snr-db": [10.0, 20.0], "gain-trials": 100},
     "rate 1e-17 is too small"),
    # The linear SNR of a point beyond 300 dB under- or overflows in the kernel.
    ("custom", {"receivers": ["wl-mmse"], "power-control": "ppc", "asymptote": False,
                "snr-db": [-4000.0]}, "snr_db must be"),
    ("custom", {"receivers": ["wl-zf"], "snr-db": [10.0, 4000.0]}, "snr_db must be"),
    # Integers too large for a float, or for the int64 event counters.
    ("custom", {**OUTAGE_RUN, "m-rx": 10**400}, "too large for a float"),
    ("custom", {**OUTAGE_RUN, "snr-db": [10**400]}, "snr_db must be"),
    ("custom", {**OUTAGE_RUN, "trials": 10**400}, "trials must be at most"),
    ("custom", {**OUTAGE_RUN, "gain-trials": 2**63}, "gain_trials must be at most"),
    ("fig1-eig-cdf", {"trials": 2**63}, "trials must be at most"),
    ("fig4-mmtc-drop", {"ttis": 2**63, "m-rx": [1], "user-grid": [64]},
     "ttis must be at most"),
])
def test_main_refuses_bad_options_before_any_draw(tmp_path, capsys,
                                                  experiment, options, named):
    # A case's `seed` and `trials` are the config's top-level fields.
    top = {key: options[key] for key in ("seed", "trials") if key in options}
    trials = {"trials": 1000} if "trials" in keywords(experiment) else {}
    assert_refused_before_any_draw(tmp_path, capsys, named, {
        "experiment": experiment, "seed": 3, **trials, **top,
        "options": {key: v for key, v in options.items() if key not in top}})


def test_options_take_values_of_their_default_kind():
    # A rate or grid default of floats takes ints too; a name list takes
    # one name; flags, counts and lists take their own kind.
    ExperimentConfig("custom", trials=1000, options={
        "m_rx": 2, "n_users": 2, "rate": 2, "snr_db": [10, 20.5],
        "receivers": "wl-zf", "power_control": ["ppc"], "asymptote": False,
        "gain_trials": 1000})
    ExperimentConfig("fig4-mmtc-drop", options={"ttis": 1000, "m_rx": [1, 2],
                                                "user_grid": [64, 128]})


@pytest.mark.parametrize("experiment", ["custom", "fig2-wl-outage"])
def test_main_refuses_too_few_trials_before_any_draw(tmp_path, capsys, experiment):
    # `trials` is a top-level field, so these cases sit beside the option
    # cases above rather than among them.
    assert_refused_before_any_draw(tmp_path, capsys, "trials must be at least 1000", {
        "experiment": experiment, "seed": 3, "trials": 10, "options": OUTAGE_RUN})


@pytest.mark.parametrize("experiment", ["fig3-wl-vs-cl", "fig4-mmtc-drop",
                                        "fig5-mmtc-throughput"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_main_refuses_trials_the_experiment_does_not_read(tmp_path, capsys,
                                                          experiment, where):
    # Such a count would change the config hash and nothing else.
    doc = {"experiment": experiment, "seed": 3}
    if where == "config":
        doc["trials"] = 7
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {**doc, "out-dir": str(out)})
    assert main(["run", str(p), "--trials", "5"] if where == "flag"
                else ["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert f"{experiment} does not read trials" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("seed", [1, 3])
def test_main_reports_an_estimate_it_cannot_form_in_one_line(tmp_path, capsys,
                                                             seed):
    # At N = 4 < gamma_T + 1 = 8 the PPC WL-MMSE-SIC gain is the sampled
    # bracket, and two gain samples can both clip to zero, which leaves no
    # moment to take the coding gain from (seeds 1 and 3 do); the WL-ZF
    # curve before it has an exact gain and finishes.  The refused run
    # leaves an earlier run's CSVs and sidecar as they were, and makes no
    # directory that did not exist.
    options = {"power-control": "ppc", "m-rx": 2, "n-users": 4, "rate": 1.5,
               "receivers": ["wl-zf", "wl-mmse-sic"], "snr-db": [20.0]}
    out = tmp_path / "out"
    earlier = write_yaml(tmp_path / "earlier.yaml", {
        "experiment": "custom", "seed": seed, "trials": 2000, "out-dir": str(out),
        "options": {**options, "gain-trials": 1000}})
    assert main(["run", str(earlier)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 3
    capsys.readouterr()
    for where in (out, tmp_path / "new"):
        p = write_yaml(tmp_path / "c.yaml", {
            "experiment": "custom", "seed": seed, "trials": 1000,
            "out-dir": str(where), "options": {**options, "gain-trials": 2}})
        assert main(["run", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("custom: moment estimate vanished")
        assert "increase gain_trials" in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("receiver, n_users", [("wl-zf", 1), ("wl-mmse", 2), ("cl-zf", 2)])
def test_main_reports_a_moment_that_overflows_in_one_line(tmp_path, capsys,
                                                          receiver, n_users):
    # Without power control at M = 24 some samples xi^-d overflow a float,
    # so the sampled coding gain has no moment: one line, no warning, and
    # nothing written.
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "trials": 1000, "out-dir": str(out),
        "options": {"gain-trials": 2000, "snr-db": [20], "power-control": "none",
                    "m-rx": 24, "n-users": n_users, "receivers": [receiver]}})
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("custom: moment estimate overflows a float")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


def test_main_refuses_an_asymptote_that_overflows(tmp_path, capsys):
    # At rate 400 the PPC WL-ZF coding gain is about 1e-240, so (C snr)^(-d)
    # overflows to inf at every SNR of the grid; that is no probability.
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "out-dir": str(out),
        "options": {"m-rx": 2, "n-users": 2, "rate": 400,
                    "receivers": ["wl-zf"], "power-control": "ppc",
                    "snr-db": [10.0, 60.0], "gain-trials": 100}})
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("custom: asymptote (C snr)^(-d) overflows")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("receiver, refused", [
    ("wl-zf", False), ("wl-mmse", False), ("cl-zf", False), ("cl-mmse", False),
    ("cl-mmse-sic", False),             # N = 2 < gamma_T + 1: the closed bracket
    ("cl-zf-sic", False),               # the closed uniform-spacings moment
    ("wl-zf-sic", True), ("wl-mmse-sic", True),     # beta1 takes 2M <= 64
])
def test_main_at_200_antennas_writes_a_finite_asymptote_or_refuses(
        tmp_path, capsys, monkeypatch, receiver, refused):
    # Gamma(d) overflows a float at d = 199, so the prefactors are formed in
    # logs; a gain past a routine's declared M is refused before any stream
    # is derived, and nothing is written.
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "trials": 1000, "out-dir": str(out),
        "options": {"m-rx": 200, "n-users": 2, "power-control": "ppc",
                    "snr-db": [-10.0, 20.0], "gain-trials": 1000,
                    "receivers": [receiver]}})
    streams = []
    monkeypatch.setattr("wlmimo.cli.derive_rng",
                        lambda *key: streams.append(key) or derive_rng(*key))
    status = main(["run", str(p)])
    captured = capsys.readouterr()
    if refused:
        assert status == 2 and "m_rx" in captured.err and captured.out == ""
        assert streams == [] and not out.exists()
        return
    assert status == 0
    with open(out / f"custom-ppc-{receiver}.csv", encoding="utf-8") as f:
        p_asym = [float(row["p_asym"]) for row in csv.DictReader(f)]
    assert all(math.isfinite(v) for v in p_asym) and p_asym[0] > 0


@pytest.mark.parametrize("experiment, options, named", [
    # beta1 bounds a WL-SIC gain in either power mode.
    ("custom", {"m-rx": 33, "n-users": 2, "power-control": "none",
                "receivers": ["wl-zf-sic"], "snr-db": [20.0]}, M_RX_33),
    # fig3 checks its 32 gains against the exact moments' bounds too; with
    # the Haar-minimum bound lowered to M = 1, its M = 2 is past it.
    ("fig3-wl-vs-cl", {"gain-trials": 1000}, "m_rx <= 1, not 2"),
])
def test_main_refuses_a_gain_outside_its_domain_before_any_stream(
        tmp_path, capsys, monkeypatch, experiment, options, named):
    monkeypatch.setattr(outage_analysis, "MIN_MOMENT_MAX_M", 1)
    outage_analysis._log_min_moment.cache_clear()   # a cached moment skips the bound
    streams = []
    monkeypatch.setattr("wlmimo.cli.derive_rng",
                        lambda *key: streams.append(key) or derive_rng(*key))
    trials = {"trials": 1000} if "trials" in keywords(experiment) else {}
    assert_refused_before_any_draw(tmp_path, capsys, named, {
        "experiment": experiment, "seed": 3, **trials, "options": options})
    assert streams == []


def test_main_refuses_a_wl_mmse_gain_beyond_the_float_range_in_one_line(
        tmp_path, capsys, monkeypatch):
    # At M = 256, N = 512, R = 0.03 the exact moment is e^-820.6, inside its
    # declared M, and C = K [E w]^(-1/d) is e^1645: an estimate, not a config,
    # that cannot be formed.
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "trials": 1000, "out-dir": str(out),
        "options": {"m-rx": 256, "n-users": 512, "rate": 0.03, "power-control": "ppc",
                    "snr-db": [20.0], "receivers": ["wl-mmse"]}})
    streams = []
    monkeypatch.setattr("wlmimo.cli.derive_rng",
                        lambda *key: streams.append(key) or derive_rng(*key))
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("custom: coding gain e^1644.")
    assert "outside the float range" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert streams == [] and not out.exists()


def test_main_leaves_other_arithmetic_errors_to_the_traceback(tmp_path,
                                                               monkeypatch):
    # Only EstimateError is a refusal; any other ArithmeticError is a fault.
    def runner(cfg):
        raise ZeroDivisionError("a fault")
    monkeypatch.setitem(EXPERIMENTS, "custom", (runner, *EXPERIMENTS["custom"][1:]))
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "out-dir": str(tmp_path / "out")})
    with pytest.raises(ZeroDivisionError):
        main(["run", str(p)])


def test_main_leaves_a_fault_in_the_moment_code_to_the_traceback(tmp_path,
                                                                 monkeypatch):
    # A ValueError that is no DomainError is a fault, not a bad option, even
    # where the runner checks its gains before the first draw.
    def broken(*args):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(outage_analysis, "_log_min_moment", broken)
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "fig3-wl-vs-cl", "seed": 1, "out-dir": str(out)})
    with pytest.raises(ValueError, match="operands") as err:
        main(["run", str(p)])
    assert type(err.value) is ValueError and not out.exists()


def test_main_leaves_a_broken_count_after_the_draws_to_the_traceback(tmp_path,
                                                                     monkeypatch):
    # More events than trials breaks the simulator's invariant, which
    # wilson_interval checks; that is a fault mid-run, not a bad option.
    def broken(rx, cfg, snr_db, trials, rng):
        return outage_analysis.OutageCurve(snr_db, np.full(len(snr_db), trials + 1),
                                           trials)
    monkeypatch.setattr("wlmimo.cli.outage_mc", broken)
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {
        "experiment": "custom", "seed": 1, "trials": 1000, "out-dir": str(out),
        "options": {"snr-db": [10.0], "receivers": ["wl-zf"]}})
    with pytest.raises(ValueError, match=r"successes must lie in \[0, trials\]") as err:
        main(["run", str(p)])
    assert type(err.value) is ValueError and not out.exists()


def assert_refused_before_any_draw(tmp_path, capsys, named, doc):
    """Exit 2 with `named` in the diagnostic, no traceback, nothing written."""
    out = tmp_path / "out"
    p = write_yaml(tmp_path / "c.yaml", {**doc, "out-dir": str(out)})
    assert main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_experiments_refuse_options_their_runner_does_not_read(experiment):
    reads = keywords(experiment) - {"trials"}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment, options={"n_user": 2})
    assert "'n_user'" in str(err.value)
    assert all(repr(key) in str(err.value) for key in reads)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@pytest.mark.parametrize("key", ["trials", "cfg", "out"])
def test_experiments_refuse_a_runner_argument_as_an_option(experiment, key):
    # `trials` is a top-level field; `cfg` and `out` are not options at all.
    with pytest.raises(ConfigError, match=f"does not read options \\['{key}'\\]"):
        ExperimentConfig(experiment, options={key: 1})


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_each_runner_reads_every_option_it_declares(experiment):
    runner = EXPERIMENTS[experiment][0]
    source = textwrap.dedent(inspect.getsource(getattr(runner, "func", runner)))
    body = ast.parse(source).body[0].body
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert keywords(experiment) <= read
