"""The benchmark's workloads: which `wlmimo` experiments each one runs, at what size.

Every option the package would default is written out, so the requested
work (the numerator of `samples_per_s`) can be computed from the config
alone and a later change of a package default cannot change the benchmark.
The values equal the package defaults at the commit that defined the
benchmark, except the trial/TTI counts, which are reduced so that one pass
of a workload takes about a second or less on a 2-core host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# fig2 and custom default grid: 15, 20, ..., 60 dB.
OUTAGE_SNR_DB = [15.0 + 5.0 * i for i in range(10)]
FIG2_MODES = ["none", "ppc"]
FIG2_RECEIVERS = ["wl-zf", "wl-mmse", "wl-zf-sic", "wl-mmse-sic"]
CUSTOM_RECEIVERS = ["cl-zf", "cl-mmse", "cl-zf-sic", "cl-mmse-sic"]

# fig1 draws `trials` eigenvalues for each of its four (k, n, m) cases and
# fig3 estimates one coding gain per panel x family x criterion x SIC.
FIG1_CASES = ((1, 2, 4), (1, 3, 6), (1, 4, 4), (2, 2, 2))
FIG3_PANELS = (("a", 2, 2, 2.0), ("b", 3, 2, 4.0), ("c", 3, 2, 0.3), ("d", 4, 2, 0.3))
FIG3_SNR_DB = [10.0 + 2.0 * i for i in range(26)]
FIG3_GAINS = len(FIG3_PANELS) * 2 * 2 * 2

# The package's default mMTC population grid, 250 .. 128k in sqrt(2) steps.
MMTC_USER_GRID = [250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000, 5657, 8000,
                  11314, 16000, 22627, 32000, 45255, 64000, 90510, 128000]
MMTC_M_RX = [1, 2]
MMTC_SCENARIOS = (("wl", False), ("cl", False), ("cl", True))

MATRIX_PROBE = ("inv", "eigvalsh", "normal", "argsort")


@dataclass(frozen=True)
class Experiment:
    """One `wlmimo.cli.run` call, minus the seed and the output directory."""

    name: str
    trials: int | None = None
    options: dict = field(default_factory=dict)

    def config(self, seed: int, out_dir: str):
        from wlmimo.cli import ExperimentConfig

        return ExperimentConfig(experiment=self.name, seed=seed, trials=self.trials,
                                out_dir=out_dir, options=dict(self.options))


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[Experiment, ...]
    warmup: Experiment      # smallest legal call, made once by the set-up probe
    probe: tuple[str, ...]  # host-speed kernels that track its passes (hostspeed.py)
    work_units: int         # requested Monte Carlo samples per pass
    unit_formula: str


def outage(trials: int = 2000, gain_trials: int = 10_000) -> Workload:
    fig2 = Experiment("fig2-wl-outage", trials, {
        "m_rx": 2, "n_users": 4, "rate": 2.0, "snr_db": OUTAGE_SNR_DB,
        "power_control": FIG2_MODES, "receivers": FIG2_RECEIVERS,
        "gain_trials": gain_trials,
    })
    custom = Experiment("custom", trials, {
        "m_rx": 2, "n_users": 2, "rate": 2.0, "snr_db": OUTAGE_SNR_DB,
        "power_control": "ppc", "receivers": CUSTOM_RECEIVERS,
        "gain_trials": gain_trials, "asymptote": True,
    })
    curves = len(FIG2_MODES) * len(FIG2_RECEIVERS) + len(CUSTOM_RECEIVERS)
    return Workload(
        name="outage",
        experiments=(fig2, custom),
        warmup=Experiment("custom", 1000, {
            "m_rx": 2, "n_users": 2, "rate": 2.0, "snr_db": [20.0],
            "power_control": "ppc", "receivers": ["cl-zf"], "gain_trials": 1000,
        }),
        probe=MATRIX_PROBE,
        work_units=curves * len(OUTAGE_SNR_DB) * trials,
        unit_formula="sum over curves of trials x SNR points",
    )


def asymptotics(eig_trials: int = 50_000, gain_trials: int = 20_000) -> Workload:
    return Workload(
        name="asymptotics",
        experiments=(
            Experiment("fig1-eig-cdf", eig_trials, {"points": 8}),
            Experiment("fig3-wl-vs-cl", None, {
                "m_rx": 2, "snr_db": FIG3_SNR_DB, "gain_trials": gain_trials,
            }),
        ),
        warmup=Experiment("fig1-eig-cdf", 1000, {"points": 8}),
        probe=MATRIX_PROBE,
        work_units=len(FIG1_CASES) * eig_trials + FIG3_GAINS * gain_trials,
        unit_formula="eigenvalue samples + gain samples",
    )


def mmtc(ttis: int = 2048) -> Workload:
    options = {"ttis": ttis, "m_rx": MMTC_M_RX, "user_grid": MMTC_USER_GRID}
    experiments = (Experiment("fig4-mmtc-drop", None, options),
                   Experiment("fig5-mmtc-throughput", None, options))
    scenarios = len(MMTC_M_RX) * len(MMTC_SCENARIOS)
    return Workload(
        name="mmtc",
        experiments=experiments,
        warmup=Experiment("fig4-mmtc-drop", None,
                          {"ttis": 1000, "m_rx": [1], "user_grid": [250]}),
        probe=("normal", "argsort"),    # no matrix kernel
        work_units=len(experiments) * scenarios * len(MMTC_USER_GRID) * ttis,
        unit_formula="TTIs x grid points x scenarios",
    )


WORKLOADS = {"outage": outage, "asymptotics": asymptotics, "mmtc": mmtc}
