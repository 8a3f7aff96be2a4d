"""Regenerate seed_reference.json: CSV digests and reference statistics.

    python3 perfbench/reference/make_reference.py

* `digests`: sha256 of every CSV each workload writes at `REFERENCE_SEED`;
  `run.py` compares its first pass with them to report `cli.csv_changed`.
* `beta1`: beta_1(n, m) for fig1's k = 1 cases.
* `outage`: for every MMSE and SIC outage curve, the outage count of
  `OUTAGE_DRAWS` draws through the per-draw dual-route reference
  functions at the curve's first `REF_POINTS` SNR points.
* `gains`: coding gains of every Monte Carlo (non-ZF) receiver the
  workloads run under perfect power control, estimated with `GAIN_SAMPLES`
  samples, with the per-sample standard deviation that sets the checks'
  tolerance at the workloads' smaller gain-sample counts.

Rerun it, and say so in the change, only when a change to wlmimo alters
these values on purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from checks import (REF_POINTS, gain_key, outage_curves, reference_sinr,  # noqa: E402
                    sample_draws, threshold)
from workloads import FIG1_CASES, FIG3_PANELS, WORKLOADS  # noqa: E402

REFERENCE_SEED = 2024
GAIN_SAMPLES = 400_000
OUTAGE_DRAWS = 20_000


def gain_cases():
    """(label, m, n, rate) of every PPC gain the checks compare statistically."""
    cases = {(c.label, c.m, c.n, c.rate) for c in outage_curves(WORKLOADS["outage"]())
             if c.mode == "ppc"}
    for _, n_wl, n_cl, rate in FIG3_PANELS:
        for family, n in (("wl", n_wl), ("cl", n_cl)):
            for label in ("mmse", "zf-sic", "mmse-sic"):
                cases.add((f"{family}-{label}", 2, n, rate))
    return sorted(c for c in cases if c[0] not in ("wl-zf", "cl-zf"))


def main() -> int:
    from wlmimo import cli
    from wlmimo.cli import parse_receiver
    from wlmimo.link_model import LinkConfig
    from wlmimo.montecarlo import derive_rng
    from wlmimo.outage_analysis import gain_for
    from wlmimo.wishart_asymptotics import beta1

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=BENCH.parent,
                            capture_output=True, text=True).stdout.strip()
    out = run.OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    digests = {}
    for name, make in WORKLOADS.items():
        p = run.run_pass(cli, make(), REFERENCE_SEED, out / name)
        if p.error:
            raise RuntimeError(p.error)
        digests[name] = {
            "seed": REFERENCE_SEED,
            "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in sorted((out / name).glob("*.csv"))},
        }
    shutil.rmtree(out, ignore_errors=True)

    outage = {}
    for index, curve in enumerate(outage_curves(WORKLOADS["outage"]())):
        if curve.label in ("wl-zf", "cl-zf"):
            continue    # checked against the exact law
        h, xi = sample_draws(curve, OUTAGE_DRAWS,
                             np.random.default_rng([REFERENCE_SEED, 0x07A9E, index]))
        snr_db = curve.snr_db[:REF_POINTS].tolist()
        outages = []
        for db in snr_db:
            sinr = reference_sinr(curve, h, xi, 10.0 ** (db / 10.0))
            if np.isnan(sinr).any():
                raise RuntimeError(f"{curve.file}: the reference refused a draw at {db} dB")
            outages.append(int(np.count_nonzero(sinr < threshold(curve.family, curve.rate))))
        outage[curve.file] = {"snr_db": snr_db, "draws": OUTAGE_DRAWS, "outages": outages}
        print(curve.file, outages, file=sys.stderr)

    gains = {}
    for label, m, n, rate in gain_cases():
        link = LinkConfig(m_rx=m, n_users=n, snr=1.0, rate=rate, power_control="ppc")
        g = gain_for(link, parse_receiver(label), GAIN_SAMPLES,
                     derive_rng(REFERENCE_SEED, "perfbench-gain", label, m, n, str(rate)))
        gains[gain_key(label, m, n, rate, "ppc")] = {
            "coding_gain": g.coding_gain,
            "sd": g.stderr * math.sqrt(GAIN_SAMPLES),
            "samples": GAIN_SAMPLES,
        }
        print(label, m, n, rate, g.coding_gain, g.stderr, file=sys.stderr)

    reference = {
        "commit": commit,
        "generated_by": "python3 perfbench/reference/make_reference.py",
        "digests": digests,
        "beta1": {f"{n},{m}": beta1(n, m) for k, n, m in FIG1_CASES if k == 1},
        "outage": outage,
        "gains": gains,
    }
    (HERE / "seed_reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
