"""Tests of the benchmark itself: tracing arithmetic, binding restoration,
the correctness checks and the work-unit formulas.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from checks import CHECKS, outage_curves, read_csv, reference_sinr
from layers import Tracer
from workloads import WORKLOADS

# Reduced sizes: every workload runs in well under a second per pass.
SMALL = {
    "outage": {"trials": 2000, "gain_trials": 4000},
    "asymptotics": {"eig_trials": 100_000, "gain_trials": 4000},
    "mmtc": {"ttis": 1000},
}
SMALL_CHECKS = {
    "outage": {"ref_draws": 100, "xi_draws": 200_000},
    "asymptotics": {"eig_draws": 200_000},
    "mmtc": {"xi_draws": 200_000},
}


@pytest.fixture
def fake_package():
    """fakepkg.inner defines work(); fakepkg.outer binds it by import and calls it twice."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def work(fail=False):
        if fail:
            raise RuntimeError("boom")
        return 1

    def twice(fail=False):
        return outer.work() + outer.work(fail)

    inner.work = work
    outer.work = work
    outer.twice = twice
    mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(mods)
    yield inner, outer
    for name in mods:
        del sys.modules[name]


def _ticks(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_calls(fake_package):
    inner, outer = fake_package
    # twice starts at 0 and ends at 10; its two work() calls take 2 and 3.
    clock = _ticks(0.0, 1.0, 3.0, 4.0, 7.0, 10.0)
    layers = (("inner", "work"), ("outer", "twice"))
    with Tracer("fakepkg", layers, clock) as tracer:
        assert outer.twice() == 2
    summary = tracer.summary()
    assert summary["outer.twice.self_s"] == pytest.approx(5.0)
    assert summary["inner.work.self_s"] == pytest.approx(5.0)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(tracer.spans[0].duration)


def test_bindings_restored_after_an_error(fake_package):
    inner, outer = fake_package
    original = inner.work
    tracer = Tracer("fakepkg", (("inner", "work"), ("outer", "twice")))
    with pytest.raises(RuntimeError):
        with tracer:
            assert sorted(tracer.bindings) == [("fakepkg.inner", "work"),
                                               ("fakepkg.outer", "twice"),
                                               ("fakepkg.outer", "work")]
            outer.twice(fail=True)
    assert inner.work is original and outer.work is original
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.bindings == []


def _wlmimo_bindings() -> dict:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "wlmimo" or name.startswith("wlmimo.")
            for attr, value in vars(mod).items() if callable(value)}


def test_every_wlmimo_binding_patched_and_restored(tmp_path):
    from wlmimo import cli

    before = _wlmimo_bindings()
    workload = WORKLOADS["outage"](**SMALL["outage"])
    with Tracer() as tracer:
        patched = set(tracer.bindings)
        # The `from .x import y` copies are the ones the package calls through.
        assert {("wlmimo.outage_analysis", "batched_tagged_sinr"),
                ("wlmimo.outage_analysis", "sample_channel"),
                ("wlmimo.mmtc_sim", "sample_large_scale"),
                ("wlmimo.cli", "outage_mc"), ("wlmimo.cli", "run"),
                ("wlmimo.link_model", "sample_large_scale")} <= patched
        for name, attr in patched:
            assert getattr(sys.modules[name], attr) is not before[(name, attr)]
        for exp in workload.experiments:
            cli.run(exp.config(1, str(tmp_path)))
    assert _wlmimo_bindings() == before
    assert any(s.name == "receivers.batched_tagged_sinr" for s in tracer.spans)


def _small_pass(name: str, out: Path):
    from wlmimo import cli

    workload = WORKLOADS[name](**SMALL[name])
    p = run.run_pass(cli, workload, 2024, out, trace=True)
    assert not p.error
    return workload, p


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_units_match_traced_counts(name, tmp_path):
    workload, p = _small_pass(name, tmp_path / "pass")
    layers = p.layers
    if name == "outage":
        assert workload.work_units == 12 * 10 * SMALL[name]["trials"]
        assert layers["outage_analysis.outage_mc.requested"] == workload.work_units
        assert layers["outage_analysis.outage_mc.rows_drawn"] == workload.work_units
        assert layers["receivers.batched_tagged_sinr.rows"] == workload.work_units
    elif name == "asymptotics":
        eig, gains = SMALL[name]["eig_trials"], SMALL[name]["gain_trials"]
        assert workload.work_units == 4 * eig + 32 * gains
        assert layers["wishart_asymptotics.sample_kth_eigenvalue.samples"] == 4 * eig
        assert layers["outage_analysis.gain_for.calls"] == 32
        assert "receivers.batched_tagged_sinr.calls" not in layers
    else:
        assert workload.work_units == 2 * 6 * 19 * SMALL[name]["ttis"]
        assert layers["mmtc_sim.run_scenario.ttis"] == workload.work_units
        assert layers["mmtc_sim.run_scenario.calls"] == 2 * 6 * 19


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """One small pass per workload at the reference seed, with its prepared checker."""
    from wlmimo import cli

    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    out = {}
    for name in WORKLOADS:
        workload = WORKLOADS[name](**SMALL[name])
        d = tmp_path_factory.mktemp(name)
        p = run.run_pass(cli, workload, 2024, d / "pass")
        assert not p.error
        checker = CHECKS[name](workload, reference, 7, **SMALL_CHECKS[name])
        checker.prepare()
        out[name] = (checker, p.out_dir)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_unchanged_output(checked, name):
    checker, out_dir = checked[name]
    results = checker.check(out_dir)
    assert results and all(r == "" for r in results.values()), results


def _perturbed(src: Path, dst: Path, file: str, columns, factor: float, trials=None):
    shutil.copytree(src, dst)
    cols = read_csv(src / file)
    header = list(cols)
    for c in columns:
        v = np.minimum(cols[c] * factor, 1.0) if c != "p_asym" else cols[c] * factor
        if trials is not None and c == "p_out":
            v = np.round(v * trials) / trials
        cols[c] = v
    lines = [",".join(header)]
    for i in range(len(cols[header[0]])):
        lines.append(",".join(str(cols[h][i]) for h in header))
    (dst / file).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name,file,columns,reason", [
    ("outage", "fig2-ppc-wl-zf.csv", ["p_out", "ci_lo", "ci_hi"], "exact law"),
    ("outage", "fig2-ppc-wl-mmse.csv", ["p_out", "ci_lo", "ci_hi"], "outage table"),
    ("outage", "fig2-ppc-wl-zf-sic.csv", ["p_out", "ci_lo", "ci_hi"], "outage table"),
    ("outage", "fig2-ppc-wl-zf-sic.csv", ["p_asym"], "coding gain"),
    ("asymptotics", "fig3-a-cl-zf.csv", ["p_asym"], "closed form"),
    ("asymptotics", "fig1-k1-n2-m4.csv", ["cdf_emp", "ci_lo", "ci_hi"], "reference"),
    ("mmtc", "fig4-wl-m1.csv", ["drop_prob", "ci_lo", "ci_hi"], "per-packet law"),
    ("mmtc", "fig5-cl-half-m2.csv", ["throughput"], "per-packet law"),
])
def test_checks_reject_perturbed_output(checked, tmp_path, name, file, columns, reason):
    checker, out_dir = checked[name]
    trials = SMALL["outage"]["trials"] if name == "outage" else None
    _perturbed(out_dir, tmp_path / "bad", file, columns, 1.5, trials)
    results = checker.check(tmp_path / "bad")
    assert reason in results[file], results[file]
    assert all(r == "" for f, r in results.items() if f != file)


def test_an_experiment_that_raises_does_not_stop_the_pass(tmp_path):
    class FailingFirst:
        def __init__(self):
            self.ran = []

        def run(self, cfg):
            self.ran.append(cfg.experiment)
            if len(self.ran) == 1:
                raise ValueError("Singular matrix")

    cli = FailingFirst()
    workload = WORKLOADS["outage"]()
    p = run.run_pass(cli, workload, 1, tmp_path / "pass")
    assert cli.ran == ["fig2-wl-outage", "custom"]
    assert p.error == "fig2-wl-outage: ValueError: Singular matrix"
    ok = run.Pass(1, tmp_path, 2.0, 2.0)
    assert run.clean([p, ok]) == [ok] and run.clean([p]) == [p]


def test_a_draw_the_reference_refuses_is_nan():
    curve = next(c for c in outage_curves(WORKLOADS["outage"]()) if c.file == "fig2-ppc-wl-zf.csv")
    h = np.random.default_rng(0).standard_normal((2, 4, 4))
    h[1, :, 1] = h[1, :, 0]     # square and singular: ZF is undefined
    sinr = reference_sinr(curve, h, np.ones((2, 4)), 100.0)
    assert np.isfinite(sinr[0]) and np.isnan(sinr[1])


def test_a_raising_kernel_fails_its_curve(monkeypatch):
    import wlmimo.receivers

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(wlmimo.receivers, "batched_tagged_sinr", singular)
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    checker = CHECKS["outage"](WORKLOADS["outage"](), reference, 7, ref_draws=4)
    assert "batched_tagged_sinr raised" in checker._kernel(checker.curves[0])


def test_missing_output_fails(checked, tmp_path):
    checker, out_dir = checked["mmtc"]
    shutil.copytree(out_dir, tmp_path / "partial")
    (tmp_path / "partial" / "fig5-wl-m2.csv").unlink()
    assert checker.check(tmp_path / "partial")["fig5-wl-m2.csv"] == "missing"


def test_percentile_rule():
    assert run.percentile_rule(list(range(10))) == (None, None)
    q, value = run.percentile_rule([float(v) for v in range(20)])
    assert q == 50.0 and value == 9.0   # ten samples (10..19) lie above it
