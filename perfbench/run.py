"""The wlmimo benchmark: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload outage --seed 1 --seconds 15 --trace 0

The run imports `wlmimo` from `src/` of the checkout that holds this file
and calls `wlmimo.cli.run` in this process, with no worker processes or
threads of its own (the BLAS thread default is left alone and recorded).
A first pass at the seed reference's seed warms caches and gives
`cli.csv_changed`; then passes with seeds derived from `--seed` repeat
until `--seconds` have passed.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports
the per-layer metrics.  Every time is rescaled to a reference host speed
measured between passes (hostspeed.py).  Every CSV of every pass is
checked (checks.py); the set-up probe (setup_probe.py) runs last, in fresh
processes.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from layers import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference" / "seed_reference.json"

MIN_PASSES = 3
SETUP_PROBES = 5

# name -> unit of the metrics BENCHMARK.json declares; README.md says which
# end-to-end metric each per-layer one should move.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Pass:
    seed: int
    out_dir: Path
    wall_s: float
    cpu_s: float
    error: str = ""              # the experiments that raised, with their errors
    layers: dict | None = None   # per-layer summary of a traced pass
    scale: float = 1.0           # to the reference host speed (hostspeed.py)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def _cpu_s() -> float:
    self_, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF,
                                                  resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, workload, seed: int, out_dir: Path, trace: bool = False,
             spans: list | None = None) -> Pass:
    """Run every experiment of the workload once into `out_dir`.

    An experiment that raises does not stop the others; the outputs it did
    not write are then checked as missing.
    """
    out_dir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    errors = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with tracer or contextlib.nullcontext():
        for exp in workload.experiments:
            try:
                cli.run(exp.config(seed, str(out_dir)))
            except Exception as exc:
                errors.append(f"{exp.name}: " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        if spans is not None:
            spans.append({"seed": seed, "spans": tracer.span_records()})
    return Pass(seed, out_dir, wall, cpu, "; ".join(errors), layers)


def pass_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def csv_changed(out_dir: Path, digests: dict[str, str]) -> int:
    """CSVs whose bytes differ from the seed reference, counting missing and extra files."""
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out_dir.glob("*.csv")}
    return sum(found.get(name) != digests.get(name) for name in set(found) | set(digests))


def percentile_rule(values: list[float]) -> tuple[float | None, float | None]:
    """(q, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child it waited for (Linux KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_setup(workload_name: str, out: Path) -> list[tuple[float, float]]:
    """(wall, scaled wall) of each fresh-process set-up probe."""
    times = []
    before = hostspeed.import_time()
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload_name,
                        str(out / f"setup{i}")], check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = hostspeed.import_time()
        times.append((wall, wall * hostspeed.IMPORT_REFERENCE_S / (0.5 * (before + after))))
        before = after
    return times


def clean(passes: list[Pass]) -> list[Pass]:
    """The passes in which no experiment raised (all of them if none is clean):
    a pass that raised is not a timing of the workload."""
    return [p for p in passes if not p.error] or passes


def median_pass(passes: list[Pass]) -> Pass:
    return sorted(passes, key=lambda p: p.scaled_s)[len(passes) // 2]


def layer_metrics(plain: list[Pass], traced: list[Pass], changed: int) -> dict[str, float]:
    """Per-layer metrics of the median clean traced pass, times scaled like `wall_s`.

    One pass, so its self times add up to its wall time; counts repeat exactly.
    `trace_overhead_s` pairs each traced pass with the untraced one on its
    seed, over the pairs in which neither raised.
    """
    mid, mid_plain = median_pass(clean(traced)), median_pass(clean(plain))
    pairs = [(p, t) for p, t in zip(plain, traced) if not (p.error or t.error)] \
        or list(zip(plain, traced))
    layers = {k: v * mid.scale if k.endswith("_s") else v for k, v in mid.layers.items()}
    requested = layers.get("outage_analysis.outage_mc.requested", 0.0)
    drawn = layers.get("outage_analysis.outage_mc.rows_drawn", 0.0)
    derived = {
        "outage_analysis.outage_mc.samples_per_draw": requested / drawn if drawn else 0.0,
        "cli.csv_changed": changed,
        "process.wall_s": mid.scaled_s,
        "process.cpu_s": mid_plain.cpu_s * mid_plain.scale,
        "process.cpu_util": mid_plain.cpu_s / mid_plain.wall_s,
        "process.trace_overhead_s": statistics.median(
            t.scaled_s - p.scaled_s for p, t in pairs),
    }
    return {name: derived.get(name, layers.get(name, 0.0)) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "wlmimo" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"no wlmimo sources under {SRC} or no seed reference; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    import environment

    env = environment.record()
    sys.path.insert(0, str(SRC))
    import wlmimo
    from wlmimo import cli

    if Path(wlmimo.__file__).resolve().parent != SRC / "wlmimo":
        print(f"imported wlmimo from {wlmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    seed_ref = reference["digests"][workload.name]
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)

    warm = run_pass(cli, workload, seed_ref["seed"], out / "pass0")
    changed = csv_changed(warm.out_dir, seed_ref["files"])
    probe = hostspeed.HostProbe(workload.probe)
    plain, traced, spans = [], [], []
    before = probe.measure()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        i += 1
        seed = pass_seed(args.seed, i)
        runs = [(plain, False)] + ([(traced, True)] if args.trace else [])
        for passes, trace in runs:
            p = run_pass(cli, workload, seed, out / f"pass{i}{'-traced' if trace else ''}",
                         trace=trace, spans=spans)
            after = probe.measure()
            p.scale = probe.scale(before, after)
            passes.append(p)
            before = after
    rss = peak_rss_mb()
    # Only now: the checks load scipy.stats, which the package itself never
    # imports, and would add its memory to `peak_rss_mb`.
    from checks import CHECKS

    checker = CHECKS[workload.name](workload, reference, args.seed)
    checker.prepare()
    attempted = failed = 0
    failures = []
    for p in [warm] + plain + traced:
        for name, reason in sorted(checker.check(p.out_dir).items()):
            attempted += 1
            if reason:
                failed += 1
                failures.append(f"{p.out_dir.name}/{name}: {reason}")
        if p.error:
            failures.append(f"{p.out_dir.name}: raised {p.error}")

    setup = measure_setup(workload.name, out)
    timed = clean(plain)
    scaled = [p.scaled_s for p in timed]
    raw = [p.wall_s for p in timed]
    wall = statistics.median(scaled)
    q, q_value = percentile_rule(scaled)
    if args.trace:
        metrics = layer_metrics(plain, traced, changed)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(t for _, t in setup),
            "wall_s": wall,
            "samples_per_s": workload.work_units / wall,
            "peak_rss_mb": rss,
        }
        units = END_TO_END

    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wall_s scaled: median={wall:.4f} "
          + (f"p{q:.0f}={q_value:.4f}" if q is not None else "p=(needs >= 11 passes)")
          + f" min={min(scaled):.4f} max={max(scaled):.4f} n={len(scaled)}; "
          f"as measured: median={statistics.median(raw):.4f} min={min(raw):.4f} "
          f"max={max(raw):.4f}")
    print(f"work_units={workload.work_units} ({workload.unit_formula})")
    print("setup_s scaled=" + ",".join(f"{t:.4f}" for _, t in setup)
          + " as measured=" + ",".join(f"{w:.4f}" for w, _ in setup))
    print(f"error_rate={failed}/{attempted}={failed / attempted:.4g} cli.csv_changed={changed}")
    if args.trace:
        self_s = {k[:-len(".self_s")]: v for k, v in metrics.items()
                  if k.endswith(".self_s") and k.count(".") == 2}
        dominant = max(self_s, key=self_s.get)
        total = sum(self_s.values())
        print(f"trace accounted={total:.4f} s of traced wall {metrics['process.wall_s']:.4f} s; "
              f"dominant layer {dominant} ({self_s[dominant] / total:.0%} of self time)")
    for line in failures[:20]:
        print("FAILED " + line)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  env=env, wall_measured=raw, wall_scaled=scaled,
                  setup_measured=[w for w, _ in setup], setup_scaled=[t for _, t in setup],
                  work_units=workload.work_units, csv_changed=changed,
                  failures=failures)
    for p in [warm] + plain + traced:
        shutil.rmtree(p.out_dir, ignore_errors=True)
    for i in range(SETUP_PROBES):
        shutil.rmtree(out / f"setup{i}", ignore_errors=True)
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans:
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
