"""Per-layer tracing of `wlmimo` from outside the package.

`Tracer` replaces each public function named in `LAYERS` with a timing
wrapper at every module binding that refers to it: the defining module and
every `from .x import y` copy, which is how `outage_analysis`, `mmtc_sim`,
`cli` and `wishart_asymptotics` call their neighbours.  Spans sit on an
in-memory stack; a span's self time is its duration minus the durations of
its child spans.  Every binding is restored on exit, also after an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, public function) pairs, in layer order.
LAYERS = (
    ("receivers", "batched_tagged_sinr"),
    ("random_matrix", "sample_channel"),
    ("random_matrix", "wl_transform"),
    ("random_matrix", "sample_haar_unit_vector"),
    ("link_model", "sample_power_profile"),
    ("link_model", "sample_large_scale"),
    ("outage_analysis", "outage_mc"),
    ("outage_analysis", "gain_for"),
    ("outage_analysis", "residual_interference_samples"),
    ("outage_analysis", "asymptote_curve"),
    ("wishart_asymptotics", "sample_kth_eigenvalue"),
    ("wishart_asymptotics", "beta1"),
    ("mmtc_sim", "run_scenario"),
    ("montecarlo", "derive_rng"),
    ("montecarlo", "wilson_interval"),
    ("cli", "run"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index of the enclosing span, -1 at the root
    end: float = 0.0
    child_s: float = 0.0
    label: str = ""      # receiver label or experiment name, where one applies

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Context manager that traces the listed functions of one package."""

    def __init__(self, package: str = "wlmimo", layers=LAYERS,
                 clock=time.perf_counter):
        self.package = package
        self.layers = layers
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        try:
            for module_name, fn_name in self.layers:
                module = sys.modules[f"{self.package}.{module_name}"]
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def bindings(self) -> list[tuple[str, str]]:
        """(module, attribute) of every binding currently replaced."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, span, bound.arguments, result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Self times per layer (and per receiver label) plus the counters."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[f"{span.name}.self_s"] += span.self_s
            if span.name == "receivers.batched_tagged_sinr":
                out[f"{span.name}.{span.label}.self_s"] += span.self_s
            elif span.name == "cli.run":
                out[f"cli.run.{span.label}.wall_s"] += span.duration
        out.update(self.counts)
        return dict(out)

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.self_s, "label": s.label}
                for s in self.spans]


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries: hook(tracer, span, args, result)
# ---------------------------------------------------------------------------

def _receivers(t: Tracer, span: Span, a: dict, result) -> None:
    span.label = a["rx"].label.lower()
    t.counts["receivers.batched_tagged_sinr.calls"] += 1
    t.counts["receivers.batched_tagged_sinr.rows"] += len(a["h"])


def _channel(t: Tracer, span: Span, a: dict, result) -> None:
    rows = 1 if a["size"] is None else a["size"]
    t.counts["random_matrix.sample_channel.rows"] += rows
    if t.inside("outage_analysis.outage_mc"):
        t.counts["outage_analysis.outage_mc.rows_drawn"] += rows


def _large_scale(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["link_model.sample_large_scale.samples"] += a["count"]


def _outage_mc(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["outage_analysis.outage_mc.requested"] += a["trials"] * len(result.snr_db)


def _gain(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["outage_analysis.gain_for.calls"] += 1


def _residual(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["outage_analysis.residual_interference_samples.samples"] += a["count"]


def _asymptote(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["outage_analysis.asymptote_curve.p_gt_1"] += int((result > 1.0).sum())


def _eigen(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["wishart_asymptotics.sample_kth_eigenvalue.samples"] += a["trials"]


def _beta1(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["wishart_asymptotics.beta1.calls"] += 1


def _scenario(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["mmtc_sim.run_scenario.calls"] += 1
    t.counts["mmtc_sim.run_scenario.ttis"] += a["ttis"]
    t.counts["mmtc_sim.run_scenario.packets"] += result.offered


def _derive(t: Tracer, span: Span, a: dict, result) -> None:
    t.counts["montecarlo.derive_rng.calls"] += 1


def _run(t: Tracer, span: Span, a: dict, result) -> None:
    cfg = a["cfg"]
    span.label = cfg.experiment
    t.counts["cli.bytes_written"] += sum(
        (Path(cfg.out_dir) / name).stat().st_size for name in result)


HOOKS = {
    "receivers.batched_tagged_sinr": _receivers,
    "random_matrix.sample_channel": _channel,
    "link_model.sample_large_scale": _large_scale,
    "outage_analysis.outage_mc": _outage_mc,
    "outage_analysis.gain_for": _gain,
    "outage_analysis.residual_interference_samples": _residual,
    "outage_analysis.asymptote_curve": _asymptote,
    "wishart_asymptotics.sample_kth_eigenvalue": _eigen,
    "wishart_asymptotics.beta1": _beta1,
    "mmtc_sim.run_scenario": _scenario,
    "montecarlo.derive_rng": _derive,
    "cli.run": _run,
}
