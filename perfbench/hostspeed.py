"""Host-speed probe: fixed NumPy kernels timed between the benchmark's passes.

On the 2-vCPU VM this benchmark was built on, the same work takes up to
twice as long from one second to the next and stays slow for tens of
seconds at a time, with no CPU steal visible in /proc/stat. Neither the
median nor the fastest of a run's passes escapes a slow stretch, but fixed
kernels timed just before and just after a pass slow down with it.
Each pass time is therefore rescaled to the reference speed, at which the
kernels take the sum of their `REFERENCE_S`:
`scaled = wall * reference / mean(probe before, probe after)`.

Each workload names the kernels that track it (`Workload.probe`).  Timed
for minutes next to the workloads (interquartile range over median of the
medians of 25-pass windows):

* outage and asymptotics: all four kernels; 0.03-0.06, against 0.10-0.24
  unscaled;
* mmtc: the normal draws and the sort only; 0.03, against 0.14-0.24
  unscaled.  Its passes slow down only about half as much as the batched
  matrix kernels, so with all four the scaling overshot, to 0.07-0.09.

`setup_s` times fresh processes, which track none of these kernels
(0.16-0.18 over 5-process windows).  It is scaled by `import_time()`, a
fresh process that makes only the package's third-party imports, timed
before the first and after every set-up process: 0.04-0.05, against
0.13-0.15 unscaled.  The factor does not depend on the package, so a
change in the package's own share of set-up time moves the scaled time by
the same fraction as the measured one.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Time of each kernel at the reference host speed (their median on the host
# the benchmark was built on, scaled so that the four add up to 16 ms, the
# time of the whole mix at full speed there).  Fixed constants, so scaled
# times compare across runs and commits.
REFERENCE_S = {"inv": 0.00403, "eigvalsh": 0.00845, "normal": 0.00218, "argsort": 0.00135}

# The package's third-party imports, and their fresh-process time at the
# reference host speed (the median on the host the benchmark was built on).
IMPORTS = "import numpy, scipy.special, yaml"
IMPORT_REFERENCE_S = 0.59


def import_time() -> float:
    """Wall time of a fresh Python process that makes the package's third-party imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], check=True)
    return time.perf_counter() - t0


class HostProbe:
    """Times the same small mix of the kernels a workload uses."""

    def __init__(self, kernels: tuple[str, ...]):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4096, 4, 4))
        s = a @ a.transpose(0, 2, 1)
        u = rng.random(50_000)
        run = {
            "inv": lambda: np.linalg.inv(a),
            "eigvalsh": lambda: np.linalg.eigvalsh(s),
            "normal": lambda: np.random.default_rng(1).standard_normal(100_000),
            "argsort": lambda: np.argsort(u),
        }
        self._kernels = [run[k] for k in kernels]
        self.reference_s = sum(REFERENCE_S[k] for k in kernels)

    def _once(self) -> float:
        t0 = time.perf_counter()
        for kernel in self._kernels:
            kernel()
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Probe time now: the faster of two runs."""
        return min(self._once(), self._once())

    def scale(self, before: float, after: float) -> float:
        """Factor taking a time measured between two probes to the reference speed."""
        return self.reference_s / (0.5 * (before + after))
