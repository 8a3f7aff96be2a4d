"""Set-up probe: import wlmimo with numpy, scipy and yaml, then make one warm-up call.

Run in a fresh process by `run.py`, which times the whole process:

    python3 perfbench/setup_probe.py <workload> <out_dir>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import yaml  # noqa: E402,F401
from wlmimo import cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    workload_name, out_dir = argv
    cli.run(WORKLOADS[workload_name]().warmup.config(seed=0, out_dir=out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
