"""One set-up as a user pays it: interpreter start, ``import rumkit``, and
building a workload's specs and grids. ``run.py`` times this script end to end.

Usage: python3 perfbench/setup_probe.py <workload> [--smoke]
"""

import sys

import bootstrap  # noqa: F401  (thread pinning and import path)
import rumkit  # noqa: F401

from workloads import build_inputs

if __name__ == "__main__":
    build_inputs(sys.argv[1], smoke="--smoke" in sys.argv[2:])
