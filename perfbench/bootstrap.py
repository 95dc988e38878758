"""Process set-up shared by the benchmark's entry points; import it first.

Pins BLAS and OpenMP pools to one thread before numpy loads, and puts the
checkout's own ``src`` on the import path, so the benchmark always measures the
source tree it ships with and never an installed copy.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "rumkit" / "__init__.py").is_file():
    sys.exit(f"rumkit sources not found under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
