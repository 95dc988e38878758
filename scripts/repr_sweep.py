"""Compare the field CSV writer's shortest-repr kernel with Python's repr.

Draws N random float64 values in each binade [2^e, 2^(e+1)) that meets
[1e-4, 1), 14 binades in all (seeded by SEED), runs them through
rumkit.field._shortest_reprs and checks every entry the kernel decides
against repr. Exits 1 at the first mismatch, printing the value's hex form;
otherwise prints the counts and exits 0. Entries the kernel leaves to repr
(exact ties) are counted, not compared.

Usage: python scripts/repr_sweep.py N SEED
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rumkit import field  # noqa: E402

BATCH = 2**16


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/repr_sweep.py N SEED", file=sys.stderr)
        return 2
    n, seed = int(argv[0]), int(argv[1])
    rng = np.random.default_rng(seed)
    low = int(np.float64(1e-4).view(np.uint64))
    checked = undecided = 0
    for e in range(-14, 0):
        lo = max(int(np.float64(2.0**e).view(np.uint64)), low)
        hi = int(np.float64(2.0 ** (e + 1)).view(np.uint64))
        for start in range(0, n, BATCH):
            x = rng.integers(lo, hi, min(BATCH, n - start), dtype=np.uint64).view(np.float64)
            strings, tie = field._shortest_reprs(x)
            for v, got in zip(x[~tie].tolist(), strings[~tie].tolist()):
                if got != repr(v).encode():
                    print(f"mismatch at {v.hex()}: kernel {got.decode()}, repr {v!r}")
                    return 1
            checked += int((~tie).sum())
            undecided += int(tie.sum())
    print(f"{checked} values match repr, {undecided} left to repr, seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
