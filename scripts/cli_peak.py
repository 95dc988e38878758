"""Run one rumkit command in a child process and print its exit code, wall
time and peak resident set size (the child's ru_maxrss, in MiB).

The child runs `python -m rumkit.cli ARGS...` with this checkout's src/ first
on PYTHONPATH. Standard library only; Linux reports ru_maxrss in KiB.

Usage: python scripts/cli_peak.py identify field.csv --out run --force
Exits with the child's exit code.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "rumkit.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=path))
    _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)
    print(f"exit {code}  wall {wall:.2f} s  peak {usage.ru_maxrss / 1024:.1f} MiB")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
