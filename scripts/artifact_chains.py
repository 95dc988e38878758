"""Run three simulate → check → identify → verify chains with this
checkout's src/ and print the exit code of every command.

Each chain verifies twice: `verify --integrator monte_carlo` first, whose
report is kept as verify_report_mc.json, then the default quadrature verify,
which writes verify_report.json.

Each command runs in its own child process, `python -m rumkit.cli ARGS...`
with this checkout's src/ first on PYTHONPATH, and each chain writes its model
file and every artifact into one directory under OUT_DIR:

- lin51: the 51³ linear Gumbel field on [−6, 6]; check and identify at
  `--tol-condition-a 0.02`, identify `--resolution 21 --v-nodes 61`;
- log41: the 41³ log field (α = 1, 2, 0.5) on [0.05, 20]; identify
  `--force --basis log_polynomial`;
- lin21_j3: the J = 3 21⁴ linear Gumbel field on [−6, 6]; identify
  `--force --resolution 21`.

To compare two checkouts, run each one's copy of this script into its own
OUT_DIR, then `python scripts/compare_artifacts.py OUT_A OUT_B`.

Usage: python scripts/artifact_chains.py OUT_DIR
Exits 0 once every chain has run; the exit codes are printed, not judged.
The commands' own reports go to the output directories, their stderr
messages (an exit 1 or 3 explains itself there) to this script's stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _model(kind, params, lo, hi):
    return {
        "alternatives": len(params),
        "utilities": [{"kind": kind, "params": p} for p in params],
        "noise": {"kind": "gumbel_iid", "scale": 1.0},
        "domain": [[lo, hi]] * len(params),
    }


# name: (model document, --grid value per axis, check, identify options)
CHAINS = {
    "lin51": (
        _model("linear", [[0.0, 1.0]] * 3, -6.0, 6.0), "-6:6:51",
        ["--tol-condition-a", "0.02"],
        ["--tol-condition-a", "0.02", "--resolution", "21", "--v-nodes", "61"],
    ),
    "log41": (
        _model("log", [[1.0], [2.0], [0.5]], 0.05, 20.0), "0.05:20:41",
        [], ["--force", "--basis", "log_polynomial"],
    ),
    "lin21_j3": (
        _model("linear", [[0.0, 1.0]] * 4, -6.0, 6.0), "-6:6:21",
        [], ["--force", "--resolution", "21"],
    ),
}


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python scripts/artifact_chains.py OUT_DIR", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    for name, (doc, axis, check, identify) in CHAINS.items():
        out = Path(argv[0]) / name
        out.mkdir(parents=True, exist_ok=True)
        (out / "model.json").write_text(json.dumps(doc, indent=2) + "\n")
        fld = ["--field", str(out / "field.csv"), "--out", str(out)]
        commands = {
            "simulate": ["simulate", "--model", str(out / "model.json"), "--out", str(out)]
            + [f"--grid={axis}"] * len(doc["domain"]),
            "check": ["check", *fld, *check],
            "identify": ["identify", *fld, *identify],
            "verify_mc": ["verify", *fld, "--integrator", "monte_carlo"],
            "verify": ["verify", *fld],
        }
        for label, cmd in commands.items():
            code = subprocess.run([sys.executable, "-m", "rumkit.cli", *cmd], env=env,
                                  stdout=subprocess.DEVNULL).returncode
            report = out / "verify_report.json"
            if label == "verify_mc" and report.exists():
                report.replace(out / "verify_report_mc.json")
            print(f"{name} {label}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
