"""rumkit benchmark: three pipeline workloads, oracle-checked outputs, stage timings.

Run one workload:

    python3 perfbench/run.py --workload identify_wide_log --seed 1 --seconds 25 --trace 0

Passes through the workload's stages repeat until ``--seconds`` have elapsed
(at least one pass). A traced run cycles through an untraced pass, a pass with
spans and counters, and a pass that also runs tracemalloc, at least once each. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``. The full
record (environment, every pass, and the spans of traced passes) goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Run every workload, untraced and traced, and print one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--smoke`` runs the same stages at reduced sizes; the benchmark's own tests
use it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid

from bootstrap import BENCH_DIR, OUT_DIR, ROOT, SRC, THREAD_VARS

import numpy as np
import scipy

import rumkit
from recorder import Recorder, span_records
from workloads import PASSES, build_inputs, pass_seed

WORKLOADS = ("identify_wide_log", "cli_chain_lin", "screen_batch")
MODULES = ("model", "field", "symmetry", "characteristics", "density", "verify", "cli")
SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "model.tabulate_s": "s",
    "model.tabulate_peak_alloc_mb": "MiB",
    "model.field_mb": "MiB",
    "field.write_csv_s": "s",
    "field.read_csv_s": "s",
    "field.csv_mb": "MiB",
    "field.node_gradients_s": "s",
    "field.check_shape_s": "s",
    "symmetry.fit_ratio_sieve_s": "s",
    "symmetry.daly_zachary_s": "s",
    "symmetry.condition_a_s": "s",
    "characteristics.build_omega_s": "s",
    "characteristics.ratio_calls": "count",
    "characteristics.ratio_points": "count",
    "density.reconstruct_density_s": "s",
    "density.support_fraction": "fraction",
    "verify.round_trip_quadrature_s": "s",
    "verify.round_trip_mc_s": "s",
    "verify.translation_invariance_s": "s",
    "cli.simulate_s": "s",
    "cli.check_s": "s",
    "cli.identify_s": "s",
    "cli.verify_s": "s",
    **{f"{m}.{k}": "count" for m in MODULES for k in ("calls", "failed")},
    "roundtrip_max_err": "prob",
    "roundtrip_mc_max_err": "prob",
    "density_mass_err": "mass",
    "omega_max_err": "rel",
    "trace.overhead_s": "s",
    "trace.memory_overhead_s": "s",
}
TRACE_MODES = ("plain", "spans", "memory")
# figures computed from array sizes, not measured
COMPUTED_BYTES = ("model.field_mb",)


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rumkit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _git_commit() -> str | None:
    # a checkout without .git must not pick up a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(workload: str, smoke: bool) -> float:
    """Median wall time of fresh processes that start, import and build inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in 50 ms steps, which would
        # quantize the measurement; the probe only imports and builds inputs
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(args) -> dict:
    inputs = build_inputs(args.workload, args.smoke)
    body = PASSES[args.workload]
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(run_id=uuid.uuid4().hex[:12])
    t_start = time.perf_counter()
    index = 0
    while True:
        mode = TRACE_MODES[index % 3] if args.trace else "plain"
        recorder.run_pass(
            index, pass_seed(args.seed, index), mode,
            lambda r, seed: body(r, inputs, seed, work_dir),
        )
        index += 1
        enough = index >= (3 if args.trace else 1)
        if enough and time.perf_counter() - t_start >= args.seconds:
            break
    passes = recorder.passes
    by_mode = {m: [p for p in passes if p.mode == m] for m in TRACE_MODES}
    plain_wall = _median([p.wall_s for p in by_mode["plain"]])
    attempted = sum(sum(p.calls.values()) for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)

    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            module, _, key = name.partition(".")
            if key in ("calls", "failed"):
                value = statistics.fmean(getattr(p, key)[module] for p in passes)
            elif name == "trace.overhead_s":
                value = _median([p.wall_s for p in by_mode["spans"]]) - plain_wall
            elif name == "trace.memory_overhead_s":
                value = _median([p.wall_s for p in by_mode["memory"]]) - plain_wall
            elif name.endswith("_s"):
                value = _median([p.stage_s.get(name, 0.0) for p in by_mode["spans"]])
            else:
                value = _median([p.values[name] for p in passes if name in p.values])
            metrics[name] = value
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": plain_wall,
            "setup_s": measure_setup(args.workload, args.smoke),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    record = {
        "environment": environment(args),
        "run_id": recorder.run_id,
        "computed_from_array_sizes": list(COMPUTED_BYTES),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": [
            {
                "index": p.index,
                "seed": p.seed,
                "mode": p.mode,
                "wall_s": p.wall_s,
                "stage_s": dict(p.stage_s),
                "values": p.values,
                "calls": dict(p.calls),
                "failed": dict(p.failed),
                "failures": p.failures,
            }
            for p in passes
        ],
        "spans": span_records(recorder.spans),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for p in passes:
        for failure in p.failures:
            print(f"pass {p.index}: FAILED {failure}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def run_all(args) -> int:
    """Every workload untraced and traced, in fresh processes, as one table."""
    rows, ok = [], True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            share = result["failed"] / result["attempted"]
            rows.append((workload, f"failed_share(trace={trace})", share, "fraction"))
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:18s} {name:{width}s} {value:14.6g} {unit}")
    print(json.dumps({"correct": ok}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)
    if not rumkit.__file__.startswith(str(SRC)):
        print(f"imported rumkit from {rumkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
