"""Checks of the benchmark harness itself, at smoke sizes.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload, trace):
    out = bench(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_by_name_with_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert 0 <= result["failed"] <= result["attempted"]
    if workload == "screen_batch":
        assert result["correct"]
    if trace and workload == "screen_batch":
        # the bypass workload never reaches characteristics
        assert result["metrics"]["characteristics.build_omega_s"]["value"] == 0.0
        assert result["metrics"]["characteristics.ratio_calls"]["value"] == 0.0
        assert result["metrics"]["characteristics.calls"]["value"] == 0.0


def screen_once(tmp_path, flip=None):
    inp = workloads.build_inputs("screen_batch", smoke=True)
    if flip is not None:
        fs = inp["fields"][flip]
        fs.expect_dz = not fs.expect_dz
    r = Recorder("test")
    return r.run_pass(
        0, 3, "plain", lambda r, seed: workloads.screen_pass(r, inp, seed, tmp_path)
    )


def test_flipped_verdict_is_a_failed_operation(tmp_path):
    assert sum(screen_once(tmp_path).failed.values()) == 0
    rec = screen_once(tmp_path, flip=0)
    assert dict(rec.failed) == {"symmetry": 1}
    assert rec.failures == [
        "symmetry.daly_zachary: lin Daly-Zachary verdict True, expected False"
    ]
    # a miss does not abort: every stage of every field still ran
    assert rec.calls == screen_once(tmp_path).calls


def test_counting_wrapper_reaches_build_omega():
    inp = workloads.build_inputs("identify_wide_log", smoke=True)
    r = Recorder("test")
    rec = r.run_pass(
        0, 3, "spans", lambda r, seed: workloads.identify_pass(r, inp, seed)
    )
    assert rec.values["characteristics.ratio_calls"] > 0
    assert rec.values["characteristics.ratio_points"] >= rec.values["characteristics.ratio_calls"]
    assert [sp["name"] for sp in r.spans if sp["parent"] == 0][:2] == [
        "model.tabulate", "field.subsample",
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(
        "--workload", "screen_batch", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
