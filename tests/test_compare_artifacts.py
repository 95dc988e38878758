"""scripts/compare_artifacts.py on a directory and a perturbed copy of it."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

from rumkit import field

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_artifacts.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_perturbed_copy(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    report = {"passed": True, "mass": 0.5, "stats": {"worst": [1.0, 4.0]}}
    (a / "report.json").write_text(json.dumps(report))
    field.write_csv_table(a / "table.csv", ["x", "y"], [[1.0, 2.0, 3.0], [10.0, 20.0, 40.0]])
    field.write_npz(a / "arrays.npz", {"f": np.array([2.0, -8.0]), "n": np.arange(3)})
    (a / "notes.txt").write_text("same")
    shutil.copytree(a, b)
    mod = load_script()
    assert mod.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.count("identical bytes") == 4

    report.update(passed=False, mass=0.5 + 1e-12)
    report["stats"]["worst"][1] = 4.5
    (b / "report.json").write_text(json.dumps(report))
    field.write_csv_table(b / "table.csv", ["x", "y"], [[1.0, 2.0, 3.0], [10.0, 20.0, 40.4]])
    field.write_npz(b / "arrays.npz", {"f": np.array([2.0, -8.0 + 4e-3]), "n": np.arange(3)})
    (b / "extra.txt").write_text("new")
    assert mod.main([str(a), str(b)]) == 1
    lines = set(capsys.readouterr().out.splitlines())
    assert lines == {
        "arrays.npz f: max |diff| 0.004, 0.0005 of max |value| 8",
        "arrays.npz n: identical",
        "extra.txt: only in B",
        "notes.txt: identical bytes",
        "report.json mass: max |diff| 1e-12, 2e-12 of max |value| 0.5",
        "report.json passed: True != False",
        "report.json stats.worst: max |diff| 0.5, 0.111 of max |value| 4.5",
        "table.csv x: identical",
        "table.csv y: max |diff| 0.4, 0.0099 of max |value| 40.4",
    }
