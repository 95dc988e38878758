"""Compare the artifacts of two rumkit CLI output directories.

For every file in either directory it prints "identical bytes", or else one
line per compared item: "identical", or the largest absolute deviation and
that deviation relative to the largest magnitude of the item. The items are
each CSV column and each .npz array, and each JSON leaf that differs (a list
of numbers is one array; strings, booleans and null must be equal). Any other
file is compared byte for byte.

Usage: python scripts/compare_artifacts.py DIR_A DIR_B

Exits 0 when every file is byte-identical, 1 otherwise.
"""

import json
import sys
from pathlib import Path

import numpy as np


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_leaves(obj, path=""):
    """(path, leaf) pairs; a list of numbers is one leaf, as a float array."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from json_leaves(val, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list) and obj and all(map(_is_number, obj)):
        yield path, np.asarray(obj, dtype=float)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from json_leaves(val, f"{path}[{i}]")
    elif _is_number(obj):
        yield path, np.asarray(obj, dtype=float)
    else:
        yield path, obj


def csv_columns(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    return {name: data[:, i] for i, name in enumerate(header)}


def npz_arrays(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def compare_values(a, b) -> tuple[bool, str]:
    """(equal, description) of two leaves: arrays by deviation, others by ==."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        same = type(a) is type(b) and a == b
        return same, "identical" if same else f"{a!r} != {b!r}"
    if a.shape != b.shape:
        return False, f"shape {a.shape} != {b.shape}"
    if a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        same = bool(np.array_equal(a, b))
        return same, "identical" if same else "values differ"
    a, b = a.astype(float), b.astype(float)
    if np.array_equal(a, b, equal_nan=True):
        return True, "identical"
    finite = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~finite], b[~finite], equal_nan=True):
        return False, "non-finite entries differ"
    dev = float(np.max(np.abs(a[finite] - b[finite])))
    scale = float(np.max(np.abs(np.concatenate([a[finite], b[finite]]))))
    return False, f"max |diff| {dev:.3g}, {dev / scale:.3g} of max |value| {scale:.6g}"


def compare_file(path_a: Path, path_b: Path) -> tuple[bool, list[str]]:
    """(byte-identical, lines) for one pair of files with the same name."""
    if path_a.read_bytes() == path_b.read_bytes():
        return True, ["identical bytes"]
    suffix = path_a.suffix
    if suffix == ".json":
        items_a = dict(json_leaves(json.loads(path_a.read_text())))
        items_b = dict(json_leaves(json.loads(path_b.read_text())))
    elif suffix == ".csv":
        items_a, items_b = csv_columns(path_a), csv_columns(path_b)
    elif suffix == ".npz":
        items_a, items_b = npz_arrays(path_a), npz_arrays(path_b)
    else:
        return False, ["bytes differ"]
    lines = []
    for name in sorted(items_a.keys() | items_b.keys()):
        if name not in items_a or name not in items_b:
            lines.append(f"{name}: only in {'A' if name in items_a else 'B'}")
            continue
        same, text = compare_values(items_a[name], items_b[name])
        if not (same and suffix == ".json"):
            lines.append(f"{name}: {text}")
    return False, lines or ["values identical, bytes differ"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python scripts/compare_artifacts.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    names = sorted(
        {p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()}
    )
    all_same = True
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            all_same = False
            print(f"{name}: only in {'A' if path_a.is_file() else 'B'}")
            continue
        same, lines = compare_file(path_a, path_b)
        all_same &= same
        if same:
            print(f"{name}: {lines[0]}")
        else:
            for line in lines:
                print(f"{name} {line}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
