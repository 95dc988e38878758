"""Command-line front end: simulate, check, identify, verify, convert.

Each subcommand is deterministic given its flags (seeds included) and writes
artifacts into --out. identify stamps its outputs with a provenance hash of
the field, its grid, every identification setting and the SHA-256 of
identify.npz, so verify can refuse mismatched runs and loads exactly the
omegas and density identify built.

Exit codes: 0 pass, 1 check failed, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import characteristics, density as density_mod, field as field_mod
from . import model as model_mod, symmetry, verify as verify_mod
from .errors import NumericalFailure, ProvenanceError, ValidationError

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

# identify's settings record: written into identify_meta.json, read back by verify
_SETTINGS = ("basis", "degree", "resolution", "v_nodes", "a_ref")


# identify.npz layout: per object, the constructor fields it stores and how
# each is read back; _write_identify_npz and _load_identify both walk these
_OMEGA_FIELDS = {
    "a_ref": float, "aj_lattice": np.asarray, "a0_lattice": np.asarray,
    "lattice_values": np.asarray, "step": float,
}
_DENSITY_FIELDS = {
    "f_values": np.asarray, "F_values": np.asarray, "support_mask": np.asarray,
    "clipped_nodes": int, "min_raw_density": float,
}


def _parse_grid(specs) -> field_mod.GridSpec:
    lower, upper, counts = [], [], []
    for spec in specs:
        try:
            lo, hi, n = spec.split(":")
            lower.append(float(lo))
            upper.append(float(hi))
            counts.append(int(n))
        except ValueError:
            raise ValidationError(f"grid axis must be lo:hi:n, got {spec!r}") from None
    return field_mod.GridSpec(tuple(lower), tuple(upper), tuple(counts))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _provenance_hash(record: dict) -> str:
    """Stamp of a JSON record, the model's or identify_meta.json's: the
    SHA-256 of its sorted keys, every key except the stamp "provenance" itself."""
    payload = json.dumps(
        {k: v for k, v in record.items() if k != "provenance"}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cmd_simulate(args: argparse.Namespace) -> int:
    model = model_mod.ChoiceModelSpec.from_json(args.model_path)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = field_mod.GridSpec(
            tuple(lo for lo, _ in model.domain),
            tuple(hi for _, hi in model.domain),
            tuple(21 for _ in model.domain),
        )
    field = model_mod.tabulate(
        model, grid, method=args.method, n=args.draws, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    field_mod.write_field_csv(field, out / "field.csv")
    _write_json(
        out / "simulate_meta.json",
        {
            "model_hash": _provenance_hash(model.to_dict()),
            "field_hash": field.content_hash(),
            "grid": field_mod.record_dict(grid),
            "method": args.method,
            "seed": args.seed,
            "draws": args.draws if args.method == "monte_carlo" else None,
        },
    )
    return EXIT_PASS


def cmd_check(args: argparse.Namespace) -> int:
    field = field_mod.read_field_csv(args.field_path)
    shape = field_mod.check_shape(field)
    dz = symmetry.test_daly_zachary(field, tol=args.tol_symmetry)
    cond_a = symmetry.test_condition_A(field, m=args.pivot, tol=args.tol_condition_a)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "shape_report.json", shape.to_dict())
    _write_json(out / "symmetry_report.json", dz.to_dict())
    _write_json(out / "condition_a_report.json", cond_a.to_dict())
    if cond_a.inconclusive:
        print("condition (A) check inconclusive: too few usable families")
        return EXIT_NUMERICAL
    ok = shape.passed and cond_a.passed
    print(
        f"shape: {'pass' if shape.passed else 'FAIL'}  "
        f"symmetry: {'pass' if dz.passed else 'FAIL'}  "
        f"condition-A: {'pass' if cond_a.passed else 'FAIL'}"
    )
    # symmetry failure alone is informative, not fatal: income effects are allowed
    return EXIT_PASS if ok else EXIT_CHECK_FAIL


def cmd_identify(args: argparse.Namespace) -> int:
    field = field_mod.read_field_csv(args.field_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # pivot 0 (the outside option) throughout: reconstruct_density assumes it
    cond_a = symmetry.test_condition_A(field, m=0, tol=args.tol_condition_a)
    if not cond_a.passed and not args.force:
        _write_json(out / "condition_a_report.json", cond_a.to_dict())
        print(
            "condition (A) check failed; see condition_a_report.json "
            "(rerun with --force to identify anyway)"
        )
        return EXIT_CHECK_FAIL
    lo, hi = field.grid.lower, field.grid.upper
    sieve_field = field
    if field.grid.n_nodes > 500_000:
        # condition A leaves only the full field's cached gradient_scale (no
        # node_gradients block), so the sub-lattice shrinks the sieve's ratio
        # planes and its fit: a global least-squares fit that loses nothing
        # meaningful on a strided sub-lattice
        strides = tuple(max(1, (n - 1) // 60) for n in field.grid.counts)
        sieve_field = field_mod.subsample(field, strides)
    ratios, omegas = [], []
    for j in range(1, field.grid.dims):
        t = symmetry.fit_ratio_sieve(sieve_field, j, 0, basis=args.basis, degree=args.degree)
        ratios.append(t)
        omegas.append(characteristics.build_omega(
            t,
            ((lo[j], hi[j]), (lo[0], hi[0])),
            a_ref=args.a_ref,
            resolution=args.resolution,
            j=j,
        ))
    v_grid = density_mod.make_v_grid(omegas, n=args.v_nodes)
    dens = density_mod.reconstruct_density(field, omegas, v_grid)
    for t, om in zip(ratios, omegas):
        _write_json(out / f"ratio_{t.j}.json", t.to_dict())
        om.export_csv(out / f"omega_{om.j}.csv")
        characteristics.UtilityFunction(j=om.j, omega=om).export_csv(out / f"w_{om.j}.csv")
    dens.export_csv(out / "density.csv")
    mass = density_mod.check_normalization(dens)
    _write_json(out / "mass_report.json", mass.to_dict())
    _write_identify_npz(out / "identify.npz", omegas, dens)
    meta = {
        **{k: getattr(args, k) for k in _SETTINGS},
        "a_ref": [om.a_ref for om in omegas],  # defaults resolved
        "field_hash": field.content_hash(),
        "grid": field_mod.record_dict(field.grid),
        "identify_npz_sha256": field_mod.file_sha256(out / "identify.npz"),
    }
    meta["provenance"] = _provenance_hash(meta)
    _write_json(out / "identify_meta.json", meta)
    print(f"density mass: {mass.mass:.4f} (corner CDF {mass.corner_cdf:.4f})")
    return EXIT_PASS


def _write_identify_npz(path: Path, omegas, dens) -> None:
    """Everything verify needs to rebuild identify's splines, as plain arrays."""
    arrays = {f"omega_{om.j}.{k}": getattr(om, k) for om in omegas for k in _OMEGA_FIELDS}
    arrays.update((f"density.axis_{k}", ax) for k, ax in enumerate(dens.axes, start=1))
    arrays.update((f"density.{k}", getattr(dens, k)) for k in _DENSITY_FIELDS)
    field_mod.write_npz(path, arrays)


def _unpack(npz, prefix: str, fields: dict) -> dict:
    return {k: read(npz[prefix + k]) for k, read in fields.items()}


def _load_identify(path: Path, meta: dict, n_alternatives: int):
    """Utilities and density rebuilt from identify.npz, splines included.

    The file's bytes must have the SHA-256 that the stamped record holds, and
    they are read once: what is hashed is what is loaded.
    """
    if not path.is_file():
        raise ValidationError(f"identify artifact {path} not found")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != meta["identify_npz_sha256"]:
        raise ProvenanceError("identify.npz does not match identify_meta.json (sha256 mismatch)")
    utilities = []
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            for j in range(1, n_alternatives):
                fields = _unpack(npz, f"omega_{j}.", _OMEGA_FIELDS)
                omega = characteristics.OmegaFunction(j=j, **fields)
                utilities.append(characteristics.UtilityFunction(j=j, omega=omega))
            dens = density_mod.DensityGrid(
                axes=tuple(npz[f"density.axis_{k}"] for k in range(1, n_alternatives)),
                **_unpack(npz, "density.", _DENSITY_FIELDS),
            )
    except (KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ProvenanceError(f"identify.npz is unreadable: {exc}") from None
    return utilities, dens


def cmd_verify(args: argparse.Namespace) -> int:
    if args.integrator == "monte_carlo" and args.draws < 1:
        raise ValidationError("draw count must be >= 1")
    field = field_mod.read_field_csv(args.field_path)
    out = Path(args.out)
    meta_path = out / "identify_meta.json"
    if not meta_path.exists():
        raise ValidationError(f"identify artifacts not found in {out}")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise ProvenanceError(f"identify_meta.json is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or meta.get("provenance") != _provenance_hash(meta):
        raise ProvenanceError("identify_meta.json provenance hash mismatch")
    missing = [k for k in _SETTINGS + ("field_hash", "identify_npz_sha256") if k not in meta]
    if missing:
        raise ProvenanceError(f"identify_meta.json lacks {', '.join(missing)}")
    # every setting must have the type identify writes (bool is not an int here)
    a_ref = meta["a_ref"]
    typed = {k: type(meta[k]) is int for k in ("degree", "resolution", "v_nodes")}
    typed["basis"] = isinstance(meta["basis"], str)
    typed["a_ref"] = (
        isinstance(a_ref, list) and len(a_ref) == field.grid.dims - 1
        and all(type(x) in (int, float) for x in a_ref)
    )
    wrong = [k for k, ok in typed.items() if not ok]
    if wrong:
        raise ProvenanceError(f"identify_meta.json settings of the wrong type: {', '.join(wrong)}")
    if meta["field_hash"] != field.content_hash():
        raise ProvenanceError(
            "field does not match the one used by identify (hash mismatch)"
        )
    utilities, dens = _load_identify(out / "identify.npz", meta, field.n_alternatives)
    rng = np.random.default_rng(args.seed)
    lo = np.asarray(field.grid.lower)
    hi = np.asarray(field.grid.upper)
    span = hi - lo
    pts = lo + 0.15 * span + rng.random((50, field.grid.dims)) * 0.7 * span
    report = verify_mod.round_trip_report(
        field,
        utilities,
        dens,
        pts,
        tol=args.tol_round_trip,
        method=args.integrator,
        n=args.draws,
        seed=args.seed,
    )
    _write_json(out / "verify_report.json", report.to_dict())
    print(
        f"round trip max error {report.overall_max:.4f} "
        f"(tol {report.tol}): {'pass' if report.passed else 'FAIL'}"
    )
    return EXIT_PASS if report.passed else EXIT_CHECK_FAIL


# direction: (input coordinate prefix, input base column, output coordinate
# prefix, output base name, whether the base leads the output, output file)
_DIRECTIONS = {
    "price_to_a": ("p", "y", "a", "a_0", True, "field_a.csv"),
    "a_to_price": ("a", "a_0", "p", "y", False, "field_py.csv"),
}


def cmd_convert(args: argparse.Namespace) -> int:
    """Translate between price-income rows (p_1..p_J, y, q_*) and a-rows.

    Each output coordinate is the base column minus one input column:
    a_j = y - p_j one way, p_j = a_0 - a_j the other, and the base itself
    carries over as a_0 = y. A shared y across price rows makes the a-image
    a non-lattice scatter, so --resample interpolates the probabilities back
    onto a rectangular a-lattice through the exact inverse map.
    """
    if args.resample and args.direction != "price_to_a":
        raise ValidationError("--resample needs --direction price_to_a")
    if args.grid and not args.resample:
        raise ValidationError("--grid needs --resample")
    src, base, dst, dst_base, base_first, file_name = _DIRECTIONS[args.direction]
    header, data = field_mod.read_csv_table(args.field_path)
    if "p_0" in header and np.any(data[:, header.index("p_0")] != 0.0):
        raise ValidationError(
            "p_0 column must be identically 0: the outside option has no price"
        )
    if header.count(base) != 1:
        raise ValidationError(f"{args.direction} input needs exactly one {base} column")
    cols = [i for i, h in enumerate(header) if h.startswith(f"{src}_") and h != f"{src}_0"]
    q_cols = [i for i, h in enumerate(header) if h.startswith("q_")]
    J = len(cols)
    for found, expected in (
        (cols, [f"{src}_{j}" for j in range(1, J + 1)]),
        (q_cols, [f"q_{j}" for j in range(J + 1)]),
    ):
        if [header[i] for i in found] != expected:
            raise ValidationError(
                f"expected columns {','.join(expected)} in this order, "
                f"got {','.join(header[i] for i in found)}"
            )
    field_mod.check_probability_rows(data[:, q_cols])
    y_col = header.index(base)
    y = data[:, y_col]
    coords = list((y[:, None] - data[:, cols]).T)
    names = [f"{dst}_{j}" for j in range(1, J + 1)]
    at = 0 if base_first else J
    coords.insert(at, y)
    names.insert(at, dst_base)
    resampled = None
    if args.resample:
        resampled = _resample_to_lattice(data, cols, y_col, q_cols, args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    field_mod.write_csv_table(
        out / file_name,
        names + [header[i] for i in q_cols],
        coords + list(data[:, q_cols].T),
    )
    if resampled is not None:
        field_mod.write_field_csv(resampled, out / "field_resampled.csv")
    return EXIT_PASS


def _resample_to_lattice(data, p_cols, y_col, q_cols, grid_specs) -> field_mod.ProbabilityField:
    """Probabilities interpolated onto a rectangular a-lattice.

    Treats the input as a lattice in (y, p_1, ..., p_J), interpolates q there,
    and samples it at the exact preimage (y, y - a_1, ..., y - a_J) of each
    target a-node. The default target hull keeps every preimage inside the
    source lattice; an explicit --grid whose preimages leave it is rejected,
    so interpolation never extrapolates.
    """
    J = len(p_cols)
    src = (np.unique(data[:, y_col]), *(np.unique(data[:, c]) for c in p_cols))
    rows = data[np.lexsort(tuple(data[:, c] for c in reversed(p_cols)) + (data[:, y_col],))]
    mesh = np.stack(np.meshgrid(*src, indexing="ij"), axis=-1).reshape(-1, J + 1)
    if not np.array_equal(rows[:, [y_col, *p_cols]], mesh):
        raise ValidationError("resampling needs a complete (y, p) lattice, each node once")
    q = rows[:, q_cols].reshape(tuple(map(len, src)) + (J + 1,))
    y_vals, p_axes = src[0], src[1:]
    if grid_specs:
        grid = _parse_grid(grid_specs)
    else:
        # every a_0 = y node must keep p_j = y - a_j inside the source p-range
        # for every j, so the a_0 span must be narrower than each p-span
        dy = y_vals[-1] - y_vals[0]
        dp = min(ax[-1] - ax[0] for ax in p_axes)
        hw = min(dy, dp) / 5.0
        y_mid = 0.5 * (y_vals[0] + y_vals[-1])
        y_lo, y_hi = y_mid - hw, y_mid + hw
        lower = [y_lo] + [y_hi - ax[-1] for ax in p_axes]
        upper = [y_hi] + [y_lo - ax[0] for ax in p_axes]
        grid = field_mod.GridSpec(tuple(lower), tuple(upper), (11,) * (J + 1))
    pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, grid.dims)
    pre = np.column_stack([pts[:, 0], pts[:, :1] - pts[:, 1:]])
    lo, hi = [ax[0] for ax in src], [ax[-1] for ax in src]
    if pre.shape[1] != J + 1 or np.any((pre < lo) | (pre > hi)):
        raise ValidationError(f"--grid needs {J + 1} axes that map inside the source lattice")
    vals = field_mod.multilinear(q, src, pre.T, ())
    vals = np.clip(vals, 0.0, 1.0)
    vals = vals / vals.sum(axis=-1, keepdims=True)
    return field_mod.ProbabilityField(grid, vals.reshape(grid.counts + (J + 1,)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumkit",
        description="Multinomial choice rationalizability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options):
        p.add_argument("--out", default=".", help="output directory")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=0)
        if "grid" in options:
            p.add_argument("--grid", action="append", default=[],
                           help="axis as lo:hi:n, repeat per axis")

    p = sub.add_parser("simulate", help="tabulate a model onto a field CSV")
    common(p, "seed", "grid")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--method", choices=["closed_form", "monte_carlo"],
                   default="closed_form")
    p.add_argument("--draws", type=int, default=100_000)

    p = sub.add_parser("check", help="shape, symmetry, and condition (A) checks")
    common(p)
    p.add_argument("--field", dest="field_path", required=True)
    p.add_argument("--pivot", type=int, default=0)
    p.add_argument("--tol-symmetry", type=float, default=0.01)
    p.add_argument("--tol-condition-a", type=float, default=5e-3)

    p = sub.add_parser("identify", help="recover ratios, omegas, utilities, density")
    common(p)
    p.add_argument("--field", dest="field_path", required=True)
    p.add_argument("--a-ref", type=float, default=None)
    p.add_argument("--basis", choices=["polynomial", "log_polynomial"],
                   default="polynomial")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--tol-condition-a", type=float, default=5e-3)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--v-nodes", type=int, default=121)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("verify", help="round-trip check against identify artifacts")
    common(p, "seed")
    p.add_argument("--field", dest="field_path", required=True)
    p.add_argument("--tol-round-trip", type=float, default=0.02)
    p.add_argument("--integrator", choices=["grid_quadrature", "monte_carlo"],
                   default="grid_quadrature")
    p.add_argument("--draws", type=int, default=100_000)

    p = sub.add_parser("convert", help="translate price-income rows to a-coordinates")
    common(p, "grid")
    p.add_argument("--field", dest="field_path", required=True, help="input CSV")
    p.add_argument("--direction", choices=["price_to_a", "a_to_price"],
                   default="price_to_a")
    p.add_argument("--resample", action="store_true")

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "identify": cmd_identify,
    "verify": cmd_verify,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if name.startswith("tol_") and not value > 0:
                raise ValidationError(f"{name} must be > 0")
            if name.endswith("_path") and not Path(value).exists():
                raise ValidationError(f"{name[:-5]} file not found: {value}")
        return _COMMANDS[args.command](args)
    except (ValidationError, ProvenanceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
