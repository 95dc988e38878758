"""Command-line front end: simulate, check, identify, verify, convert.

Each subcommand is deterministic given its flags (seeds included) and writes
artifacts into --out. identify stamps its outputs with a provenance hash of
the field, anchoring, and pivot so verify can refuse mismatched runs.

Exit codes: 0 pass, 1 check failed, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import characteristics, density as density_mod, field as field_mod
from . import model as model_mod, symmetry, verify as verify_mod
from .errors import NumericalFailure, ProvenanceError, RumkitError, ValidationError

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Parsed invocation: command, paths, grid, tolerances, seeds, output dir."""

    command: str
    model_path: str | None = None
    field_path: str | None = None
    grid: list = dc_field(default_factory=list)  # (lo, hi, n) per axis
    pivot: int = 0
    a_ref: float | None = None
    basis: str = "polynomial"
    degree: int = 1
    tol_symmetry: float = 0.01
    tol_condition_a: float = 5e-3
    tol_round_trip: float = 0.02
    seed: int = 0
    draws: int = 100_000
    method: str = "closed_form"
    integrator: str = "grid_quadrature"
    out: str = "."
    force: bool = False
    resample: bool = False
    direction: str = "price_to_a"
    resolution: int = 201
    v_nodes: int = 121

    def __post_init__(self):
        for name in ("tol_symmetry", "tol_condition_a", "tol_round_trip"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.model_path is not None and not Path(self.model_path).exists():
            raise ValidationError(f"model file not found: {self.model_path}")
        if self.field_path is not None and not Path(self.field_path).exists():
            raise ValidationError(f"field file not found: {self.field_path}")


def _parse_grid(specs) -> field_mod.GridSpec:
    lower, upper, counts = [], [], []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid axis must be lo:hi:n, got {spec!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        lower.append(lo)
        upper.append(hi)
        counts.append(n)
    return field_mod.GridSpec(tuple(lower), tuple(upper), tuple(counts))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _provenance_hash(field_hash: str, a_ref, pivot: int, grid) -> str:
    payload = json.dumps(
        {
            "field": field_hash,
            "a_ref": a_ref,
            "pivot": pivot,
            "grid": grid,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cmd_simulate(cfg: RunConfig) -> int:
    model = model_mod.ChoiceModelSpec.from_json(cfg.model_path)
    if cfg.grid:
        grid = _parse_grid(cfg.grid)
    else:
        grid = field_mod.GridSpec(
            tuple(lo for lo, _ in model.domain),
            tuple(hi for _, hi in model.domain),
            tuple(21 for _ in model.domain),
        )
    if grid.dims != model.n_alternatives:
        raise ValidationError(
            f"grid has {grid.dims} axes but model has {model.n_alternatives} alternatives"
        )
    field = model_mod.tabulate(
        model, grid, method=cfg.method, n=cfg.draws, seed=cfg.seed
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    field_mod.write_field_csv(field, out / "field.csv")
    _write_json(
        out / "simulate_meta.json",
        {
            "model_hash": model_mod.model_hash(model),
            "field_hash": field.content_hash(),
            "grid": {
                "lower": list(grid.lower),
                "upper": list(grid.upper),
                "counts": list(grid.counts),
            },
            "method": cfg.method,
            "seed": cfg.seed,
            "draws": cfg.draws if cfg.method == "monte_carlo" else None,
        },
    )
    return EXIT_PASS


def cmd_check(cfg: RunConfig) -> int:
    field = field_mod.read_field_csv(cfg.field_path)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    shape = field_mod.check_shape(field)
    _write_json(out / "shape_report.json", shape.to_dict())
    dz = symmetry.test_daly_zachary(field, tol=cfg.tol_symmetry)
    _write_json(out / "symmetry_report.json", dz.to_dict())
    cond_a = symmetry.test_condition_A(field, m=cfg.pivot, tol=cfg.tol_condition_a)
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


def _identify_pipeline(cfg: RunConfig, field, a_refs):
    """Shared by identify and verify: sieve fits, omegas, utilities, density.

    a_refs holds one anchoring per inside alternative; None picks the default.
    """
    J = field.grid.dims - 1
    axes = field.grid.axes()
    sieve_field = field
    if field.grid.n_nodes > 500_000:
        # node-wise gradient caches on huge fields cost dims^2 copies of the
        # value array; the sieve is a global least-squares fit and loses
        # nothing meaningful on a strided sub-lattice
        strides = tuple(max(1, (n - 1) // 60) for n in field.grid.counts)
        sieve_field = field_mod.subsample(field, strides)
    ratios = []
    omegas = []
    utilities = []
    for j in range(1, J + 1):
        t = symmetry.fit_ratio_sieve(
            sieve_field, j, cfg.pivot, basis=cfg.basis, degree=cfg.degree
        )
        ratios.append(t)
        om = characteristics.build_omega(
            t,
            ((axes[j][0], axes[j][-1]), (axes[cfg.pivot][0], axes[cfg.pivot][-1])),
            a_ref=a_refs[j - 1],
            resolution=cfg.resolution,
            j=j,
        )
        omegas.append(om)
        utilities.append(characteristics.UtilityFunction(j=j, omega=om))
    v_grid = density_mod.make_v_grid(omegas, n=cfg.v_nodes)
    dens = density_mod.reconstruct_density(field, omegas, v_grid)
    return ratios, omegas, utilities, dens


def cmd_identify(cfg: RunConfig) -> int:
    field = field_mod.read_field_csv(cfg.field_path)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cond_a = symmetry.test_condition_A(field, m=cfg.pivot, tol=cfg.tol_condition_a)
    if not cond_a.passed and not cfg.force:
        _write_json(out / "condition_a_report.json", cond_a.to_dict())
        print(
            "condition (A) check failed; see condition_a_report.json "
            "(rerun with --force to identify anyway)"
        )
        return EXIT_CHECK_FAIL
    ratios, omegas, utilities, dens = _identify_pipeline(
        cfg, field, [cfg.a_ref] * (field.grid.dims - 1)
    )
    for t, om, w in zip(ratios, omegas, utilities):
        _write_json(out / f"ratio_{t.j}.json", t.to_dict())
        om.export_csv(out / f"omega_{om.j}.csv")
        w.export_csv(out / f"w_{w.j}.csv")
    dens.export_csv(out / "density.csv")
    mass = density_mod.check_normalization(dens)
    _write_json(out / "mass_report.json", mass.to_dict())
    grid_meta = {
        "lower": list(field.grid.lower),
        "upper": list(field.grid.upper),
        "counts": list(field.grid.counts),
    }
    a_refs = [om.a_ref for om in omegas]
    _write_json(
        out / "identify_meta.json",
        {
            "field_hash": field.content_hash(),
            "a_ref": a_refs,
            "pivot": cfg.pivot,
            "grid": grid_meta,
            "basis": cfg.basis,
            "degree": cfg.degree,
            "resolution": cfg.resolution,
            "v_nodes": cfg.v_nodes,
            "provenance": _provenance_hash(
                field.content_hash(), a_refs, cfg.pivot, grid_meta
            ),
        },
    )
    print(f"density mass: {mass.mass:.4f} (corner CDF {mass.corner_cdf:.4f})")
    return EXIT_PASS


def cmd_verify(cfg: RunConfig) -> int:
    field = field_mod.read_field_csv(cfg.field_path)
    out = Path(cfg.out)
    meta_path = out / "identify_meta.json"
    if not meta_path.exists():
        raise ValidationError(f"identify artifacts not found in {out}")
    meta = json.loads(meta_path.read_text())
    expected = _provenance_hash(
        meta["field_hash"], meta["a_ref"], meta["pivot"], meta["grid"]
    )
    if meta.get("provenance") != expected:
        raise ProvenanceError("identify_meta.json provenance hash mismatch")
    if meta["field_hash"] != field.content_hash():
        raise ProvenanceError(
            "field does not match the one used by identify (hash mismatch)"
        )
    cfg.pivot = meta["pivot"]
    cfg.basis = meta["basis"]
    cfg.degree = meta["degree"]
    cfg.resolution = meta["resolution"]
    cfg.v_nodes = meta["v_nodes"]
    _, _, utilities, dens = _identify_pipeline(cfg, field, meta["a_ref"])
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(field.grid.lower)
    hi = np.asarray(field.grid.upper)
    span = hi - lo
    pts = lo + 0.15 * span + rng.random((50, field.grid.dims)) * 0.7 * span
    report = verify_mod.round_trip_report(
        field,
        utilities,
        dens,
        pts,
        tol=cfg.tol_round_trip,
        method=cfg.integrator,
        n=cfg.draws,
        seed=cfg.seed,
    )
    _write_json(out / "verify_report.json", report.to_dict())
    print(
        f"round trip max error {report.overall_max:.4f} "
        f"(tol {report.tol}): {'pass' if report.passed else 'FAIL'}"
    )
    return EXIT_PASS if report.passed else EXIT_CHECK_FAIL


def cmd_convert(cfg: RunConfig) -> int:
    """Translate between price-income rows (p_1..p_J, y, q_*) and a-rows.

    a_0 = y and a_j = y - p_j. A shared y across price rows makes the a-image
    a non-lattice scatter, so --resample interpolates the probabilities back
    onto a rectangular a-lattice through the exact inverse map.
    """
    header, data = field_mod.read_csv_table(cfg.field_path)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if "p_0" in header:
        idx = header.index("p_0")
        if np.any(data[:, idx] != 0.0):
            raise ValidationError(
                "p_0 column must be identically 0: the outside option has no price"
            )
    if cfg.direction == "price_to_a":
        p_cols = [i for i, h in enumerate(header) if h.startswith("p_") and h != "p_0"]
        if "y" not in header:
            raise ValidationError("price input needs a y column")
        y_col = header.index("y")
        J = len(p_cols)
        q_cols = _probability_columns(header, data, J + 1)
        y = data[:, y_col]
        a = np.empty((len(data), J + 1))
        a[:, 0] = y
        for j, c in enumerate(p_cols, start=1):
            a[:, j] = y - data[:, c]
        rows = np.concatenate([a, data[:, q_cols]], axis=1)
        new_header = ",".join(
            [f"a_{j}" for j in range(J + 1)] + [f"q_{j}" for j in range(J + 1)]
        )
        np.savetxt(
            out / "field_a.csv", rows, delimiter=",", header=new_header,
            comments="", fmt="%.12g",
        )
        if cfg.resample:
            _resample_to_lattice(header, data, p_cols, y_col, q_cols, cfg, out)
    elif cfg.direction == "a_to_price":
        if "a_0" not in header:
            raise ValidationError("a-coordinate input needs an a_0 column")
        y_col = header.index("a_0")
        a_cols = [i for i, h in enumerate(header) if h.startswith("a_") and h != "a_0"]
        J = len(a_cols)
        q_cols = _probability_columns(header, data, J + 1)
        y = data[:, y_col]
        p = np.empty((len(data), J))
        for j, c in enumerate(a_cols):
            p[:, j] = y - data[:, c]
        rows = np.concatenate([p, y[:, None], data[:, q_cols]], axis=1)
        new_header = ",".join(
            [f"p_{j + 1}" for j in range(J)] + ["y"] + [f"q_{j}" for j in range(J + 1)]
        )
        np.savetxt(
            out / "field_py.csv", rows, delimiter=",", header=new_header,
            comments="", fmt="%.12g",
        )
    else:
        raise ValidationError(f"unknown direction {cfg.direction!r}")
    return EXIT_PASS


def _probability_columns(header, data, n_alt: int) -> list[int]:
    """Indices of the q_* columns; n_alt of them, holding probability rows."""
    q_cols = [i for i, h in enumerate(header) if h.startswith("q_")]
    if len(q_cols) != n_alt:
        raise ValidationError(f"expected {n_alt} q columns, found {len(q_cols)}")
    field_mod.check_probability_rows(data[:, q_cols])
    return q_cols


def _resample_to_lattice(header, data, p_cols, y_col, q_cols, cfg, out: Path):
    """Interpolate probabilities onto a rectangular a-lattice.

    Treats the input as a lattice in (y, p_1, ..., p_J), interpolates q there,
    and samples it at the exact preimage (y, y - a_1, ..., y - a_J) of each
    target a-node. Target hull shrinks to offers whose preimage stays inside
    the source lattice, so interpolation never extrapolates.
    """
    from scipy.interpolate import RegularGridInterpolator

    J = len(p_cols)
    y_vals = np.unique(data[:, y_col])
    p_axes = [np.unique(data[:, c]) for c in p_cols]
    shape = (len(y_vals),) + tuple(len(ax) for ax in p_axes)
    if np.prod(shape) != len(data):
        raise ValidationError("resampling needs a complete (y, p) lattice")
    order = np.lexsort(
        tuple(data[:, c] for c in reversed(p_cols)) + (data[:, y_col],)
    )
    q = data[order][:, q_cols].reshape(shape + (J + 1,))
    interp = RegularGridInterpolator((y_vals,) + tuple(p_axes), q)
    if cfg.grid:
        grid = _parse_grid(cfg.grid)
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
    axes = grid.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pre = np.empty_like(pts)
    pre[:, 0] = pts[:, 0]
    for j in range(1, J + 1):
        pre[:, j] = pts[:, 0] - pts[:, j]
    vals = interp(pre)
    vals = np.clip(vals, 0.0, 1.0)
    vals = vals / vals.sum(axis=-1, keepdims=True)
    field = field_mod.ProbabilityField(
        grid, vals.reshape(grid.counts + (J + 1,)), provenance="convert:resampled"
    )
    field_mod.write_field_csv(field, out / "field_resampled.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumkit",
        description="Multinomial choice rationalizability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", action="append", default=[],
                       help="axis as lo:hi:n, repeat per axis")

    p = sub.add_parser("simulate", help="tabulate a model onto a field CSV")
    common(p)
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
    p.add_argument("--pivot", type=int, default=0)
    p.add_argument("--a-ref", type=float, default=None)
    p.add_argument("--basis", choices=["polynomial", "log_polynomial"],
                   default="polynomial")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--tol-condition-a", type=float, default=5e-3)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--v-nodes", type=int, default=121)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("verify", help="round-trip check against identify artifacts")
    common(p)
    p.add_argument("--field", dest="field_path", required=True)
    p.add_argument("--tol-round-trip", type=float, default=0.02)
    p.add_argument("--integrator", choices=["grid_quadrature", "monte_carlo"],
                   default="grid_quadrature")
    p.add_argument("--draws", type=int, default=100_000)

    p = sub.add_parser("convert", help="translate price-income rows to a-coordinates")
    common(p)
    p.add_argument("--field", dest="field_path", required=True, help="input CSV")
    p.add_argument("--direction", choices=["price_to_a", "a_to_price"],
                   default="price_to_a")
    p.add_argument("--resample", action="store_true")

    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(**vars(args))


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "identify": cmd_identify,
    "verify": cmd_verify,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ValidationError, ProvenanceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RumkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
