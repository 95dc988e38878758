"""The three benchmark workloads: inputs, stages, closed-form oracles and gates.

Each workload is a closed loop with one caller: a pass runs its stages in
order, each starting when the previous one returns. Models and grids are fixed
per workload; the pass seed drives every random draw (Daly-Zachary sample
points, condition-A family sampling, round-trip test points, Monte Carlo
integrator draws and Monte Carlo simulation streams).

The sizes are scaled so that a full comparison of two commits fits its time
budget (see README.md); ``smoke`` sizes run the same stages in seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from rumkit import characteristics, cli, density, field, model, symmetry, verify

from recorder import MIB, CountingRatio, Recorder, StageFailed

# verify.rationalized_choice_prob refuses densities whose mass leaves this window
MASS_WINDOW = (0.95, 1.05)
QUAD_TOL = 0.02
MC_TOL = 0.03
# RK4 steps, Hermite crossings and the spline export together stay far below this
ODE_ALLOWANCE = 1e-3
# a sieve surface whose log-ratio (or ratio) is off by more than this anywhere
# on the domain is a broken fit, whatever omega it leads to
SIEVE_MAX_ERR = 0.1
# Monte Carlo field entries must lie within this many standard errors of the oracle
MC_SIGMAS = 6.0

ALPHAS = (1.0, 2.0, 0.5)


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# -- oracles ----------------------------------------------------------------


def utility(kind: str, params, a):
    """h(a) for the utility kinds the workloads use, written out independently."""
    a = np.asarray(a, dtype=float)
    if kind == "linear":
        return params[0] + params[1] * a
    if kind == "log":
        return params[0] * np.log(a)
    if kind == "power":
        return params[0] * a ** params[1]
    raise ValueError(kind)


def softmax(logits):
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


def gaussian_iid_prob(u, scale):
    """P(j wins) = E_z prod_{k != j} Phi((u_j - u_k)/scale + z), z ~ N(0, 1)."""
    z, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / w.sum()
    n_alt = u.shape[-1]
    out = np.empty(u.shape)
    for j in range(n_alt):
        acc = np.ones(u.shape[:-1] + (len(z),))
        for k in range(n_alt):
            if k != j:
                d = (u[..., j] - u[..., k])[..., None] / scale
                acc = acc * ndtr(d + z)
        out[..., j] = acc @ w
    return out


def sample_nodes(f: field.ProbabilityField, rng, n: int = 64):
    """(index tuple, offer vectors) for n random lattice nodes."""
    axes = f.grid.axes()
    idx = tuple(rng.integers(0, c, size=n) for c in f.grid.counts)
    pts = np.stack([ax[i] for ax, i in zip(axes, idx)], axis=-1)
    return idx, pts


def spec_prob(spec: model.ChoiceModelSpec, pts):
    u = np.stack(
        [utility(h.kind, h.params, pts[:, k]) for k, h in enumerate(spec.utilities)],
        axis=-1,
    )
    if spec.noise.kind == "gumbel_iid":
        return softmax(u / spec.noise.scale)
    return gaussian_iid_prob(u, spec.noise.scale)


def omega_log_oracle(aj, a0, j, a_ref):
    """omega* = h_0^{-1}(h_0(a_0) - h_j(a_j) + h_j(a_ref)) for the log model."""
    return a0 * (a_ref / aj) ** (ALPHAS[j] / ALPHAS[0])


def sieve_error(coef, basis, j, aj_range, a0_range) -> float:
    """Max error of the fitted ratio surface against the true one over a box.

    For the log model the error is taken on log t, for the linear model on t;
    both errors are affine in the basis coordinates, so the corners bound it.
    """
    c = np.asarray(coef, dtype=float)
    if basis == "log_polynomial":
        truth = np.array([np.log(ALPHAS[0] / ALPHAS[j]), 1.0, -1.0])
        xs, us = np.log(aj_range), np.log(a0_range)
    else:
        truth = np.array([1.0, 0.0, 0.0])
        xs, us = np.asarray(aj_range), np.asarray(a0_range)
    d = c - truth
    return float(max(abs(d[0] + d[1] * x + d[2] * u) for x in xs for u in us))


def omega_tolerance(coef, basis, j, aj, a_ref, aj_range, a0_range) -> float:
    """Bound on max |omega - omega*| / (1 + |omega*|) implied by the sieve error.

    Along a characteristic the slope d ln a_j / d ln a_0 (log model) or
    d a_j / d a_0 (linear model) is off by at most the sieve error E over the
    box the path crosses. Reaching the anchor line from a_j then shifts the
    crossing by at most |ln a_j - ln a_ref| (alpha_j/alpha_0)(e^E - 1) in
    ln a_0, or |a_j - a_ref| E / (1 - E) in a_0. ODE_ALLOWANCE covers the
    integrator itself.
    """
    e = sieve_error(coef, basis, j, aj_range, a0_range)
    aj = np.asarray(aj, dtype=float)
    if basis == "log_polynomial":
        shift = np.abs(np.log(aj / a_ref)) * (ALPHAS[j] / ALPHAS[0]) * np.expm1(e)
        bound = float(np.expm1(shift.max()))
    else:
        bound = float(np.abs(aj - a_ref).max() * e / max(1.0 - e, 1e-12))
    return bound + ODE_ALLOWANCE


# -- workload inputs ---------------------------------------------------------


SIZES = {
    "identify_wide_log": {
        "full": dict(
            counts=(301, 120, 75), strides=(3, 2, 1), resolution=81,
            omega_steps=50, v_nodes=201, points=50, mc_draws=20_000,
        ),
        "smoke": dict(
            counts=(121, 48, 30), strides=(2, 2, 1), resolution=21,
            omega_steps=60, v_nodes=41, points=4, mc_draws=2_000,
        ),
    },
    "cli_chain_lin": {
        "full": dict(nodes=51, resolution=21, v_nodes=61),
        "smoke": dict(nodes=21, resolution=15, v_nodes=21),
    },
    "screen_batch": {
        "full": dict(
            lin=31, log=41, j3=13, j1=101, planted=21, mc=9, mc_draws=20_000,
            dz_points=100, shift_points=50,
        ),
        "smoke": dict(
            lin=11, log=31, j3=9, j1=31, planted=11, mc=5, mc_draws=2_000,
            dz_points=10, shift_points=5,
        ),
    },
}


def log_model():
    return model.ChoiceModelSpec(
        utilities=tuple(model.UtilityPrimitive("log", (a,)) for a in ALPHAS),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((1e-3, 100.0),) * 3,
    )


def lin_model(noise="gumbel_iid"):
    return model.ChoiceModelSpec(
        utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(3)),
        noise=model.NoiseSpec(noise, 1.0),
        domain=((-10.0, 10.0),) * 3,
    )


def cube(lo, hi, n, dims=3):
    return field.GridSpec((lo,) * dims, (hi,) * dims, (n,) * dims)


def planted_utilities():
    """u_1 = a_1 + 0.3 a_1 a_2 breaks the separable structure (condition A)."""
    return [
        lambda m: m[0],
        lambda m: m[1] + 0.3 * m[1] * m[2],
        lambda m: m[2],
    ]


@dataclass
class ScreenField:
    """One screen_batch field and the verdicts its check must reach.

    None means no expectation; exit codes follow ``rumkit check``.
    """

    name: str
    spec: model.ChoiceModelSpec | None
    grid: field.GridSpec
    expect_shape: bool | None
    expect_exit: int | tuple
    expect_dz: bool | None
    expect_shift: bool | None
    method: str = "closed_form"


def build_inputs(workload: str, smoke: bool = False):
    """Specs and grids for a workload: the set-up that ``setup_s`` times."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "identify_wide_log":
        grid = field.GridSpec((0.002, 0.05, 0.09), (96.0, 12.0, 9.0), size["counts"])
        return dict(size=size, spec=log_model(), grid=grid)
    if workload == "cli_chain_lin":
        return dict(size=size, spec=lin_model(), axis=f"-6:6:{size['nodes']}")
    j3 = model.ChoiceModelSpec(
        utilities=(
            model.UtilityPrimitive("power", (1.0, 1.5)),
            model.UtilityPrimitive("power", (2.0, 0.5)),
            model.UtilityPrimitive("linear", (0.0, 1.0)),
            model.UtilityPrimitive("log", (1.0,)),
        ),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((0.5, 5.0),) * 4,
    )
    j1 = model.ChoiceModelSpec(
        utilities=(
            model.UtilityPrimitive("log", (1.0,)),
            model.UtilityPrimitive("log", (2.0,)),
        ),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((1e-3, 100.0),) * 2,
    )
    fields = [
        ScreenField("lin", lin_model(), cube(-1.0, 1.0, size["lin"]), True, 0, True, True),
        ScreenField("log", log_model(), cube(1.0, 4.0, size["log"]), True, 0, False, False),
        ScreenField("j3", j3, cube(1.0, 1.5, size["j3"], 4), True, 0, False, False),
        ScreenField("j1", j1, cube(1.0, 4.0, size["j1"], 2), True, 0, False, False),
        # the interaction raises q_1 along a_2: monotonicity fails along with (A)
        ScreenField("planted", None, cube(1.0, 4.0, size["planted"]), False, 1, None, False),
        ScreenField(
            "mc", lin_model("gaussian_iid"), cube(-1.0, 1.0, size["mc"]), None, (0, 1),
            None, None, method="monte_carlo",
        ),
    ]
    return dict(size=size, fields=fields)


# -- identify_wide_log -------------------------------------------------------


def _peak(r: Recorder, span: str, metric: str) -> None:
    sp = r.last_span(span)
    if sp is not None and sp["peak_alloc_mb"] is not None:
        r.current.put_max(metric, sp["peak_alloc_mb"])


def _tabulate_gate(f, spec, rng, n_draws=None):
    idx, pts = sample_nodes(f, rng)
    want = spec_prob(spec, pts)
    got = f.values[idx]
    if n_draws is None:
        err = float(np.max(np.abs(got - want)))
        return err <= 1e-12, f"max |q - q*| = {err:.3e} at sampled nodes"
    sigma = np.sqrt(want * (1.0 - want) / n_draws) + 1.0 / n_draws
    z = float(np.max(np.abs(got - want) / sigma))
    return z <= MC_SIGMAS, f"Monte Carlo entries {z:.2f} standard errors from the oracle"


def identify_pass(r: Recorder, inp: dict, seed: int) -> None:
    size, spec, grid = inp["size"], inp["spec"], inp["grid"]
    s_nodes, s_points, s_mc = sub_seeds(seed, 3)
    rec = r.current
    f = r.stage(
        "model", "tabulate_s", model.tabulate, spec, grid,
        gate=lambda f: _tabulate_gate(f, spec, np.random.default_rng(s_nodes)),
    )
    rec.put_max("model.field_mb", f.values.nbytes / MIB)
    _peak(r, "model.tabulate", "model.tabulate_peak_alloc_mb")

    sub = r.stage(
        "field", "subsample_s", field.subsample, f, size["strides"],
        gate=lambda s: (s.grid.lower == grid.lower, "sub-lattice lost the lower corner"),
    )
    domains = {
        j: ((grid.lower[j], grid.upper[j]), (grid.lower[0], grid.upper[0])) for j in (1, 2)
    }
    ratios = {}
    for j in (1, 2):
        ratios[j] = r.stage(
            "symmetry", "fit_ratio_sieve_s", symmetry.fit_ratio_sieve,
            sub, j, 0, basis="log_polynomial", degree=1,
            gate=lambda t, j=j: _sieve_gate(t.coefficients, t.basis, j, *domains[j]),
        )

    omegas = []
    span = np.log(grid.upper[0] / grid.lower[0])
    for j in (1, 2):
        t = CountingRatio(ratios[j]) if rec.traced else ratios[j]
        om = r.stage(
            "characteristics", "build_omega_s", characteristics.build_omega,
            t, domains[j], a_ref=1.0, resolution=size["resolution"],
            step=span / size["omega_steps"], j=j,
            gate=lambda om, j=j: _omega_gate(rec, om, ratios[j], j),
        )
        if rec.traced:
            rec.add("characteristics.ratio_calls", t.calls)
            rec.add("characteristics.ratio_points", t.points)
        omegas.append(om)

    v_grid = r.stage(
        "density", "make_v_grid_s", density.make_v_grid, omegas, n=size["v_nodes"],
        gate=lambda v: (all(np.all(np.diff(ax) > 0) for ax in v), "v axes not increasing"),
    )
    dens = r.stage(
        "density", "reconstruct_density_s", density.reconstruct_density, f, omegas, v_grid,
        gate=lambda d: (
            bool(np.all(np.isfinite(d.f_values)) and np.all(d.f_values >= 0)),
            "density has negative or non-finite values",
        ),
    )
    mass = r.stage(
        "density", "check_normalization_s", density.check_normalization, dens,
        gate=lambda m: _mass_gate(m.mass),
    )
    rec.values["density_mass_err"] = abs(mass.mass - 1.0)
    rec.values["density.support_fraction"] = mass.support_fraction

    utilities = [characteristics.UtilityFunction(j=om.j, omega=om) for om in omegas]
    lo, hi = np.asarray(grid.lower), np.asarray(grid.upper)
    rng = np.random.default_rng(s_points)
    pts = lo + (0.15 + 0.7 * rng.random((size["points"], 3))) * (hi - lo)
    quad = r.stage(
        "verify", "round_trip_quadrature_s", verify.round_trip_report,
        f, utilities, dens, pts, tol=QUAD_TOL, gate=_round_trip_gate,
    )
    rec.values["roundtrip_max_err"] = quad.overall_max
    mc = r.stage(
        "verify", "round_trip_mc_s", verify.round_trip_report,
        f, utilities, dens, pts, tol=MC_TOL, method="monte_carlo",
        n=size["mc_draws"], seed=s_mc, gate=_round_trip_gate,
    )
    rec.values["roundtrip_mc_max_err"] = mc.overall_max


def _sieve_gate(coef, basis, j, aj_range, a0_range):
    e = sieve_error(coef, basis, j, aj_range, a0_range)
    return e <= SIEVE_MAX_ERR, f"ratio surface off by {e:.3e} (limit {SIEVE_MAX_ERR})"


def omega_check(lattice, star, aj, a_ref, coef, basis, j, aj_range, a0_range):
    """(error, derived tolerance) of an omega lattice against its oracle.

    The characteristics cross a_0 from each node's a_0 to its level, so the
    sieve error is bounded over the a_0 range widened to every level.
    """
    err = float(np.max(np.abs(lattice - star) / (1.0 + np.abs(star))))
    levels = np.concatenate([np.ravel(lattice), np.ravel(star)])
    box = (min(a0_range[0], levels.min()), max(a0_range[1], levels.max()))
    tol = omega_tolerance(coef, basis, j, aj, a_ref, aj_range, box)
    return err, tol


def _omega_gate(rec, om, ratio, j):
    aj, a0 = np.meshgrid(om.aj_lattice, om.a0_lattice, indexing="ij")
    star = omega_log_oracle(aj, a0, j, om.a_ref)
    err, tol = omega_check(
        om.lattice_values, star, om.aj_lattice, om.a_ref,
        ratio.coefficients, ratio.basis, j, *om.domain,
    )
    rec.put_max("omega_max_err", err)
    rec.values[f"omega_tol_{j}"] = tol
    return (err <= tol and om.monotone_ok), (
        f"omega_{j} error {err:.4f} vs derived tolerance {tol:.4f}, "
        f"monotone {om.monotone_ok}"
    )


def _mass_gate(mass: float):
    lo, hi = MASS_WINDOW
    return lo <= mass <= hi, f"density mass {mass:.4f} outside {MASS_WINDOW}"


def _round_trip_gate(rep):
    return rep.passed, f"{rep.method} round trip max error {rep.overall_max:.4f} > {rep.tol}"


# -- cli_chain_lin -----------------------------------------------------------


def _cli(argv):
    """``rumkit.cli.main`` in-process, with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _exit_gate(expected, check):
    """Gate on a subcommand: the exit code, then ``check()`` on its artifacts."""

    def gate(out):
        code, text = out
        if code != expected:
            return False, f"exit {code}, expected {expected}: {text.strip()[-200:]}"
        return check()

    return gate


def cli_chain_pass(r: Recorder, inp: dict, seed: int, work_dir: Path) -> None:
    size = inp["size"]
    rec = r.current
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        out = Path(tmp)
        inp["spec"].to_json(out / "model.json")
        grid = [f"--grid={inp['axis']}"] * 3
        csv = str(out / "field.csv")
        n_nodes = size["nodes"] ** 3

        def rows_ok():
            with open(csv, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            return rows == n_nodes, f"field.csv has {rows} rows, expected {n_nodes}"

        r.stage(
            "cli", "simulate_s", _cli,
            ["simulate", "--model", str(out / "model.json"), "--out", tmp, *grid],
            gate=_exit_gate(0, rows_ok),
        )

        def check_ok():
            shape = _read_json(out / "shape_report.json")
            cond_a = _read_json(out / "condition_a_report.json")
            ok = shape["passed"] and cond_a["passed"]
            ok = ok and (out / "symmetry_report.json").is_file()
            return ok, "exit 0 without passing shape and condition-A reports"

        r.stage(
            "cli", "check_s", _cli,
            ["check", "--field", csv, "--out", tmp, "--tol-condition-a", "0.02"],
            gate=_exit_gate(0, check_ok),
        )
        r.stage(
            "cli", "identify_s", _cli,
            [
                "identify", "--field", csv, "--out", tmp,
                "--resolution", str(size["resolution"]),
                "--v-nodes", str(size["v_nodes"]), "--tol-condition-a", "0.02",
            ],
            gate=_exit_gate(0, lambda: _identify_artifacts_ok(rec, out)),
        )

        def verify_ok():
            rep = _read_json(out / "verify_report.json")
            rec.values["roundtrip_max_err"] = float(max(rep["max_abs_error"]))
            return rep["passed"], f"round trip max error {max(rep['max_abs_error']):.4f}"

        r.stage(
            "cli", "verify_s", _cli,
            ["verify", "--field", csv, "--out", tmp, "--seed", str(seed)],
            gate=_exit_gate(0, verify_ok),
        )


def _identify_artifacts_ok(rec, out: Path):
    mass = _read_json(out / "mass_report.json")
    rec.values["density_mass_err"] = abs(mass["mass"] - 1.0)
    rec.values["density.support_fraction"] = mass["support_fraction"]
    ok, detail = _mass_gate(mass["mass"])
    meta = _read_json(out / "identify_meta.json")
    lo, hi = meta["grid"]["lower"], meta["grid"]["upper"]
    for j, a_ref in zip((1, 2), meta["a_ref"]):
        ratio = _read_json(out / f"ratio_{j}.json")
        om = np.loadtxt(out / f"omega_{j}.csv", delimiter=",", skiprows=1, ndmin=2)
        aj, a0, omega = om[:, 0], om[:, 1], om[:, 2]
        err, tol = omega_check(
            omega, a0 - aj + a_ref, aj, a_ref, ratio["coefficients"], ratio["basis"], j,
            (lo[j], hi[j]), (lo[0], hi[0]),
        )
        rec.put_max("omega_max_err", err)
        rec.values[f"omega_tol_{j}"] = tol
        if err > tol:
            ok, detail = False, f"omega_{j} error {err:.4f} vs derived tolerance {tol:.4f}"
    return ok, detail


# -- screen_batch ------------------------------------------------------------


def _node_gradients(f):
    return f.node_gradients


def _check_exit(shape, cond_a) -> int:
    """The exit code ``rumkit check`` derives from its reports."""
    if cond_a.inconclusive:
        return 3
    return 0 if shape.passed and cond_a.passed else 1


def _verdict_gate(expected, got, what):
    if expected is None:
        return True, ""
    return got == expected, f"{what} verdict {got}, expected {expected}"


def screen_field(r: Recorder, fs: ScreenField, size: dict, seed: int, work_dir: Path):
    rec = r.current
    s_nodes, s_mc, s_dz, s_cond, s_shift = sub_seeds(seed, 5)
    rng = np.random.default_rng(s_nodes)
    if fs.spec is None:
        f = r.stage(
            "model", "tabulate_s", model.tabulate_from_utilities,
            fs.grid, planted_utilities(),
            gate=lambda f: _planted_gate(f, rng),
        )
    elif fs.method == "monte_carlo":
        f = r.stage(
            "model", "tabulate_s", model.tabulate, fs.spec, fs.grid,
            method="monte_carlo", n=size["mc_draws"], seed=s_mc,
            gate=lambda f: _tabulate_gate(f, fs.spec, rng, size["mc_draws"]),
        )
    else:
        f = r.stage(
            "model", "tabulate_s", model.tabulate, fs.spec, fs.grid,
            gate=lambda f: _tabulate_gate(f, fs.spec, rng),
        )
    rec.put_max("model.field_mb", f.values.nbytes / MIB)
    _peak(r, "model.tabulate", "model.tabulate_peak_alloc_mb")

    path = work_dir / f"{fs.name}.csv"
    try:
        r.stage(
            "field", "write_csv_s", field.write_field_csv, f, path,
            gate=lambda _: (path.stat().st_size > 0, "empty field CSV"),
        )
        rec.add("field.csv_mb", path.stat().st_size / MIB)
        g = r.stage(
            "field", "read_csv_s", field.read_field_csv, path,
            gate=lambda g: (
                g.grid == f.grid and np.array_equal(g.values, f.values),
                "field CSV did not read back the written field",
            ),
        )
    finally:
        path.unlink(missing_ok=True)
    r.stage(
        "field", "node_gradients_s", _node_gradients, g,
        gate=lambda d: (bool(np.all(np.isfinite(d))), "non-finite node gradients"),
    )
    shape = r.stage(
        "field", "check_shape_s", field.check_shape, g,
        gate=lambda s: _verdict_gate(fs.expect_shape, s.passed, f"{fs.name} shape"),
    )
    r.stage(
        "symmetry", "daly_zachary_s", symmetry.test_daly_zachary, g,
        tol=0.01, n_points=size["dz_points"], seed=s_dz,
        gate=lambda d: _verdict_gate(fs.expect_dz, d.passed, f"{fs.name} Daly-Zachary"),
    )

    def exit_gate(cond_a):
        code = _check_exit(shape, cond_a)
        if isinstance(fs.expect_exit, tuple):
            return code in fs.expect_exit, f"{fs.name} check exit {code}, expected {fs.expect_exit}"
        return _verdict_gate(fs.expect_exit, code, f"{fs.name} check exit")

    r.stage(
        "symmetry", "condition_a_s", symmetry.test_condition_A, g,
        m=0, tol=5e-3, seed=s_cond, gate=exit_gate,
    )
    span = min(hi - lo for lo, hi in zip(g.grid.lower, g.grid.upper))
    r.stage(
        "verify", "translation_invariance_s", verify.translation_invariance_check,
        g, (-0.1 * span, 0.2 * span), n_points=size["shift_points"], seed=s_shift,
        gate=lambda t: _verdict_gate(fs.expect_shift, t["passed"], f"{fs.name} translation"),
    )


def _planted_gate(f, rng):
    idx, pts = sample_nodes(f, rng)
    want = softmax(np.stack([u(pts.T) for u in planted_utilities()], axis=-1))
    err = float(np.max(np.abs(f.values[idx] - want)))
    return err <= 1e-12, f"max |q - q*| = {err:.3e} at sampled nodes"


def screen_pass(r: Recorder, inp: dict, seed: int, work_dir: Path) -> None:
    for k, fs in enumerate(inp["fields"]):
        try:
            screen_field(r, fs, inp["size"], pass_seed(seed, k), work_dir)
        except StageFailed:
            pass


PASSES = {
    "identify_wide_log": lambda r, inp, seed, work_dir: identify_pass(r, inp, seed),
    "cli_chain_lin": cli_chain_pass,
    "screen_batch": screen_pass,
}
