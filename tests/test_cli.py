"""Command-line pipeline: simulate, check, identify, verify, convert."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rumkit import characteristics, cli, density, errors, field, model, symmetry, verify
from rumkit.cli import EXIT_CHECK_FAIL, EXIT_INPUT_ERROR, EXIT_NUMERICAL, EXIT_PASS

from conftest import (
    MALFORMED_FIELD_CSVS,
    lin_model,
    log_model,
    oracle_prob,
    write_malformed_field_csv,
    write_nan_field_csv,
)


def run(*argv):
    return cli.main(list(argv))


def _set(*path_and_value):
    """An edit of a model document: the value at the key/index path."""
    *path, last, value = path_and_value

    def edit(doc):
        for key in path:
            doc = doc[key]
        doc[last] = value

    return edit


def _noise_correlation(matrix):
    return _set("noise", {"kind": "gaussian_correlated", "scale": 1.0, "correlation": matrix})


# edits of the linear model's JSON document that ChoiceModelSpec rejects,
# each with a phrase of the error that names its cause
MALFORMED_MODELS = {
    "unknown_utility_kind": (_set("utilities", 1, "kind", "cubic"), "unknown utility kind"),
    "power_exponent": (
        _set("utilities", 1, {"kind": "power", "params": [1.0, 0.0]}), "power utility needs"
    ),
    "one_coefficient_polynomial": (
        _set("utilities", 1, {"kind": "polynomial", "params": [1.0]}), "at least 2 coefficients"
    ),
    "unknown_noise_kind": (_set("noise", "kind", "cauchy"), "unknown noise kind"),
    "zero_scale": (_set("noise", "scale", 0.0), "noise scale must be > 0"),
    "correlated_without_matrix": (
        _set("noise", {"kind": "gaussian_correlated", "scale": 1.0}), "needs a correlation matrix"
    ),
    "non_square_correlation": (
        _noise_correlation([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "must be square"
    ),
    "asymmetric_correlation": (
        _noise_correlation([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "symmetric"
    ),
    "indefinite_correlation": (
        _noise_correlation([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "positive definite",
    ),
    "correlation_size": (_noise_correlation([[1.0, 0.0], [0.0, 1.0]]), "size must match"),
    "one_alternative": (
        lambda d: d.update(alternatives=1, utilities=d["utilities"][:1], domain=d["domain"][:1]),
        "at least 2 alternatives",
    ),
    "domain_length": (lambda d: d["domain"].pop(), "one interval per alternative"),
    "empty_interval": (_set("domain", 1, [5.0, 5.0]), "is empty"),
    "log_on_non_positive_domain": (
        _set("utilities", 1, {"kind": "log", "params": [1.0]}), "strictly positive domain"
    ),
    "non_monotone_polynomial": (
        _set("utilities", 1, {"kind": "polynomial", "params": [0.0, 0.0, 1.0]}),
        "not strictly increasing",
    ),
    "infinite_bound": (_set("domain", 1, [-10.0, float("inf")]), "must be finite"),
    # typos in key names: a silent default would simulate another model
    "noise_key_typo": (_set("noise", {"kind": "gumbel_iid", "scal": 3.0}), "unknown key 'scal'"),
    "top_level_key_typo": (
        lambda d: d.update(alternative=d.pop("alternatives") + 2), "unknown key 'alternative'"
    ),
    "utility_not_an_object": (_set("utilities", 1, [0.0, 1.0]), "utility must be a JSON object"),
    "utility_key_typo": (
        _set("utilities", 1, {"kind": "linear", "param": [0.0, 1.0]}), "unknown key 'param'"
    ),
}


@pytest.fixture(scope="module")
def log_model_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "log.json"
    log_model().to_json(path)
    return str(path)


@pytest.fixture(scope="module")
def lin_model_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "lin.json"
    lin_model().to_json(path)
    return str(path)


@pytest.fixture(scope="module")
def log_field_csv(tmp_path_factory, log_model_json):
    out = tmp_path_factory.mktemp("sim")
    code = run(
        "simulate", "--model", log_model_json, "--out", str(out),
        "--grid", "1:4:21", "--grid", "1:4:21", "--grid", "1:4:21",
    )
    assert code == EXIT_PASS
    return str(out / "field.csv")


@pytest.fixture(scope="module")
def log_field_fine_csv(tmp_path_factory, log_model_json):
    # 41 nodes per axis: h = 0.075 keeps the FD noise in the cross-coordinate
    # dependence statistic under the 5e-3 default tolerance
    out = tmp_path_factory.mktemp("sim_fine")
    code = run(
        "simulate", "--model", log_model_json, "--out", str(out),
        "--grid", "1:4:41", "--grid", "1:4:41", "--grid", "1:4:41",
    )
    assert code == EXIT_PASS
    return str(out / "field.csv")


@pytest.fixture(scope="module")
def lin_field_csv(tmp_path_factory, lin_model_json):
    out = tmp_path_factory.mktemp("sim")
    code = run(
        "simulate", "--model", lin_model_json, "--out", str(out),
        "--grid=-1:1:21", "--grid=-1:1:21", "--grid=-1:1:21",
    )
    assert code == EXIT_PASS
    return str(out / "field.csv")


@pytest.fixture(scope="module")
def planted_field_csv(tmp_path_factory, planted_interaction_field):
    path = tmp_path_factory.mktemp("planted") / "field.csv"
    field.write_field_csv(planted_interaction_field, path)
    return str(path)


class TestSimulate:
    def test_csv_row_count_and_oracle(self, log_field_csv):
        f = field.read_field_csv(log_field_csv)
        assert f.grid.n_nodes == 9261
        axes = f.grid.axes()
        idx = tuple(int(np.argmin(np.abs(ax - t))) for ax, t in zip(axes, (2, 1, 4)))
        node = np.array([axes[k][i] for k, i in enumerate(idx)])
        assert np.allclose(f.values[idx], oracle_prob(node), atol=1e-12)

    def test_monte_carlo_reruns_byte_identical(self, tmp_path, lin_model_json):
        args = [
            "simulate", "--model", lin_model_json, "--method", "monte_carlo",
            "--draws", "200", "--seed", "5",
            "--grid=-1:1:5", "--grid=-1:1:5", "--grid=-1:1:5",
        ]
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "field.csv").read_bytes() == (
            tmp_path / "b" / "field.csv"
        ).read_bytes()

    def test_wrong_axis_count_rejected(self, tmp_path, capsys, log_model_json):
        # model.tabulate's GridMismatchError is the one axis-count check
        code = run(
            "simulate", "--model", log_model_json, "--out", str(tmp_path),
            "--grid", "1:4:5", "--grid", "1:4:5",
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "field.csv").exists()

    def test_malformed_model_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"utilities": [{"kind": "log", "params": [1.0]}]}))
        code = run("simulate", "--model", str(bad), "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR

    def test_missing_model_file(self, tmp_path):
        code = run("simulate", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("axis", ["x:1:5", "0:1:5.5", "0:1", "0:1:5:7"])
    def test_malformed_grid_axis_is_input_error(self, tmp_path, log_model_json, axis):
        code = run(
            "simulate", "--model", log_model_json, "--out", str(tmp_path),
            "--grid", "1:4:5", "--grid", "1:4:5", "--grid", axis,
        )
        assert code == EXIT_INPUT_ERROR
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize(
        "case", ["not_json", "utility_param", "noise_scale", "alternatives"]
    )
    def test_malformed_model_file_is_input_error(self, tmp_path, case):
        doc = lin_model().to_dict()
        if case == "utility_param":
            doc["utilities"][1]["params"][1] = "steep"
        elif case == "noise_scale":
            doc["noise"]["scale"] = "wide"
        elif case == "alternatives":
            doc["alternatives"] = "three"
        bad = tmp_path / "bad.json"
        bad.write_text("{utilities: [" if case == "not_json" else json.dumps(doc))
        code = run("simulate", "--model", str(bad), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_invalid_model_is_input_error(self, tmp_path, capsys, case):
        edit, cause = MALFORMED_MODELS[case]
        doc = lin_model().to_dict()
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run("simulate", "--model", str(bad), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("input error:") and cause in err
        assert not (tmp_path / "out" / "field.csv").exists()

    def test_no_closed_form_is_input_error(self, tmp_path, capsys):
        # the default --method closed_form on Gaussian noise is a bad request,
        # not a numerical failure
        model_path = tmp_path / "gauss.json"
        m = lin_model()
        gauss = model.ChoiceModelSpec(m.utilities, model.NoiseSpec("gaussian_iid", 1.0), m.domain)
        gauss.to_json(model_path)
        code = run("simulate", "--model", str(model_path), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "out" / "field.csv").exists()

    def test_default_grid_is_21_nodes_over_the_domain(self, tmp_path, lin_model_json):
        code = run("simulate", "--model", lin_model_json, "--out", str(tmp_path))
        assert code == EXIT_PASS
        grid = field.GridSpec((-10.0,) * 3, (10.0,) * 3, (21,) * 3)
        assert field.read_field_csv(tmp_path / "field.csv").grid == grid
        meta = json.loads((tmp_path / "simulate_meta.json").read_text())
        assert meta["grid"] == {"lower": [-10.0] * 3, "upper": [10.0] * 3, "counts": [21] * 3}


class TestCheck:
    def test_linear_field_passes(self, tmp_path, lin_field_csv):
        code = run("check", "--field", lin_field_csv, "--out", str(tmp_path))
        assert code == EXIT_PASS
        sym = json.loads((tmp_path / "symmetry_report.json").read_text())
        cond = json.loads((tmp_path / "condition_a_report.json").read_text())
        assert sym["passed"] and cond["passed"]

    def test_log_field_income_effects_reported_not_fatal(self, tmp_path,
                                                         log_field_fine_csv):
        code = run("check", "--field", log_field_fine_csv, "--out", str(tmp_path))
        assert code == EXIT_PASS
        sym = json.loads((tmp_path / "symmetry_report.json").read_text())
        cond = json.loads((tmp_path / "condition_a_report.json").read_text())
        shape = json.loads((tmp_path / "shape_report.json").read_text())
        assert not sym["passed"]  # income effects break Slutsky symmetry
        assert cond["passed"]
        assert shape["passed"]

    def test_planted_interaction_fails(self, tmp_path, planted_field_csv):
        code = run("check", "--field", planted_field_csv, "--out", str(tmp_path))
        assert code == EXIT_CHECK_FAIL

    def test_nan_field_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        write_nan_field_csv(path)
        code = run("check", "--field", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR

    def test_constant_field_condition_a_inconclusive(self, tmp_path, capsys):
        # q = 1/3 everywhere: every Slutsky ratio is 0/0, so no family is usable
        grid = field.GridSpec((0.0,) * 3, (1.0,) * 3, (9,) * 3)
        path = tmp_path / "field.csv"
        field.write_field_csv(field.ProbabilityField(grid, np.full((9, 9, 9, 3), 1 / 3)), path)
        code = run("check", "--field", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_NUMERICAL
        assert "inconclusive" in capsys.readouterr().out
        cond = json.loads((tmp_path / "out" / "condition_a_report.json").read_text())
        assert cond["inconclusive"]
        assert [s["n_used"] for s in cond["pair_stats"].values()] == [0, 0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_FIELD_CSVS))
    def test_malformed_field_is_input_error(self, tmp_path, case):
        # unreadable cells, ragged or missing rows and a non-uniform lattice
        # are input errors (exit 2), not a failed check or a numerical failure
        path = tmp_path / "field.csv"
        write_malformed_field_csv(path, case)
        code = run("check", "--field", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR

    def test_drifting_axis_is_input_error(self, tmp_path, capsys):
        # a_1's first five steps are 0.45e-8 longer and its last five 0.45e-8
        # shorter: each step is within 1e-8 of the first, but node 5 sits
        # 2.25e-8 off the lattice its ends and count define
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (11,) * 3)
        path = tmp_path / "field.csv"
        field.write_field_csv(model.tabulate(lin_model(), grid), path)
        nodes = grid.axes()[1]
        drift = np.cumsum(np.repeat([0.0, 0.45e-8, -0.45e-8], [1, 5, 5]))
        moved = {repr(float(x)): repr(float(x + d)) for x, d in zip(nodes, drift)}
        header, *rows = path.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        path.write_text("\n".join(
            [header] + [",".join([c[0], moved[c[1]]] + c[2:]) for c in cells]
        ) + "\n")
        code = run("check", "--field", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR
        assert "axis 1 of field CSV is not uniformly spaced" in capsys.readouterr().err


class TestIdentify:
    def test_log_basis_on_nonpositive_axes_is_input_error(self, tmp_path, capfd,
                                                          lin_model_json):
        code = run(
            "simulate", "--model", lin_model_json, "--out", str(tmp_path),
            "--grid=-6:6:21", "--grid=-6:6:21", "--grid=-6:6:21",
        )
        assert code == EXIT_PASS
        capfd.readouterr()
        code = run(
            "identify", "--field", str(tmp_path / "field.csv"), "--out", str(tmp_path),
            "--basis", "log_polynomial", "--force",
        )
        out, err = capfd.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert "input error:" in err and "positive coordinates" in err
        assert "DLASCL" not in out + err

    def test_linear_field_artifacts(self, tmp_path, lin_field_csv):
        code = run(
            "identify", "--field", lin_field_csv, "--out", str(tmp_path),
            "--v-nodes", "41", "--resolution", "101",
        )
        assert code == EXIT_PASS
        for name in (
            "ratio_1.json", "ratio_2.json", "omega_1.csv", "omega_2.csv",
            "w_1.csv", "w_2.csv", "density.csv", "mass_report.json",
            "identify_meta.json", "identify.npz",
        ):
            assert (tmp_path / name).exists()
        # constant-ratio field: fitted t ~ 1 and unit-slope characteristics,
        # omega(a_j, a_0) ~ a_0 - a_j + a_ref
        t1 = json.loads((tmp_path / "ratio_1.json").read_text())
        coef = np.asarray(t1["coefficients"])
        assert coef[0] == pytest.approx(1.0, abs=5e-3)
        assert np.max(np.abs(coef[1:])) <= 5e-3
        om = np.loadtxt(tmp_path / "omega_1.csv", delimiter=",", skiprows=1)
        meta = json.loads((tmp_path / "identify_meta.json").read_text())
        a_ref = meta["a_ref"][0]
        expected = om[:, 1] - om[:, 0] + a_ref
        assert np.max(np.abs(om[:, 2] - expected)) <= 5e-3

    def test_log_field_monotone_omegas(self, tmp_path, log_field_fine_csv):
        code = run(
            "identify", "--field", log_field_fine_csv, "--out", str(tmp_path),
            "--basis", "log_polynomial", "--v-nodes", "41", "--resolution", "101",
        )
        assert code == EXIT_PASS
        om = np.loadtxt(tmp_path / "omega_1.csv", delimiter=",", skiprows=1)
        # increasing in a_0 at fixed a_j, decreasing in a_j at fixed a_0
        n = int(np.sqrt(len(om)))
        vals = om[:, 2].reshape(n, n)
        assert np.all(np.diff(vals, axis=1) > 0)
        assert np.all(np.diff(vals, axis=0) < 0)

    def test_large_field_fits_the_sieve_on_a_strided_sub_lattice(
        self, tmp_path, monkeypatch, lin_model_json
    ):
        # 121 x 81 x 61 = 597,861 nodes, above 500,000: strides (2, 1, 1)
        code = run(
            "simulate", "--model", lin_model_json, "--out", str(tmp_path),
            "--grid=-6:6:121", "--grid=-6:6:81", "--grid=-6:6:61",
        )
        assert code == EXIT_PASS
        seen, fit = [], symmetry.fit_ratio_sieve

        def spy(f, *args, **kwargs):
            seen.append(f.grid)
            return fit(f, *args, **kwargs)

        monkeypatch.setattr(symmetry, "fit_ratio_sieve", spy)
        code = run(
            "identify", "--field", str(tmp_path / "field.csv"), "--out", str(tmp_path),
            "--force", "--resolution", "21", "--v-nodes", "21",
        )
        assert code == EXIT_PASS
        full = field.read_field_csv(tmp_path / "field.csv").grid
        assert [g.counts for g in seen] == [(61, 81, 61)] * 2
        assert all(g.lower == full.lower for g in seen)
        assert all(g.upper == pytest.approx(full.upper) for g in seen)

    def test_condition_a_failure_refused_without_force(self, tmp_path,
                                                       planted_field_csv):
        code = run("identify", "--field", planted_field_csv, "--out", str(tmp_path))
        assert code == EXIT_CHECK_FAIL
        assert (tmp_path / "condition_a_report.json").exists()
        assert not (tmp_path / "density.csv").exists()


@pytest.fixture(scope="module")
def lin_run(tmp_path_factory, lin_model_json):
    """simulate + identify on a wide no-income-effects field; wide enough
    that the logistic heterogeneity mass is inside the attained v-box.
    The relaxed condition-(A) tolerance absorbs FD noise at the corners
    where the probabilities underflow toward 0."""
    out = tmp_path_factory.mktemp("verify_run")
    code = run(
        "simulate", "--model", lin_model_json, "--out", str(out),
        "--grid=-6:6:61", "--grid=-6:6:61", "--grid=-6:6:61",
    )
    assert code == EXIT_PASS
    code = run(
        "identify", "--field", str(out / "field.csv"), "--out", str(out),
        "--v-nodes", "121", "--resolution", "121", "--tol-condition-a", "0.02",
    )
    assert code == EXIT_PASS
    return out


def copy_identify(lin_run, out, meta=None):
    """identify's two artifacts in a fresh --out: the record (or an edited
    one in its place) and identify.npz, byte for byte."""
    out.mkdir(parents=True, exist_ok=True)
    text = (lin_run / "identify_meta.json").read_text() if meta is None else json.dumps(meta)
    (out / "identify_meta.json").write_text(text)
    (out / "identify.npz").write_bytes((lin_run / "identify.npz").read_bytes())


def rebuild_in_process(f, meta):
    """identify's library pipeline run again from the record: the reference
    that verify's rebuild from identify.npz must reproduce."""
    axes = f.grid.axes()
    omegas = []
    for j in range(1, f.grid.dims):
        t = symmetry.fit_ratio_sieve(f, j, 0, basis=meta["basis"], degree=meta["degree"])
        omegas.append(characteristics.build_omega(
            t, ((axes[j][0], axes[j][-1]), (axes[0][0], axes[0][-1])),
            a_ref=meta["a_ref"][j - 1], resolution=meta["resolution"], j=j,
        ))
    dens = density.reconstruct_density(f, omegas, density.make_v_grid(omegas, n=meta["v_nodes"]))
    return [characteristics.UtilityFunction(j=om.j, omega=om) for om in omegas], dens


class TestVerify:

    def test_round_trip_passes(self, lin_run):
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(lin_run),
        )
        assert code == EXIT_PASS
        rep = json.loads((lin_run / "verify_report.json").read_text())
        assert rep["passed"]

    def test_provenance_mismatch_rejected(self, lin_run, tmp_path, log_field_csv):
        code = run(
            "verify", "--field", log_field_csv, "--out", str(lin_run),
        )
        assert code == EXIT_INPUT_ERROR

    def test_missing_artifacts_rejected(self, tmp_path, log_field_csv):
        code = run("verify", "--field", log_field_csv, "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "key, value",
        [("basis", "log_polynomial"), ("degree", 2), ("resolution", 31), ("v_nodes", 31)],
    )
    def test_edited_setting_rejected(self, lin_run, tmp_path, capsys, key, value):
        # verify rebuilds with every setting in identify_meta.json, so the
        # provenance hash must cover each of them
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        meta[key] = value
        copy_identify(lin_run, tmp_path, meta)
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert "provenance hash mismatch" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_unparsable_meta_rejected(self, lin_run, tmp_path):
        (tmp_path / "identify_meta.json").write_text("{")
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("key", ["basis", "field_hash", "identify_npz_sha256"])
    def test_missing_setting_rejected(self, lin_run, tmp_path, capsys, key):
        # the stamp matches the edited record, so only the missing key is wrong
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        del meta[key]
        meta["provenance"] = cli._provenance_hash(meta)
        copy_identify(lin_run, tmp_path, meta)
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert f"lacks {key}" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("resolution", "21"),
            ("resolution", True),
            ("degree", 1.0),
            ("v_nodes", None),
            ("a_ref", [0.0]),
            ("a_ref", "0.0"),
            ("a_ref", [0.0, "0.0"]),
        ],
    )
    def test_setting_of_wrong_type_rejected(self, lin_run, tmp_path, capsys, key, value):
        # the stamp matches the edited record, so only the setting's type is wrong
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        meta[key] = value
        meta["provenance"] = cli._provenance_hash(meta)
        copy_identify(lin_run, tmp_path, meta)
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert f"wrong type: {key}" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_record_with_pivot_still_verifies(self, lin_run, tmp_path):
        # records written while identify took --pivot carry a pivot key;
        # verify ignores it once the stamp covers it
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        assert "pivot" not in meta
        meta["pivot"] = 0
        meta["provenance"] = cli._provenance_hash(meta)
        copy_identify(lin_run, tmp_path, meta)
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_PASS
        assert json.loads((tmp_path / "verify_report.json").read_text())["passed"]

    @pytest.mark.parametrize("case", ["missing", "edited"])
    def test_identify_npz_checked(self, lin_run, tmp_path, case):
        # identify.npz is a required artifact, bound to the record by its digest
        copy_identify(lin_run, tmp_path)
        npz = tmp_path / "identify.npz"
        if case == "missing":
            npz.unlink()
        else:
            data = bytearray(npz.read_bytes())
            data[-100] ^= 1
            npz.write_bytes(bytes(data))
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert not (tmp_path / "verify_report.json").exists()

    def test_unreadable_identify_npz_rejected(self, lin_run, tmp_path, capsys):
        # bytes that are no zip archive, with the digest and stamp made to match
        (tmp_path / "identify.npz").write_bytes(b"not an npz archive")
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        meta["identify_npz_sha256"] = field.file_sha256(tmp_path / "identify.npz")
        meta["provenance"] = cli._provenance_hash(meta)
        (tmp_path / "identify_meta.json").write_text(json.dumps(meta))
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT_ERROR
        assert "identify.npz is unreadable" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_identify_npz_holds_only_what_verify_reads(self, lin_run):
        # each omega's anchor, lattices, values and step, and the density grid;
        # the domains and the march rule follow from the lattices
        with np.load(lin_run / "identify.npz", allow_pickle=False) as npz:
            names = set(npz.files)
        omega = ("a_ref", "aj_lattice", "a0_lattice", "lattice_values", "step")
        dens = ("axis_1", "axis_2", "f_values", "F_values", "support_mask",
                "clipped_nodes", "min_raw_density")
        assert names == {f"omega_{j}.{k}" for j in (1, 2) for k in omega} | {
            f"density.{k}" for k in dens
        }

    @pytest.mark.parametrize(
        "flags",
        [(), ("--integrator", "monte_carlo", "--draws", "20000")],
        ids=["quadrature", "mc"],
    )
    def test_report_equals_in_process_rebuild(self, lin_run, tmp_path, flags):
        # verify rebuilds only the splines from identify.npz; its report is the
        # one a full rerun of identify's pipeline gives at the same seed
        copy_identify(lin_run, tmp_path / "run")
        csv = str(lin_run / "field.csv")
        code = run("verify", "--field", csv, "--out", str(tmp_path / "run"), "--seed", "5", *flags)
        assert code == EXIT_PASS
        f = field.read_field_csv(csv)
        meta = json.loads((lin_run / "identify_meta.json").read_text())
        utilities, dens = rebuild_in_process(f, meta)
        lo, hi = np.asarray(f.grid.lower), np.asarray(f.grid.upper)
        rng = np.random.default_rng(5)
        pts = lo + 0.15 * (hi - lo) + rng.random((50, f.grid.dims)) * 0.7 * (hi - lo)
        method = "monte_carlo" if flags else "grid_quadrature"
        report = verify.round_trip_report(
            f, utilities, dens, pts, tol=0.02, method=method, n=20000 if flags else 100_000,
            seed=5,
        )
        cli._write_json(tmp_path / "reference.json", report.to_dict())
        assert (tmp_path / "run" / "verify_report.json").read_bytes() == (
            tmp_path / "reference.json"
        ).read_bytes()

    def test_explicit_a_ref_round_trips(self, tmp_path, lin_model_json):
        # verify must rebuild the omegas at identify's stored anchoring, not
        # at the default one
        grid = ["--grid=-6:6:51"] * 3
        assert run("simulate", "--model", lin_model_json, "--out", str(tmp_path),
                   *grid) == EXIT_PASS
        csv = str(tmp_path / "field.csv")
        code = run(
            "identify", "--field", csv, "--out", str(tmp_path), "--resolution", "21",
            "--v-nodes", "61", "--tol-condition-a", "0.02", "--a-ref", "1.0",
        )
        assert code == EXIT_PASS
        meta = json.loads((tmp_path / "identify_meta.json").read_text())
        assert meta["a_ref"] == [1.0, 1.0]
        assert run("verify", "--field", csv, "--out", str(tmp_path)) == EXIT_PASS


class TestConvert:
    def make_price_csv(self, path, with_p0=False, p0_value=0.0):
        ys = [2.0, 3.0]
        p1s = [0.5, 1.0]
        p2s = [1.0, 2.0]
        rows = []
        for y in ys:
            for p1 in p1s:
                for p2 in p2s:
                    q = (0.2, 0.3, 0.5)
                    row = [p1, p2, y, *q]
                    if with_p0:
                        row = [p0_value] + row
                    rows.append(row)
        cols = (["p_0"] if with_p0 else []) + ["p_1", "p_2", "y", "q_0", "q_1", "q_2"]
        lines = [",".join(cols)] + [",".join(str(x) for x in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_price_to_a_definition(self, tmp_path):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        code = run("convert", "--field", str(src), "--out", str(tmp_path))
        assert code == EXIT_PASS
        out = np.loadtxt(tmp_path / "field_a.csv", delimiter=",", skiprows=1)
        # row (p_1=1, p_2=2, y=3) -> (a_0=3, a_1=2, a_2=1)
        match = out[(out[:, 0] == 3.0) & (out[:, 1] == 2.0) & (out[:, 2] == 1.0)]
        assert len(match) == 1

    def test_round_trip_identity(self, tmp_path):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        run("convert", "--field", str(src), "--out", str(tmp_path))
        code = run(
            "convert", "--field", str(tmp_path / "field_a.csv"),
            "--direction", "a_to_price", "--out", str(tmp_path),
        )
        assert code == EXIT_PASS
        orig = np.loadtxt(src, delimiter=",", skiprows=1)
        back = np.loadtxt(tmp_path / "field_py.csv", delimiter=",", skiprows=1)
        assert np.allclose(np.sort(back, axis=0), np.sort(orig, axis=0), atol=1e-12)

    def test_nonzero_p0_rejected(self, tmp_path):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src, with_p0=True, p0_value=0.5)
        code = run("convert", "--field", str(src), "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR

    def test_zero_p0_accepted(self, tmp_path):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src, with_p0=True, p0_value=0.0)
        code = run("convert", "--field", str(src), "--out", str(tmp_path))
        assert code == EXIT_PASS

    @pytest.mark.parametrize("column, cell", [(0, "abc"), (2, "nan")], ids=["p_1", "y"])
    def test_bad_cell_rejected(self, tmp_path, column, cell):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        lines = src.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = cell
        lines[3] = ",".join(cells)
        src.write_text("\n".join(lines) + "\n")
        code = run("convert", "--field", str(src), "--out", str(tmp_path / "out"))
        assert code == EXIT_INPUT_ERROR
        assert not (tmp_path / "out" / "field_a.csv").exists()

    @pytest.mark.parametrize(
        "header",
        ["p_2,p_1,y,q_0,q_1,q_2", "p_1,p_1,y,q_0,q_1,q_2", "p_1,p_2,y,q_1,q_0,q_2"],
        ids=["reordered", "duplicated", "q_reordered"],
    )
    def test_header_names_and_order_enforced(self, tmp_path, header):
        # coordinates are read by name: p_1..p_J and q_0..q_J, left to right
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        lines = src.read_text().splitlines()
        src.write_text("\n".join([header] + lines[1:]) + "\n")
        out = tmp_path / "out"
        code = run("convert", "--field", str(src), "--out", str(out))
        assert code == EXIT_INPUT_ERROR
        assert not any(out.glob("field_*.csv"))

    @staticmethod
    def make_price_lattice(path, n=11):
        """A genuine (y, p) lattice, y in [-2, 2] and p in [-1, 1]: probabilities
        from the linear model at the a-space preimage of each (y, p) node."""
        m = lin_model()
        ys = np.linspace(-2.0, 2.0, n)
        ps = np.linspace(-1.0, 1.0, n)
        lines = ["p_1,p_2,y,q_0,q_1,q_2"]
        for y in ys:
            for p1 in ps:
                for p2 in ps:
                    q = model.choice_prob_closed_form(m, (y, y - p1, y - p2))
                    lines.append(
                        ",".join(f"{x:.12g}" for x in (p1, p2, y, *q))
                    )
        path.write_text("\n".join(lines) + "\n")
        return m

    def test_resample_emits_lattice(self, tmp_path):
        src = tmp_path / "prices.csv"
        m = self.make_price_lattice(src)
        code = run(
            "convert", "--field", str(src), "--resample", "--out", str(tmp_path),
        )
        assert code == EXIT_PASS
        back = field.read_field_csv(tmp_path / "field_resampled.csv")
        mid = np.asarray(back.grid.lower) + 0.5 * (
            np.asarray(back.grid.upper) - np.asarray(back.grid.lower)
        )
        exact = model.choice_prob_closed_form(m, mid)
        assert np.max(np.abs(back.interpolate(mid) - exact)) <= 5e-3

    def test_resample_repeated_node_rejected(self, tmp_path):
        # node (y, p_1, p_2) = (-2, -1, -1) replaced by a second copy of
        # (-2, -1, 0): the row count and every axis still fill the 3^3 lattice
        src = tmp_path / "prices.csv"
        self.make_price_lattice(src, n=3)
        lines = src.read_text().splitlines()
        lines[1] = lines[2]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run("convert", "--field", str(src), "--resample", "--out", str(out))
        assert code == EXIT_INPUT_ERROR
        assert not any(out.glob("field_*.csv"))

    def test_resample_grid_outside_source_rejected(self, tmp_path):
        # a_0 = y = 1 with a_1 = -0.5 maps back to p_1 = 1.5, past p <= 1
        src = tmp_path / "prices.csv"
        self.make_price_lattice(src)
        out = tmp_path / "out"
        code = run(
            "convert", "--field", str(src), "--resample", "--out", str(out),
            "--grid=0:1:5", "--grid=-0.5:0.5:6", "--grid=-0.6:0.4:7",
        )
        assert code == EXIT_INPUT_ERROR
        assert not (out / "field_resampled.csv").exists()
        assert not (out / "field_a.csv").exists()

    def test_price_header_to_a_to_price_rejected(self, tmp_path):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        code = run(
            "convert", "--field", str(src), "--direction", "a_to_price",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_INPUT_ERROR
        assert not (tmp_path / "out" / "field_py.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [("--direction", "a_to_price", "--resample"), ("--grid=0:1:5",)],
        ids=["a_to_price_resample", "grid_without_resample"],
    )
    def test_ignored_flag_rejected(self, tmp_path, capsys, flags):
        # a flag the conversion would not read is an input error, not a no-op
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        if "a_to_price" in flags:
            run("convert", "--field", str(src), "--out", str(tmp_path))
            src = tmp_path / "field_a.csv"
        out = tmp_path / "out"
        capsys.readouterr()
        code = run("convert", "--field", str(src), "--out", str(out), *flags)
        assert code == EXIT_INPUT_ERROR
        assert "needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("direction", ["price_to_a", "a_to_price"])
    def test_rows_not_summing_to_one_rejected(self, tmp_path, capsys, direction):
        src = tmp_path / "prices.csv"
        self.make_price_csv(src)
        if direction == "a_to_price":
            run("convert", "--field", str(src), "--out", str(tmp_path))
            src = tmp_path / "field_a.csv"
        lines = src.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-1] = repr(float(cells[-1]) + 0.1)  # this row's q now sums to 1.1
        lines[3] = ",".join(cells)
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = run("convert", "--field", str(src), "--direction", direction, "--out", str(out))
        assert code == EXIT_INPUT_ERROR
        assert "input error: field rows must sum to 1" in capsys.readouterr().err
        assert not any(out.glob("field_*.csv"))


NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import rumkit.cli

model, prices, out = sys.argv[1:]
field = out + "/field.csv"
# [-3, 3] holds the taste mass verify needs, and the tolerances fit a 9-node
# lattice's finite differences, so every command exits 0
for argv in (
    ["simulate", "--model", model, "--out", out, *["--grid=-3:3:9"] * 3],
    ["check", "--field", field, "--out", out, "--tol-symmetry", "0.2", "--tol-condition-a", "0.2"],
    ["identify", "--field", field, "--out", out, "--tol-condition-a", "0.2",
     "--resolution", "11", "--v-nodes", "11"],
    ["verify", "--field", field, "--out", out, "--tol-round-trip", "0.1"],
    ["convert", "--field", prices, "--resample", "--out", out],
):
    print(argv[0], rumkit.cli.main(argv))
print("scipy", sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_pipeline_runs_without_scipy(tmp_path, lin_model_json):
    # a fresh interpreter in which scipy cannot be imported runs every
    # command end to end: no code path of rumkit needs scipy
    prices = tmp_path / "prices.csv"
    TestConvert.make_price_lattice(prices, n=5)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, lin_model_json, str(prices), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.split(" ")[0] in (
        "simulate", "check", "identify", "verify", "convert", "scipy")]
    assert lines == [
        "simulate 0", "check 0", "identify 0", "verify 0", "convert 0", "scipy []",
    ], proc.stdout + proc.stderr


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        # main maps input and provenance errors to 2 and numerical failures
        # to 3; every other package error is one of these three. A query
        # outside a model's domain, a field's hull or an omega's domain is
        # one class, an input error
        assert issubclass(errors.DomainError, errors.ValidationError)
        families = (errors.ValidationError, errors.ProvenanceError, errors.NumericalFailure)
        classes = [
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.RumkitError)
        ]
        assert {c.__name__ for c in classes} == {
            "RumkitError", "NumericalFailure", "ValidationError", "DomainError",
            "NoClosedFormError", "GridMismatchError", "RankDeficientBasisError",
            "NegativeRatioError", "CoverageError", "SupportError", "NegativeDensityError",
            "UnnormalizedDensityError", "ProvenanceError",
        }
        for c in classes:
            assert c is errors.RumkitError or issubclass(c, families), c

    def test_module_entry_point_without_runtime_warning(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "rumkit.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "command, option",
        [
            ("check", "--seed=1"), ("check", "--grid=0:1:5"),
            ("identify", "--seed=1"), ("identify", "--grid=0:1:5"),
            ("verify", "--grid=0:1:5"), ("convert", "--seed=1"),
        ],
    )
    def test_option_the_command_does_not_read_rejected(self, tmp_path, command, option):
        # each command declares only the options it reads: argparse exits 2
        with pytest.raises(SystemExit) as exc:
            run(command, "--field", str(tmp_path / "field.csv"), "--out", str(tmp_path), option)
        assert exc.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("tol", ["-0.5", "nan"])
    def test_tolerances_must_be_positive(self, tmp_path, log_field_csv, tol):
        code = run(
            "check", "--field", log_field_csv, "--out", str(tmp_path),
            "--tol-symmetry", tol,
        )
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--pivot", "3"),
            ("check", "--pivot", "-1"),
            ("identify", "--force", "--resolution", "2"),
            ("identify", "--force", "--degree", "-1"),
            ("identify", "--force", "--v-nodes", "1"),
        ],
        ids=" ".join,
    )
    def test_integer_flags_checked(self, tmp_path, lin_field_csv, argv):
        out = tmp_path / "out"
        code = run(argv[0], "--field", lin_field_csv, "--out", str(out), *argv[1:])
        assert code == EXIT_INPUT_ERROR
        assert not any(out.glob("*"))

    def test_out_naming_a_file_is_input_error(self, tmp_path, lin_model_json, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = run(
            "simulate", "--model", lin_model_json, "--out", str(out),
            "--grid=-1:1:5", "--grid=-1:1:5", "--grid=-1:1:5",
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")
        assert out.read_text() == ""

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the log model on [0.05, 20]^3 identifies to a density of mass 0.86,
        # which verify's round trip refuses as a numerical failure
        model_path = tmp_path / "log.json"
        log_model(domain=((0.05, 20.0),) * 3).to_json(model_path)
        code = run(
            "simulate", "--model", str(model_path), "--out", str(tmp_path),
            "--grid", "0.05:20:41", "--grid", "0.05:20:41", "--grid", "0.05:20:41",
        )
        assert code == EXIT_PASS
        field_path = str(tmp_path / "field.csv")
        code = run(
            "identify", "--field", field_path, "--out", str(tmp_path), "--force",
            "--basis", "log_polynomial", "--resolution", "41", "--v-nodes", "41",
        )
        assert code == EXIT_PASS
        capsys.readouterr()
        code = run("verify", "--field", field_path, "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_monte_carlo_draws_checked(self, tmp_path, lin_run, draws, monkeypatch, capsys):
        copy_identify(lin_run, tmp_path)

        def load(*_):
            raise AssertionError("the draw count must be rejected before identify.npz loads")

        monkeypatch.setattr(cli, "_load_identify", load)
        code = run(
            "verify", "--field", str(lin_run / "field.csv"), "--out", str(tmp_path),
            "--integrator", "monte_carlo", "--draws", draws,
        )
        assert code == EXIT_INPUT_ERROR
        assert "draw count" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()
