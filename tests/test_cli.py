"""Command-line pipeline: simulate, check, identify, verify, convert."""

import json

import numpy as np
import pytest

from rumkit import cli, field, model
from rumkit.cli import EXIT_CHECK_FAIL, EXIT_INPUT_ERROR, EXIT_NUMERICAL, EXIT_PASS

from conftest import lin_model, log_model, oracle_prob, write_nan_field_csv


def run(*argv):
    return cli.main(list(argv))


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

    def test_wrong_axis_count_rejected(self, tmp_path, log_model_json):
        code = run(
            "simulate", "--model", log_model_json, "--out", str(tmp_path),
            "--grid", "1:4:5", "--grid", "1:4:5",
        )
        assert code == EXIT_INPUT_ERROR

    def test_malformed_model_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"utilities": [{"kind": "log", "params": [1.0]}]}))
        code = run("simulate", "--model", str(bad), "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR

    def test_missing_model_file(self, tmp_path):
        code = run("simulate", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path))
        assert code == EXIT_INPUT_ERROR


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


class TestIdentify:
    def test_linear_field_artifacts(self, tmp_path, lin_field_csv):
        code = run(
            "identify", "--field", lin_field_csv, "--out", str(tmp_path),
            "--v-nodes", "41", "--resolution", "101",
        )
        assert code == EXIT_PASS
        for name in (
            "ratio_1.json", "ratio_2.json", "omega_1.csv", "omega_2.csv",
            "w_1.csv", "w_2.csv", "density.csv", "mass_report.json",
            "identify_meta.json",
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

    def test_resample_emits_lattice(self, tmp_path):
        # a genuine (y, p) lattice: probabilities from the linear model at the
        # a-space preimage of each (y, p) node
        m = lin_model()
        ys = np.linspace(-2.0, 2.0, 11)
        ps = np.linspace(-1.0, 1.0, 11)
        lines = ["p_1,p_2,y,q_0,q_1,q_2"]
        for y in ys:
            for p1 in ps:
                for p2 in ps:
                    q = model.choice_prob_closed_form(m, (y, y - p1, y - p2))
                    lines.append(
                        ",".join(f"{x:.12g}" for x in (p1, p2, y, *q))
                    )
        src = tmp_path / "prices.csv"
        src.write_text("\n".join(lines) + "\n")
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


class TestExitCodes:
    def test_tolerances_must_be_positive(self, tmp_path, log_field_csv):
        code = run(
            "check", "--field", log_field_csv, "--out", str(tmp_path),
            "--tol-symmetry", "-0.5",
        )
        assert code == EXIT_INPUT_ERROR
