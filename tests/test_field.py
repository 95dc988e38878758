"""Probability fields: interpolation, derivatives, shape checks, CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumkit import field, model
from rumkit.errors import ExtrapolationError, RumkitError, ValidationError

from conftest import half_field, lin_model, log_model, oracle_prob, write_nan_field_csv

interior_pt = st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3)


class TestGridSpec:
    def test_spacing_uniform(self):
        g = field.GridSpec((0.0, 1.0), (2.0, 3.0), (5, 11))
        assert g.spacing == (0.5, 0.2)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValidationError):
            field.GridSpec((0.0,), (1.0,), (4,))

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValidationError):
            field.GridSpec((2.0,), (1.0,), (5,))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_constructor_rejects(self, bad):
        values = np.full((5, 5, 2), 0.5)
        values[2, 3, 1] = bad
        with pytest.raises(ValidationError):
            field.ProbabilityField(grid=half_field().grid, values=values)

    def test_csv_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        write_nan_field_csv(path)
        with pytest.raises(ValidationError):
            field.read_field_csv(path)


class TestInterpolate:
    def test_node_identity(self, lin_field):
        axes = lin_field.grid.axes()
        a = np.array([axes[0][3], axes[1][17], axes[2][40]])
        assert np.allclose(lin_field.interpolate(a), lin_field.values[3, 17, 40],
                           atol=1e-14)

    def test_off_node_matches_oracle(self, lin_field, m_lin):
        a = np.array([0.05, 0.0, 0.0])
        q = lin_field.interpolate(a)
        exact = model.choice_prob_closed_form(m_lin, a)
        assert np.max(np.abs(q - exact)) <= 1e-3

    def test_outside_hull_rejected(self, lin_field):
        with pytest.raises(ExtrapolationError):
            lin_field.interpolate((1.5, 0.0, 0.0))

    @given(interior_pt)
    @settings(max_examples=25, deadline=None)
    def test_interpolated_rows_sum_to_one(self, lin_field, a):
        q = lin_field.interpolate(a)
        assert abs(q.sum() - 1.0) <= 1e-12


class TestDerivatives:
    def test_partial_matches_softmax_identity(self, lin_field):
        # d q_0 / d a_1 = -q_0 q_1 = -1/9 at the symmetric point
        d = lin_field.partial(0, 1, (0.0, 0.0, 0.0))
        assert d == pytest.approx(-1.0 / 9.0, abs=1e-3)

    def test_constant_field_zero_derivative(self):
        g = field.GridSpec((0.0,) * 3, (1.0,) * 3, (5,) * 3)
        vals = np.full(g.counts + (3,), 1.0 / 3.0)
        f = field.ProbabilityField(g, vals)
        assert f.partial(0, 0, (0.5, 0.5, 0.5)) == 0.0

    def test_log_model_derivative_signs(self, log_field):
        a = (2.0, 2.0, 2.0)
        assert log_field.partial(0, 0, a) > 0
        assert log_field.partial(1, 0, a) < 0

    def test_boundary_flagged_one_sided(self, lin_field):
        _, flagged = lin_field.partial_detail(0, 0, (-1.0, 0.0, 0.0))
        assert flagged

    def test_mixed_partial_softmax_identity(self, lin_field):
        # d^2 q_0 / d a_1 d a_2 = 2 q_0 q_1 q_2 = 2/27 at the symmetric point
        m = lin_field.mixed_partial(0, (1, 2), (0.0, 0.0, 0.0))
        assert m == pytest.approx(2.0 / 27.0, abs=2e-3)

    def test_mixed_partial_zero_for_multilinear(self):
        g = field.GridSpec((0.0,) * 3, (1.0,) * 3, (9,) * 3)
        mesh = np.meshgrid(*g.axes(), indexing="ij")
        q1 = 0.1 + 0.2 * mesh[0]  # affine per coordinate
        q2 = 0.1 + 0.1 * mesh[1]
        vals = np.stack([1.0 - q1 - q2, q1, q2], axis=-1)
        f = field.ProbabilityField(g, vals)
        assert f.mixed_partial(0, (1, 2), (0.5, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)

    @given(interior_pt)
    @settings(max_examples=20, deadline=None)
    def test_partials_sum_to_zero(self, lin_field, a):
        # differentiate sum_j q_j = 1 along any axis
        total = sum(lin_field.partial(j, 1, a) for j in range(3))
        assert abs(total) <= 1e-6

    def test_halving_spacing_quarters_error(self, m_lin):
        target = -1.0 / 9.0
        errs = []
        for n in (21, 41):
            g = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (n,) * 3)
            f = model.tabulate(m_lin, g)
            errs.append(abs(f.partial(0, 1, (0.0, 0.0, 0.0)) - target))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


class TestCheckShape:
    def test_log_model_passes(self, log_field):
        rep = field.check_shape(log_field, cross_tol=1e-6)
        assert rep.monotone_ok.all()
        assert rep.cross_partial_sign_ok.all()
        assert rep.passed

    def test_planted_violation_located(self, m_log):
        grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (9,) * 3)
        f = model.tabulate(m_log, grid)
        vals = f.values.copy()
        # swap two a_0-slices of q_0, splitting the excess across q_1 and q_2
        # so the planted violation stays the worst one
        vals[3, :, :, 0], vals[4, :, :, 0] = (
            f.values[4, :, :, 0].copy(),
            f.values[3, :, :, 0].copy(),
        )
        rest = 1.0 - vals[..., 0]
        shares = f.values[..., 1:] / f.values[..., 1:].sum(axis=-1, keepdims=True)
        vals[..., 1:] = rest[..., None] * shares
        rep = field.check_shape(field.ProbabilityField(grid, vals))
        assert not rep.monotone_ok[0, 0]
        worst = rep.worst_monotone_violation
        assert worst["alternative"] == 0 and worst["axis"] == 0
        assert worst["index"][0] in (3, 4)

    def test_boundary_attainment_wide_grid(self, m_lin):
        grid = field.GridSpec((-8.0,) * 3, (8.0,) * 3, (9,) * 3)
        f = model.tabulate(m_lin, grid)
        rep = field.check_shape(f)
        assert rep.boundary_attainment[0, 1] >= 0.999  # q_0 at corner (8,-8,-8)


class TestSubsample:
    def test_sublattice_values_preserved(self, log_field):
        sub = field.subsample(log_field, (2, 2, 2))
        assert sub.grid.counts == (21, 21, 21)
        assert np.array_equal(sub.values, log_field.values[::2, ::2, ::2])
        assert np.allclose(sub.grid.axes()[0], log_field.grid.axes()[0][::2])

    def test_too_coarse_rejected(self, log_field):
        with pytest.raises(ValidationError):
            field.subsample(log_field, (20, 1, 1))


class TestCsv:
    def test_round_trip(self, tmp_path, log_field):
        path = tmp_path / "field.csv"
        field.write_field_csv(log_field, path)
        back = field.read_field_csv(path)
        assert back.grid == log_field.grid
        assert np.allclose(back.values, log_field.values, atol=1e-12)

    def test_incomplete_lattice_rejected(self, tmp_path, log_field):
        path = tmp_path / "field.csv"
        field.write_field_csv(log_field, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(RumkitError):
            field.read_field_csv(path)
