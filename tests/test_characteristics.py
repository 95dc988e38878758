"""Characteristic ODE integration, omega construction, utility inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumkit import characteristics, symmetry
from rumkit.errors import CoverageError, LevelRangeError, NumericalFailure, ValidationError

BOX = ((1.0, 4.0), (1.0, 4.0))


def t_10():
    return symmetry.RatioFunction.from_callable(
        lambda aj, a0: aj / (2.0 * a0), BOX, j=1, m=0
    )


def t_20():
    return symmetry.RatioFunction.from_callable(
        lambda aj, a0: 2.0 * aj / a0, BOX, j=2, m=0
    )


class TestIntegrateCharacteristic:
    def test_log_model_separable_solution(self):
        # da_1/da_0 = a_1/(2 a_0) has solution a_1 = C sqrt(a_0)
        path = characteristics.integrate_characteristic(t_10(), (1.0, 1.0), 4.0, 0.01)
        a0_end, aj_end = path.endpoint()
        assert a0_end == pytest.approx(4.0, abs=1e-12)
        assert abs(aj_end - 2.0) <= 1e-8

    def test_rk4_order(self):
        errs = []
        for step in (0.01, 0.005):
            path = characteristics.integrate_characteristic(t_10(), (1.0, 1.0), 4.0, step)
            errs.append(abs(path.endpoint()[1] - 2.0))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_flat_characteristic(self):
        t = symmetry.RatioFunction.from_callable(lambda aj, a0: 0.0 * aj, BOX)
        path = characteristics.integrate_characteristic(t, (1.0, 2.5), 4.0, 0.05)
        assert np.allclose(path.aj, 2.5, atol=1e-14)

    def test_unit_slope_characteristic(self):
        # da_j/da_0 = 1: a_j - a_0 constant (no-income-effect geometry)
        t = symmetry.RatioFunction.from_callable(lambda aj, a0: 1.0 + 0.0 * aj, BOX)
        path = characteristics.integrate_characteristic(t, (1.0, 2.0), 3.5, 0.05)
        assert np.allclose(path.aj - path.a0, 1.0, atol=1e-12)

    def test_backward_integration(self):
        path = characteristics.integrate_characteristic(t_10(), (4.0, 2.0), 1.0, 0.01)
        assert abs(path.endpoint()[1] - 1.0) <= 1e-8

    def test_domain_clipping_flagged(self):
        t = symmetry.RatioFunction.from_callable(lambda aj, a0: 2.0 * aj / a0, BOX)
        path = characteristics.integrate_characteristic(
            t, (1.0, 3.0), 4.0, 0.05, domain=BOX
        )
        assert path.clipped
        assert path.endpoint()[0] < 4.0

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValidationError):
            characteristics.integrate_characteristic(t_10(), (1.0, 1.0), 4.0, 0.0)


@pytest.fixture(scope="module")
def omega1():
    return characteristics.build_omega(t_10(), BOX, a_ref=1.0, j=1)


@pytest.fixture(scope="module")
def omega2():
    return characteristics.build_omega(t_20(), BOX, a_ref=1.0, j=2)


@pytest.fixture(scope="module")
def w1():
    # a_0 box padded past 4 so the level omega(2, 4) = 1 sits strictly
    # inside the attained range
    om = characteristics.build_omega(
        t_10(), ((1.0, 4.0), (1.0, 4.5)), a_ref=1.0, j=1
    )
    return characteristics.UtilityFunction(j=1, omega=om)


class TestBuildOmega:
    def test_closed_form_j1(self, omega1):
        # omega_1(a_1, a_0) = a_0 / a_1^2 under a_ref = 1
        assert omega1(1.0, 4.0) == pytest.approx(4.0, abs=1e-6)
        assert omega1(2.0, 4.0) == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_j2(self, omega2):
        # omega_2(a_2, a_0) = a_0 / sqrt(a_2)
        assert omega2(4.0, 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_anchoring_identity(self, omega1):
        for a0 in np.linspace(1.0, 4.0, 7):
            assert omega1(1.0, a0) == pytest.approx(a0, abs=1e-8)

    def test_monotone_flags(self, omega1):
        assert omega1.monotone_ok

    def test_level_set_agreement(self, omega1):
        aj = np.linspace(1.05, 3.95, 31)
        a0 = np.linspace(1.05, 3.95, 31)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        exact = A0 / AJ**2
        got = omega1(AJ.ravel(), A0.ravel()).reshape(AJ.shape)
        assert np.max(np.abs(got - exact)) <= 1e-4

    def test_pde_residual_bound(self, omega1):
        res = omega1.pde_residual()
        assert np.max(res) <= 5.0 * omega1.step**2

    def test_characteristic_invariance(self, omega1):
        # points on one integrated trace share a level value
        path = characteristics.integrate_characteristic(t_10(), (1.2, 1.1), 3.8, 0.005)
        keep = slice(0, len(path.a0), 40)
        levels = omega1(path.aj[keep], path.a0[keep])
        assert np.max(levels) - np.min(levels) <= 1e-6

    def test_coverage_error_reported(self):
        # a nearly flat ratio cannot carry far-off nodes to the anchor line
        # within the guarded a_0 span
        t = symmetry.RatioFunction.from_callable(
            lambda aj, a0: 0.001 + 0.0 * aj, BOX
        )
        with pytest.raises(CoverageError):
            characteristics.build_omega(t, BOX, a_ref=2.5, j=1, resolution=11, step=0.5)

    def test_log_scale_matches_linear(self):
        om_log = characteristics.build_omega(t_10(), BOX, a_ref=1.0, j=1, scale="log")
        pts = np.linspace(1.1, 3.9, 9)
        lin_vals = pts[::-1] / pts**2
        assert np.allclose(om_log(pts, pts[::-1]), lin_vals, atol=1e-5)

    def test_csv_export(self, omega1, tmp_path):
        path = tmp_path / "omega.csv"
        omega1.export_csv(path, n=11)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (121, 3)


def _sweep_column(t, a0_start, aj_states, a_ref, step, direction, a0_limit, aj_box):
    """Reference: the per-column sweep, all states sharing one start a_0."""
    n = len(aj_states)
    out = np.full(n, np.nan)
    y = np.array(aj_states, dtype=float)
    if direction > 0:
        active = y < a_ref
    else:
        active = y > a_ref
    exact = np.isclose(aj_states, a_ref, rtol=0.0, atol=0.0)
    out[exact] = a0_start
    a0 = a0_start
    lo_box, hi_box = aj_box
    while active.any() and direction * (a0_limit - a0) > 1e-14:
        h = direction * min(step, abs(a0_limit - a0))
        idx = np.where(active)[0]
        y_act = y[idx]
        y_new, k_start, k_end = characteristics._rk4_advance(t, a0, y_act, h)
        crossed = (y_act - a_ref) * (y_new - a_ref) <= 0.0
        if crossed.any():
            ci = idx[crossed]
            theta = characteristics._hermite_crossing(
                y_act[crossed], y_new[crossed], k_start[crossed], k_end[crossed], h, a_ref
            )
            out[ci] = a0 + theta * h
            active[ci] = False
        escaped = (~crossed) & ((y_new < lo_box) | (y_new > hi_box))
        if escaped.any():
            active[idx[escaped]] = False
        y[idx] = y_new
        a0 = a0 + h
    return out


def _sweep_by_column(t, a0_start, aj_states, *args):
    """Reference sweep: one _sweep_column call per distinct start a_0."""
    out = np.full(len(aj_states), np.nan)
    for s0 in np.unique(a0_start):
        col = a0_start == s0
        out[col] = _sweep_column(t, s0, aj_states[col], *args)
    return out


def _build_both(monkeypatch, t, domain, **kw):
    """(lockstep, per-column reference) outcome of build_omega: lattice or error."""
    outcomes = []
    for sweep in (characteristics._sweep_crossings, _sweep_by_column):
        with monkeypatch.context() as m:
            m.setattr(characteristics, "_sweep_crossings", sweep)
            try:
                outcomes.append(characteristics.build_omega(t, domain, **kw))
            except CoverageError as exc:
                outcomes.append(exc)
    return outcomes


def _log_sieve_ratio(j, alpha_j, domain):
    # t = a_j / (alpha_j a_0) as a degree-1 log-polynomial sieve
    return symmetry.RatioFunction(
        j=j, pivot=0, form="sieve", domain=domain, basis="log_polynomial", degree=1,
        coefficients=np.array([-np.log(alpha_j), 1.0, -1.0]),
    )


class TestLockstepEquivalence:
    """The lockstep sweep reproduces the per-column sweep bit for bit."""

    @pytest.mark.parametrize("j, alpha_j, aj_range", [(1, 2.0, (0.05, 12.0)), (2, 0.5, (0.09, 9.0))])
    def test_log_ratio_wide_domain(self, monkeypatch, j, alpha_j, aj_range):
        domain = (aj_range, (0.002, 96.0))
        t = _log_sieve_ratio(j, alpha_j, domain)
        new, ref = _build_both(
            monkeypatch, t, domain, a_ref=1.0, resolution=31,
            step=np.log(96.0 / 0.002) / 50, j=j,
        )
        assert new.log_axes
        assert np.array_equal(new.lattice_values, ref.lattice_values)

    def test_linear_ratio_with_anchor_row(self, monkeypatch):
        t = symmetry.RatioFunction(
            j=1, pivot=0, form="sieve", domain=BOX, basis="polynomial", degree=1,
            coefficients=np.array([0.8, 0.1, 0.05]),
        )
        new, ref = _build_both(monkeypatch, t, BOX, a_ref=2.5, resolution=21, step=0.03, j=1)
        assert not new.log_axes
        anchor = new.aj_lattice == 2.5
        assert anchor.sum() == 1
        assert np.array_equal(new.lattice_values[anchor][0], new.a0_lattice)
        assert np.array_equal(new.lattice_values, ref.lattice_values)

    def test_escaping_states_same_coverage_error(self, monkeypatch):
        # the slope is negative for a_0 < 2.5, so states below the anchor
        # first drift away from it and some leave the enlarged a_j box
        # (a plain callable: a RatioFunction would clip the slope at 0)
        def t(aj, a0):
            return a0 - 2.5 + 0.0 * aj

        new, ref = _build_both(monkeypatch, t, BOX, a_ref=3.0, resolution=15, step=0.05)
        assert isinstance(new, CoverageError) and isinstance(ref, CoverageError)
        assert str(new) == str(ref)


class TestHermiteCrossing:
    def test_linear_interpolant(self):
        # slopes equal to the chord: the cubic is the straight line
        theta = characteristics._hermite_crossing(
            np.array([0.0, -0.75]), np.array([1.0, 1.25]), np.array([0.5, 1.0]),
            np.array([0.5, 1.0]), 2.0, 0.25,
        )
        assert theta == pytest.approx([0.25, 0.5], abs=1e-15)

    def test_stall_at_clip_bound_raises(self):
        # Newton from the linear estimate 0.5 jumps past theta = 1, where the
        # end slope points back out of [0, 1]: the clip pins theta at 1 while
        # the true crossing lies below 0.5
        with pytest.raises(NumericalFailure):
            characteristics._hermite_crossing(
                np.array([0.0]), np.array([1.0]), np.array([5.0]), np.array([-1.0]), 2.0, 0.5
            )


class TestUtilityInversion:
    def test_closed_form(self, w1):
        # w_1(a_1, v) = v a_1^2
        assert w1.eval(2.0, 1.0) == pytest.approx(4.0, abs=1e-6)

    def test_anchor_identity(self, w1):
        assert w1.eval(1.0, 2.7) == pytest.approx(2.7, abs=1e-8)

    def test_round_trip(self, w1):
        om = w1.omega
        for aj, a0 in [(1.3, 2.0), (2.5, 3.5), (3.8, 1.2)]:
            v = om(aj, a0)
            assert w1.eval(aj, v) == pytest.approx(a0, abs=1e-6)

    def test_out_of_range_level(self, w1):
        with pytest.raises(LevelRangeError):
            w1.eval(2.0, 1e-4)

    @given(st.floats(1.1, 3.9), st.floats(1.1, 3.9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, w1, aj, a0):
        v = w1.omega(aj, a0)
        assert abs(w1.eval(aj, v) - a0) <= 1e-6


class TestLipschitz:
    def test_constant_slope_zero(self):
        t = symmetry.RatioFunction.from_callable(lambda aj, a0: 1.0 + 0.0 * aj, BOX)
        assert characteristics.lipschitz_diagnostic(t, BOX) == pytest.approx(0.0, abs=1e-10)

    def test_log_model_j1(self):
        assert characteristics.lipschitz_diagnostic(t_10(), BOX) == pytest.approx(
            0.5, rel=0.02
        )

    def test_log_model_j2(self):
        assert characteristics.lipschitz_diagnostic(t_20(), BOX) == pytest.approx(
            2.0, rel=0.02
        )
