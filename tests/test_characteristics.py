"""Characteristic ODE integration, omega construction, utility inversion."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumkit import characteristics, density, field, symmetry, verify
from rumkit.errors import CoverageError, DomainError, NumericalFailure, ValidationError

BOX = ((1.0, 4.0), (1.0, 4.0))


def t_10():
    return lambda aj, a0: aj / (2.0 * a0)


def t_20():
    return lambda aj, a0: 2.0 * aj / a0


def _node_omega(t, a_ref, step, domain=BOX, resolution=4):
    """The level lattice build_omega marches, as (aj_lattice, a0_lattice, values)."""
    om = characteristics.build_omega(t, domain, a_ref=a_ref, resolution=resolution, step=step)
    return om.aj_lattice[:, None], om.a0_lattice[None, :], om.lattice_values


class TestIntegrateCharacteristic:
    """The batched RK4 march of build_omega against closed-form traces."""

    def test_log_model_separable_solution(self):
        # da_1/da_0 = a_1/(2 a_0) has solution a_1 = C sqrt(a_0): the trace
        # through (a_0, a_1) meets a_1 = 2 at a_0 (2 / a_1)^2, e.g. (1, 1) -> 4
        aj, a0, values = _node_omega(t_10(), 2.0, 0.01)
        assert abs(values[0, 0] - 4.0) <= 1e-8
        assert np.max(np.abs(values - a0 * (2.0 / aj) ** 2)) <= 1e-8

    def test_rk4_order(self):
        # a_ref = 2 crosses at the end of a step, a_ref = 1.9 (exact 3.61)
        # mid-step, on the Hermite refinement
        for a_ref in (2.0, 1.9):
            errs = [
                abs(_node_omega(t_10(), a_ref, step)[2][0, 0] - a_ref**2)
                for step in (0.01, 0.005)
            ]
            assert errs[0] <= 1e-8
            assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_flat_characteristic(self):
        # a_j stays constant, so no node off the anchor line reaches it
        t = lambda aj, a0: 0.0 * aj
        with pytest.raises(CoverageError):
            _node_omega(t, 2.5, 0.5)

    def test_unit_slope_characteristic(self):
        # da_j/da_0 = 1: a_j - a_0 constant (no-income-effect geometry)
        t = lambda aj, a0: 1.0 + 0.0 * aj
        aj, a0, values = _node_omega(t, 2.0, 0.05, resolution=11)
        assert np.max(np.abs(values - (a0 - aj + 2.0))) <= 1e-12

    def test_backward_integration(self):
        # node (a_1, a_0) = (2, 4) lies above the anchor a_1 = 1 and marches
        # back to a_0 = 1
        aj, a0, values = _node_omega(t_10(), 1.0, 0.01)
        assert (aj[1, 0], a0[0, 3]) == (2.0, 4.0)
        assert abs(values[1, 3] - 1.0) <= 1e-8

    def test_domain_clipping_flagged(self):
        # da_j/da_0 = a_0 - 2.5: the trace from (a_0, a_j) = (1, 1) sinks to
        # a_j = -0.125 at a_0 = 2.5, below the enlarged a_j box, before it
        # would turn and meet a_j = 3 at a_0 = 5 (a plain callable: a
        # RatioFunction would clip the slope at 0)
        def t(aj, a0):
            return a0 - 2.5 + 0.0 * aj

        with pytest.raises(CoverageError, match=r"first at \(a_j=1, a_0=1\)"):
            _node_omega(t, 3.0, 0.05)

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -0.05, np.nan):
            with pytest.raises(ValidationError):
                characteristics.build_omega(t_10(), BOX, a_ref=1.0, step=step)


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
        res = omega1.pde_residual(t_10())
        assert np.max(res) <= 5.0 * omega1.step**2

    def test_characteristic_invariance(self, omega1):
        # points on one exact trace, a_1 = 1.1 sqrt(a_0 / 1.2), share a level
        a0 = np.linspace(1.2, 3.8, 14)
        levels = omega1(1.1 * np.sqrt(a0 / 1.2), a0)
        assert np.max(levels) - np.min(levels) <= 1e-6

    def test_coverage_error_reported(self):
        # a nearly flat ratio cannot carry far-off nodes to the anchor line
        # within the guarded a_0 span
        t = lambda aj, a0: 0.001 + 0.0 * aj
        with pytest.raises(CoverageError):
            characteristics.build_omega(t, BOX, a_ref=2.5, j=1, resolution=11, step=0.5)

    @pytest.mark.parametrize("a_ref", [0.5, 4.5])
    def test_a_ref_outside_the_aj_range_rejected(self, a_ref):
        with pytest.raises(ValidationError, match="a_ref must lie inside"):
            characteristics.build_omega(t_10(), BOX, a_ref=a_ref, j=1)

    @pytest.mark.parametrize("a_j", [0.5, 4.5, [2.0, 5.0]])
    def test_aj_past_the_domain_rejected(self, omega1, a_j):
        with pytest.raises(DomainError, match="a_j outside omega domain"):
            omega1(a_j, np.full(np.shape(a_j), 2.0))

    def test_log_scale_matches_linear(self):
        # an a_0 range wider than a factor 20 picks the log march
        om_log = characteristics.build_omega(t_10(), ((1.0, 4.0), (0.1, 4.0)), a_ref=1.0, j=1)
        assert om_log.log_axes
        pts = np.linspace(1.1, 3.9, 9)
        lin_vals = pts[::-1] / pts**2
        assert np.allclose(om_log(pts, pts[::-1]), lin_vals, atol=1e-5)
        # its PDE residual: a geometric inset lattice and proportional half-steps
        assert np.max(om_log.pde_residual(t_10())) <= 5.0 * om_log.step**2

    def test_csv_export(self, omega1, tmp_path):
        path = tmp_path / "omega.csv"
        omega1.export_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (characteristics.CSV_NODES**2, 3)


# a unit mass on v in [0.25, 4] for verify's offer check, J = 1
_UNIT_DENSITY = density.DensityGrid(
    axes=(np.linspace(0.25, 4.0, 16),),
    f_values=np.full(16, 1.0 / 3.75),
    F_values=np.zeros(16),
    support_mask=np.ones(16, dtype=bool),
)
_LEVELS = np.array([0.1, 0.5, 2.0])  # attained at some points of BOX, missed at others

# every omega query at one point (a_j, a_0), with the axes (0: a_j, 1: a_0)
# whose coordinate it checks; verify's offer check reads the offer's a_j
OMEGA_QUERIES = {
    "call": (lambda om, a_j, a_0: om(a_j, a_0), (0, 1)),
    "invert_a0_many": (lambda om, a_j, a_0: om.invert_a0_many(a_j, _LEVELS), (0,)),
    "invert_aj_many": (lambda om, a_j, a_0: om.invert_aj_many(_LEVELS, a_0), (1,)),
    "d_aj": (lambda om, a_j, a_0: om.d_aj(a_j, a_0), (0, 1)),
    "d_a0": (lambda om, a_j, a_0: om.d_a0(a_j, a_0), (0, 1)),
    "verify_offer": (
        lambda om, a_j, a_0: verify.rationalized_choice_prob(
            [SimpleNamespace(omega=om)], _UNIT_DENSITY, [a_0, a_j]
        ),
        (0,),
    ),
}
CHECKED_AXES = [
    (query, axis, side)
    for query, (_, axes) in sorted(OMEGA_QUERIES.items())
    for axis in axes
    for side in ("lo", "hi")
]


def _point_past(om, axis, side, slacks):
    """The domain's centre with one coordinate past its side's end by
    slacks times 1e-9 of the axis span (inside it when slacks < 0)."""
    point = [0.5 * (lo + hi) for lo, hi in om.domain]
    lo, hi = om.domain[axis]
    eps = 1e-9 * (hi - lo)
    point[axis] = lo - slacks * eps if side == "lo" else hi + slacks * eps
    return point


def _near_domain(lo, hi):
    """A coordinate inside [lo, hi], on an end, or within three slacks of one."""
    eps = 1e-9 * (hi - lo)
    near = st.tuples(st.sampled_from([lo, hi]), st.floats(-3.0, 3.0))
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([lo - eps, lo, hi, hi + eps]),
        near.map(lambda p: p[0] + p[1] * eps),
    )


def _reference(om, query, a_j, a_0):
    """What the query computes without its check: the spline, the inverter, or
    the central difference of the spline with one lattice step, clamped."""
    ev = om._spline.ev
    if query == "call":
        return ev(a_j, a_0)
    if query == "invert_a0_many":
        return characteristics._invert_monotone_vec(
            lambda x, aj, d: ev(aj, x, dy=d), a_j, _LEVELS, om.a0_lattice
        )
    if query == "invert_aj_many":
        return characteristics._invert_monotone_vec(
            lambda x, a0, d: ev(x, a0, dx=d), a_0, _LEVELS, om.aj_lattice
        )
    axis = ("d_aj", "d_a0").index(query)
    lattice = (om.aj_lattice, om.a0_lattice)[axis]
    (lo, hi), x = om.domain[axis], np.array([a_j, a_0])
    up, dn = x.copy(), x.copy()
    up[axis] = min(x[axis] + (lattice[1] - lattice[0]), hi)
    dn[axis] = max(x[axis] - (lattice[1] - lattice[0]), lo)
    return (ev(*up) - ev(*dn)) / (up[axis] - dn[axis])


class TestOmegaDomainRule:
    """OmegaFunction.require_in_domain, the one check behind every omega
    query: a coordinate past its axis by more than 1e-9 of the span raises
    DomainError, one within that slack evaluates, and the check never changes
    a value."""

    @pytest.mark.parametrize("slacks", [2.0, 1e9])
    @pytest.mark.parametrize("query, axis, side", CHECKED_AXES)
    def test_past_the_slack_rejected(self, omega1, query, axis, side, slacks):
        a_j, a_0 = _point_past(omega1, axis, side, slacks)
        with pytest.raises(DomainError, match=f"{('a_j', 'a_0')[axis]} outside omega domain"):
            OMEGA_QUERIES[query][0](omega1, a_j, a_0)

    @pytest.mark.parametrize("query, axis, side", CHECKED_AXES)
    def test_within_the_slack_evaluates(self, omega1, query, axis, side):
        a_j, a_0 = _point_past(omega1, axis, side, 0.5)
        assert not np.isnan(OMEGA_QUERIES[query][0](omega1, a_j, a_0)).any()

    def test_verify_names_the_alternative_out_of_domain(self, omega1, omega2):
        # a J = 2 batch where only the second offer's a_2 is past omega_2's a_j domain
        unit = density.DensityGrid(
            axes=(np.linspace(0.25, 4.0, 16),) * 2,
            f_values=np.full((16, 16), 1.0 / 3.75**2),
            F_values=np.zeros((16, 16)),
            support_mask=np.ones((16, 16), dtype=bool),
        )
        utilities = [SimpleNamespace(omega=om) for om in (omega1, omega2)]
        offers = [[2.0, 2.0, 2.0], [2.0, 2.0, omega2.domain[0][1] + 1.0]]
        with pytest.raises(DomainError, match=r"a_j outside omega domain .*\(alternative 2\)$"):
            verify.rationalized_choice_prob(utilities, unit, offers)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_query_applies_one_rule(self, omega1, data):
        point = [data.draw(_near_domain(lo, hi)) for lo, hi in omega1.domain]
        inside = [
            not (x < lo - 1e-9 * (hi - lo) or x > hi + 1e-9 * (hi - lo))
            for x, (lo, hi) in zip(point, omega1.domain)
        ]
        for query, (call, axes) in OMEGA_QUERIES.items():
            if not all(inside[k] for k in axes):
                with pytest.raises(DomainError):
                    call(omega1, *point)
            elif query == "verify_offer":
                call(omega1, *point)
            else:
                got, want = call(omega1, *point), _reference(omega1, query, *point)
                assert np.array_equal(got, want), query


class TestBicubicMatchesFitpack:
    """_Bicubic against FITPACK's s = 0 interpolant, scipy's
    RectBivariateSpline(kx=3, ky=3, s=0), which is only a test reference:
    values and both first partials within 1e-12 of the largest reference
    magnitude, at every site, the four corners, random interior points and
    points 1e-9 of the span outside the domain, where both clamp."""

    @staticmethod
    def _sites(n, spacing, lo, hi):
        return np.linspace(lo, hi, n) if spacing == "uniform" else np.geomspace(lo, hi, n)

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    @pytest.mark.parametrize("n", [4, 5, 21, 81])
    def test_values_and_partials(self, n, spacing):
        from scipy.interpolate import RectBivariateSpline

        x = self._sites(n, spacing, 0.05, 12.0)
        y = self._sites(n + 3, spacing, 0.002, 96.0)
        X, Y = np.meshgrid(x, y, indexing="ij")
        z = np.sin(3.0 * X) * np.log(Y) + X * np.sqrt(Y)
        ref = RectBivariateSpline(x, y, z, kx=3, ky=3, s=0)
        spline = characteristics._Bicubic(x, y, z)
        rng = np.random.default_rng(n)
        ex, ey = 1e-9 * (x[-1] - x[0]), 1e-9 * (y[-1] - y[0])
        px = np.concatenate([X.ravel(), x[[0, 0, -1, -1]], rng.uniform(x[0], x[-1], 500),
                             [x[0] - ex, x[-1] + ex, x[0] - ex, x[-1] + ex, x[n // 2]]])
        py = np.concatenate([Y.ravel(), y[[0, -1, 0, -1]], rng.uniform(y[0], y[-1], 500),
                             [y[0] - ey, y[-1] + ey, y[n // 2], y[-1] + ey, y[0] - ey]])
        for dx, dy in ((0, 0), (1, 0), (0, 1)):
            want = ref.ev(px, py, dx=dx, dy=dy)
            got = spline.ev(px, py, dx=dx, dy=dy)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (dx, dy)

    def test_broadcast_points(self):
        # a row of abscissae against a column of fixed coordinates, as the
        # inverter's knot table asks for it, and a 0-d pair
        x = np.linspace(-1.0, 2.0, 9)
        y = np.geomspace(0.5, 30.0, 11)
        spline = characteristics._Bicubic(x, y, np.add.outer(x**3, np.log(y)))
        grid = spline.ev(x, y[:, None])
        assert grid.shape == (11, 9)
        assert np.allclose(grid, (x**3)[None, :] + np.log(y)[:, None], rtol=0, atol=1e-12)
        assert spline.ev(2.0, 30.0).shape == ()


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


def _sweep_by_column(t, s_start, aj_states, a_ref, step, s_limits, aj_box):
    """Reference sweep: one _sweep_column call per distinct start and side of the anchor line."""
    out = np.full(len(aj_states), np.nan)
    for s0 in np.unique(s_start):
        for side, direction, limit in (
            (aj_states < a_ref, +1.0, s_limits[0]),
            (aj_states > a_ref, -1.0, s_limits[1]),
        ):
            col = (s_start == s0) & side
            out[col] = _sweep_column(t, s0, aj_states[col], a_ref, step, direction, limit, aj_box)
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
        j=j, pivot=0, domain=domain, basis="log_polynomial", degree=1,
        coefficients=np.array([-np.log(alpha_j), 1.0, -1.0]),
    )


class TestOneMarch:
    def test_both_sides_in_one_call(self):
        # da_j/ds = 1: a state below the line marches up in s and meets it
        # 0.5 later, one above marches down and meets it 0.5 earlier, one on
        # the line and one that reaches its limit first stay NaN
        out = characteristics._sweep_crossings(
            lambda aj, s: np.ones_like(aj), np.array([0.0, 0.0, 2.0, 0.0]),
            np.array([0.5, 1.5, 1.0, 0.0]), 1.0, 0.3, (0.8, -10.0), (-5.0, 5.0),
        )
        assert out[:2] == pytest.approx([0.5, -0.5], abs=1e-12)
        assert np.isnan(out[2:]).all()


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
            j=1, pivot=0, domain=BOX, basis="polynomial", degree=1,
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

    def test_overshooting_cubic_crossing_found(self):
        # H(theta) = 6 theta^3 - 15 theta^2 + 10 theta rises past 2 and falls
        # back to 1: plain Newton from the linear estimate 0.5 jumps past
        # theta = 1, the bracketed inverter finds the one crossing of 0.5
        theta = characteristics._hermite_crossing(
            np.array([0.0]), np.array([1.0]), np.array([5.0]), np.array([-1.0]), 2.0, 0.5
        )
        assert 0.0 <= theta[0] <= 1.0
        assert abs(6 * theta[0] ** 3 - 15 * theta[0] ** 2 + 10 * theta[0] - 0.5) <= 1e-12

    def test_target_out_of_range_raises(self):
        # the interpolant runs from 0 to 1, so a_j = 5 is never met: the
        # inverter marks it theta = inf, whose residual is NaN, not a pass
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="nan"):
            characteristics._hermite_crossing(
                np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]), 1.0, 5.0
            )


class TestUtilityInversion:
    def test_closed_form(self, w1):
        # w_1(a_1, v) = v a_1^2
        w = w1.omega.invert_a0_many(2.0, np.array([1.0]))
        assert w[0] == pytest.approx(4.0, abs=1e-6)

    def test_anchor_identity(self, w1):
        w = w1.omega.invert_a0_many(1.0, np.array([2.7]))
        assert w[0] == pytest.approx(2.7, abs=1e-8)

    def test_round_trip(self, w1):
        om = w1.omega
        aj, a0 = np.array([1.3, 2.5, 3.8]), np.array([2.0, 3.5, 1.2])
        assert om.invert_a0_many(aj, om(aj, a0)) == pytest.approx(a0, abs=1e-6)

    def test_out_of_range_level(self, w1):
        # the inverter reads a level below the range attained at a_j as -inf;
        # evaluating omega off its domain raises
        assert w1.omega.invert_a0_many(2.0, np.array([1e-4]))[0] == -np.inf
        with pytest.raises(DomainError):
            w1.omega(2.0, 0.5)

    def test_export_matches_per_row_inversion(self, w1, tmp_path):
        # reference: the row's level range from omega at the a_0 domain ends,
        # then one inversion per a_j row
        n = characteristics.CSV_NODES
        (aj_lo, aj_hi), (a0_lo, a0_hi) = w1.omega.domain
        rows = []
        for x in np.linspace(aj_lo, aj_hi, n):
            vs = np.linspace(w1.omega(x, a0_lo), w1.omega(x, a0_hi), n)
            ws = w1.omega.invert_a0_many(x, vs)
            rows.append(np.stack([np.full(n, x), vs, ws], axis=-1))
        ref = tmp_path / "ref.csv"
        field.write_csv_table(ref, ("a_j", "v", "w"), np.concatenate(rows).T)
        path = tmp_path / "w.csv"
        w1.export_csv(path)
        assert path.read_bytes() == ref.read_bytes()

    @given(st.floats(1.1, 3.9), st.floats(1.1, 3.9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, w1, aj, a0):
        v = w1.omega(aj, a0)
        assert abs(w1.omega.invert_a0_many(aj, np.array([v]))[0] - a0) <= 1e-6


def _bisect_reference(f, targets, lo, hi):
    """The bisection the Newton inverter replaced: a shared [lo, hi] bracket
    halved to 1e-9 in every entry, same -inf/+inf/NaN conventions."""
    targets = np.asarray(targets, dtype=float)
    f_lo = f(np.full_like(targets, lo))
    f_hi = f(np.full_like(targets, hi))
    increasing = f_hi >= f_lo
    below = targets < np.minimum(f_lo, f_hi)
    above = targets > np.maximum(f_lo, f_hi)
    a = np.full_like(targets, lo)
    b = np.full_like(targets, hi)
    for _ in range(100):
        if np.max(b - a) <= 1e-9:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        go_right = np.where(increasing, fm < targets, fm > targets)
        a = np.where(go_right, m, a)
        b = np.where(go_right, b, m)
    return np.select([below, above, np.isnan(targets)], [-np.inf, np.inf, np.nan], 0.5 * (a + b))


_UNIT = np.array([0.0, 1.0])


def _linear_ev(x, rising, d):
    # f = x on rising entries, 1 - x on falling ones
    return np.where(rising, 1.0, -1.0) if d else np.where(rising, x, 1.0 - x)


class TestInvertMonotone:
    @pytest.mark.parametrize(
        "targets, expected",
        [
            ([0.5, 0.25], [[0.5, 0.25], [0.5, 0.75]]),
            # a miss reports its side in level terms, whatever the direction;
            # a NaN target stays NaN
            ([-0.5, 1.5, np.nan], [[-np.inf, np.inf, np.nan]] * 2),
        ],
        ids=["inside", "outside"],
    )
    def test_mixed_directions_match_single_rows(self, targets, expected):
        # one batch, row 0 rising and row 1 falling: each row must be solved
        # in its own direction, as a single-row call does
        rising = np.array([[True], [False]])
        targets = np.array([targets, targets])
        batch = characteristics._invert_monotone_vec(_linear_ev, rising, targets, _UNIT)
        rows = [
            characteristics._invert_monotone_vec(_linear_ev, r, targets[i], _UNIT)
            for i, r in enumerate((True, False))
        ]
        assert np.array_equal(batch, np.stack(rows), equal_nan=True)
        assert np.allclose(batch, expected, atol=1e-8, equal_nan=True)

    def test_flat_stretch_falls_back_to_bisection(self):
        # f = max(x, 0)^2 on [-1, 1]: the secant seed -1 + 2 v of every level
        # v < 0.5 lies where the slope is zero, so each first step bisects
        zero_slopes = []

        def ev(x, _, d):
            if d:
                slope = 2.0 * np.maximum(x, 0.0)
                zero_slopes.append(int(np.sum(slope == 0.0)))
                return slope
            return np.maximum(x, 0.0) ** 2

        targets = np.array([0.25, 0.01, 0.16])
        x = characteristics._invert_monotone_vec(ev, 0.0, targets, np.array([-1.0, 1.0]))
        assert zero_slopes[0] == len(targets)
        assert np.allclose(x, np.sqrt(targets), rtol=0, atol=1e-9)

    def test_many_knots_match_two_knots(self):
        # rows alternate rising and falling, with a curvature per row; seeding
        # from 17 knots changes the start, not the root or the miss pattern
        rng = np.random.default_rng(5)
        rising = np.arange(6) % 2 == 0
        power = np.linspace(0.5, 3.0, 6)
        rows = np.arange(6)[:, None]

        def ev(x, i, d):
            # row i: x^p rising or 1 - x^p falling
            p = power[i]
            g = p * x ** (p - 1.0) if d else x ** p
            return np.where(rising[i], g, -g if d else 1.0 - g)

        targets = rng.uniform(-0.2, 1.2, (6, 50))
        targets[2, 7] = np.nan
        two = characteristics._invert_monotone_vec(ev, rows, targets, _UNIT)
        many = characteristics._invert_monotone_vec(ev, rows, targets, np.linspace(0.0, 1.0, 17))
        for pattern in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(pattern(many), pattern(two))
        fin = np.isfinite(two)
        assert fin.sum() > targets.size // 2
        assert np.max(np.abs(many[fin] - two[fin])) <= 1e-12

    def test_flat_stretch_over_several_knots(self):
        # f = max(x, 0)^2 is flat on the first five of the nine knots
        def ev(x, _, d):
            return 2.0 * np.maximum(x, 0.0) if d else np.maximum(x, 0.0) ** 2

        targets = np.array([0.25, 0.01, 0.16, 1e-6, 0.0, 1.0])
        x = characteristics._invert_monotone_vec(ev, 0.0, targets, np.linspace(-1.0, 1.0, 9))
        assert np.all(np.abs(ev(x, 0.0, 0) - targets) <= 1e-9)
        assert np.allclose(x[:4], np.sqrt(targets[:4]), rtol=0, atol=1e-9)

    def test_target_at_a_knot_returns_that_knot(self):
        knots = np.geomspace(0.1, 10.0, 11)

        def ev(x, _, d):
            return 1.0 / x + 1.0 if d else np.log(x) + x

        x = characteristics._invert_monotone_vec(ev, 0.0, ev(knots, 0.0, 0), knots)
        assert np.allclose(x, knots, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def wide_log_omega():
    domain = ((0.05, 12.0), (0.002, 96.0))
    return characteristics.build_omega(
        _log_sieve_ratio(1, 2.0, domain), domain, a_ref=1.0, resolution=81,
        step=np.log(96.0 / 0.002) / 50, j=1,
    )


class TestNewtonMatchesBisection:
    """Both inversions agree with the bisection reference on a wide log omega:
    same -inf/+inf/NaN pattern, values within 1e-6 (1 + |x|)."""

    @staticmethod
    def _assert_match(new, ref):
        assert np.array_equal(np.isnan(new), np.isnan(ref))
        assert np.array_equal(np.isposinf(new), np.isposinf(ref))
        assert np.array_equal(np.isneginf(new), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert fin.sum() > ref.size // 3
        assert np.all(np.abs(new[fin] - ref[fin]) <= 1e-6 * (1.0 + np.abs(ref[fin])))

    def _levels(self, om, n):
        # the lattice's level span, one level past each end and one NaN level
        v = np.geomspace(om.lattice_values.min(), om.lattice_values.max(), n)
        v[[0, -1]] *= (1.0 / 3.0, 3.0)
        v[n // 2] = np.nan
        return v

    def test_invert_a0_many(self, wide_log_omega):
        om = wide_log_omega
        (aj_lo, aj_hi), (a0_lo, a0_hi) = om.domain
        aj = np.geomspace(aj_lo, aj_hi, 40)[:, None]
        v = np.broadcast_to(self._levels(om, 301), (40, 301))
        ref = _bisect_reference(
            lambda x: om._spline.ev(np.broadcast_to(aj, x.shape), x), v, a0_lo, a0_hi
        )
        self._assert_match(om.invert_a0_many(aj, v), ref)

    def test_invert_aj_many(self, wide_log_omega):
        om = wide_log_omega
        (aj_lo, aj_hi), (a0_lo, a0_hi) = om.domain
        a0 = np.geomspace(a0_lo, a0_hi, 40)[:, None]
        v = np.broadcast_to(self._levels(om, 301), (40, 301))
        ref = _bisect_reference(
            lambda x: om._spline.ev(x, np.broadcast_to(a0, x.shape)), v, aj_lo, aj_hi
        )
        self._assert_match(om.invert_aj_many(v, a0), ref)


class TestLatticeSeed:
    def test_invert_aj_many_value_rounds(self, wide_log_omega, monkeypatch):
        # seeded in its own lattice cell, each level converges in a few
        # Newton rounds; the knot table is one of the counted calls (seeded
        # between the two domain ends, this omega took 2 + 18)
        om = wide_log_omega

        class Counting:
            values = 0

            def ev(self, x, y, dx=0, dy=0):
                Counting.values += dx == dy == 0
                return spline.ev(x, y, dx=dx, dy=dy)

        spline = om._spline
        monkeypatch.setattr(om, "_spline", Counting())
        _, (a0_lo, a0_hi) = om.domain
        a0 = np.geomspace(a0_lo, a0_hi, 40)[:, None]
        v = np.geomspace(om.lattice_values.min(), om.lattice_values.max(), 301)
        om.invert_aj_many(np.broadcast_to(v, (40, 301)), a0)
        assert Counting.values <= 6
