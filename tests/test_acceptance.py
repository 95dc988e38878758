"""End-to-end acceptance checks, one criterion per test.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -s or
in captured output on failure) before asserting, so a full run yields one
status line per criterion regardless of outcome.
"""

import time

import numpy as np
import pytest

from rumkit import characteristics, density, field, model, symmetry, verify

from conftest import oracle_cdf


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


class TestAcceptance:
    def test_criterion_1_symmetry_necessity(self, lin_field):
        # no income effects: every Slutsky ratio is 1
        t0 = time.monotonic()
        rng = np.random.default_rng(11)
        pts = -0.85 + rng.random((100, 3)) * 1.7
        worst = 0.0
        for a in pts:
            for j, m in ((1, 0), (2, 0), (2, 1)):
                worst = max(worst, abs(symmetry.slutsky_ratio(lin_field, j, m, [a])[0] - 1.0))
        elapsed = time.monotonic() - t0
        ok = worst <= 0.01 and elapsed <= 60.0
        _report(1, ok, f"max |ratio - 1| = {worst:.2e}, {elapsed:.1f}s")

    def test_criterion_2_translation_invariance(self, lin_field, log_field):
        lin_rep = verify.translation_invariance_check(
            lin_field, shifts=(-0.3, 0.2), tol=5e-3
        )
        log_rep = verify.translation_invariance_check(
            log_field, shifts=(-0.5, 0.4), tol=5e-3
        )
        dz = symmetry.test_daly_zachary(log_field, tol=0.01)
        rng = np.random.default_rng(7)
        pts = 1.3 + rng.random((100, 3)) * 2.4
        worst = max(
            abs(symmetry.slutsky_ratio(log_field, 1, 0, [a])[0] - a[1] / (2.0 * a[0]))
            for a in pts
        )
        ok = lin_rep["passed"] and not log_rep["passed"] and not dz.passed and worst <= 5e-3
        _report(
            2,
            ok,
            f"lin shift dev = {lin_rep['max_deviation']:.2e}, "
            f"log shift dev = {log_rep['max_deviation']:.2e}, "
            f"ratio vs a_1/(2 a_0) = {worst:.2e}",
        )

    def test_criterion_3_cross_coordinate_independence(
        self, log_field, planted_interaction_field
    ):
        rep = symmetry.test_condition_A(log_field, m=0, tol=5e-3)
        planted = symmetry.test_condition_A(planted_interaction_field, m=0, tol=5e-3)
        spread = planted.pair_stats["1,0"]["statistic"]
        ok = rep.passed and rep.worst <= 5e-3 and not planted.passed and spread >= 0.05
        _report(3, ok, f"separable spread = {rep.worst:.2e}, planted = {spread:.3f}")

    def test_criterion_4_characteristic_ode(self):
        t = lambda aj, a0: aj / (2.0 * a0)
        # the march build_omega runs: node (a_1, a_0) = (1, 1) meets the
        # anchor a_1 = 2 at a_0 = 4 on the trace a_1 = sqrt(a_0)
        errs = []
        for step in (0.01, 0.005):
            om = characteristics.build_omega(
                t, ((1.0, 4.0), (1.0, 4.0)), a_ref=2.0, resolution=4, step=step
            )
            errs.append(abs(om.lattice_values[0, 0] - 4.0))
        ratio = errs[0] / errs[1]
        ok = errs[0] <= 1e-8 and abs(ratio - 16.0) <= 4.0
        _report(4, ok, f"endpoint error = {errs[0]:.2e}, halving ratio = {ratio:.1f}")

    def test_criterion_5_omega_reconstruction(self):
        t = lambda aj, a0: aj / (2.0 * a0)
        om = characteristics.build_omega(t, ((1.0, 4.0), (1.0, 4.0)), a_ref=1.0, j=1)
        residual = float(np.max(om.pde_residual(t)))
        aj = np.linspace(1.05, 3.95, 31)
        a0 = np.linspace(1.05, 3.95, 31)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        level_err = float(
            np.max(np.abs(om(AJ.ravel(), A0.ravel()) - (A0 / AJ**2).ravel()))
        )
        ok = residual <= 5.0 * om.step**2 and level_err <= 1e-4
        _report(5, ok, f"residual = {residual:.2e}, level error = {level_err:.2e}")

    def test_criterion_6_density_reconstruction(self, wide_field, wide_omegas):
        t0 = time.monotonic()
        small = (np.geomspace(0.8, 1.25, 7), np.geomspace(0.8, 1.25, 7))
        d_mixed = density.reconstruct_density(wide_field, wide_omegas, small)
        d_alt = density.reconstruct_density(wide_field, wide_omegas, small, via=1)
        f11 = float(d_mixed.f_values[3, 3])
        h_max = max(wide_field.grid.spacing)
        route_gap = float(
            np.max(
                np.abs(d_mixed.f_values - d_alt.f_values)[
                    d_mixed.support_mask & d_alt.support_mask
                ]
            )
        )
        route_tol = 10.0 * h_max**2 * float(np.max(d_mixed.f_values))
        # the mass window below is not attainable: with the anchoring pinned
        # by f(1,1) = 2/27, the true heterogeneity mass inside [0.05, 40]^2 is
        # F(40,40) - F(0.05,40) - F(40,0.05) + F(0.05,0.05) ~= 0.8816 with
        # F(v) = 1/(1 + 1/v_1 + 1/v_2); the excluded tails are real mass.
        # The assertion is kept as stated and fails honestly; an independent
        # test asserts recovery of the analytic box mass instead.
        v_box = (np.geomspace(0.05, 40.0, 201),) * 2
        mass = density.check_normalization(
            density.reconstruct_density(wide_field, wide_omegas, v_box)
        ).mass
        elapsed = time.monotonic() - t0
        ok = (
            abs(f11 - 2.0 / 27.0) <= 5e-3
            and route_gap <= route_tol
            and 0.97 <= mass <= 1.01
            and elapsed <= 300.0
        )
        _report(
            6,
            ok,
            f"f(1,1) = {f11:.5f} vs {2 / 27:.5f}, route gap = {route_gap:.2e} "
            f"(tol {route_tol:.2e}), mass = {mass:.4f} (window [0.97, 1.01]), "
            f"{elapsed:.0f}s",
        )

    def test_criterion_7_round_trip(self, wide_field, wide_utilities, wide_density):
        lower = np.asarray(wide_field.grid.lower)
        upper = np.asarray(wide_field.grid.upper)
        rng = np.random.default_rng(3)
        pts = lower + (0.15 + 0.7 * rng.random((50, 3))) * (upper - lower)
        quad = verify.round_trip_report(
            wide_field, wide_utilities, wide_density, pts, tol=0.02
        )
        mc = verify.round_trip_report(
            wide_field, wide_utilities, wide_density, pts, tol=0.03,
            method="monte_carlo", n=100_000, seed=1,
        )
        ok = quad.passed and mc.passed
        _report(
            7,
            ok,
            f"quadrature max err = {quad.overall_max:.4f} (tol 0.02), "
            f"MC max err = {mc.overall_max:.4f} (tol 0.03)",
        )

    def test_criterion_8_shape_checks(self, log_field, planted_interaction_field):
        rep = field.check_shape(log_field)
        vals = planted_interaction_field.values.copy()
        sl = vals[..., 0].copy()
        sl[3], sl[4] = vals[4, :, :, 0].copy(), vals[3, :, :, 0].copy()
        vals[..., 0] = sl
        rest = 1.0 - vals[..., 0]
        shares = planted_interaction_field.values[..., 1:]
        shares = shares / shares.sum(axis=-1, keepdims=True)
        vals[..., 1:] = rest[..., None] * shares
        broken = field.ProbabilityField(planted_interaction_field.grid, vals)
        bad = field.check_shape(broken)
        loc = bad.worst_monotone_violation
        located = (
            not bad.monotone_ok.all()
            and loc["alternative"] == 0
            and loc["axis"] == 0
            and loc["index"][0] in (3, 4)
        )
        ok = rep.passed and located
        _report(
            8,
            ok,
            f"clean field passed = {rep.passed}, planted violation at "
            f"alt {loc['alternative']} axis {loc['axis']} index {loc['index']}",
        )

    def test_criterion_9_sieve_recovery(self, log_field_fine):
        t = symmetry.fit_ratio_sieve(
            log_field_fine, 1, 0, basis="log_polynomial", degree=1
        )
        target = np.array([-np.log(2.0), 1.0, -1.0])
        coef_err = float(np.max(np.abs(t.coefficients - target)))
        ok = coef_err <= 1e-3 and t.fit_rms <= 1e-3
        _report(9, ok, f"coefficient error = {coef_err:.2e}, RMS = {t.fit_rms:.2e}")
