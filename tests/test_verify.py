"""Round-trip integrators and the no-income-effects translation test."""

from types import SimpleNamespace

import numpy as np
import pytest

from rumkit import characteristics, density, field, model, verify
from rumkit.errors import DomainError, UnnormalizedDensityError, ValidationError

from conftest import log_model, oracle_prob


@pytest.fixture(scope="module")
def atom_density():
    """Unit mass concentrated at one interior v-node of a small lattice."""
    v_star = (2.0, 0.5)
    axes = (
        np.linspace(1.9, 2.1, 5),
        np.linspace(0.45, 0.55, 5),
    )
    f = np.zeros((5, 5))
    dv1 = axes[0][1] - axes[0][0]
    dv2 = axes[1][1] - axes[1][0]
    f[2, 2] = 1.0 / (dv1 * dv2)  # trapezoid corner averages integrate to 1
    return v_star, density.DensityGrid(
        axes=axes,
        f_values=f,
        F_values=np.zeros((5, 5)),
        support_mask=np.ones((5, 5), dtype=bool),
        clipped_nodes=0,
        min_raw_density=0.0,
    )


class TestRationalizedChoiceProb:
    def test_oracle_point_quadrature(self, wide_field, wide_utilities, wide_density):
        q = verify.rationalized_choice_prob(
            wide_utilities, wide_density, (2.0, 1.0, 4.0)
        )
        assert np.max(np.abs(q - np.array([0.4, 0.2, 0.4]))) <= 0.02

    def test_oracle_point_monte_carlo(self, wide_utilities, wide_density):
        q = verify.rationalized_choice_prob(
            wide_utilities, wide_density, (2.0, 1.0, 4.0),
            method="monte_carlo", n=100_000, seed=0,
        )
        assert np.max(np.abs(q - np.array([0.4, 0.2, 0.4]))) <= 0.03

    def test_outside_option_dominance(self, wide_utilities, wide_density):
        a = (49.0, 0.06, 0.1)
        q = verify.rationalized_choice_prob(wide_utilities, wide_density, a)
        assert q[0] >= 0.99

    def test_atom_density_matches_pointwise_argmax(self, wide_utilities, atom_density):
        v_star, d = atom_density
        a = (1.0, 1.5, 1.0)
        q = verify.rationalized_choice_prob(wide_utilities, d, a)
        w = [a[0]] + [
            u.omega.invert_a0_many(a[j + 1], np.array([v_star[j]]))[0]
            for j, u in enumerate(wide_utilities)
        ]
        assert np.all(np.isfinite(w))
        winner = int(np.argmax(w))
        assert q[winner] >= 0.999

    def test_integrators_agree(self, wide_utilities, wide_density):
        n = 200_000
        for a in [(2.0, 1.0, 4.0), (5.0, 2.0, 3.0), (0.5, 0.8, 0.3)]:
            q_grid = verify.rationalized_choice_prob(wide_utilities, wide_density, a)
            q_mc = verify.rationalized_choice_prob(
                wide_utilities, wide_density, a, method="monte_carlo", n=n, seed=4
            )
            se = np.sqrt(np.maximum(q_grid * (1 - q_grid), 1e-4) / n)
            assert np.all(np.abs(q_grid - q_mc) <= 3.0 * se + 0.01)

    def test_renormalization_and_leakage_reported(self, wide_utilities, wide_density):
        q, diag = verify.rationalized_choice_prob(
            wide_utilities, wide_density, (2.0, 1.0, 4.0), return_diagnostics=True
        )
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= diag["skipped_mass"] <= 0.06
        assert abs(diag["leakage"]) <= 0.06

    def test_unnormalized_density_rejected(self, wide_utilities):
        # narrow-domain reconstruction only carries ~23% of the mass
        m = log_model()
        grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (41,) * 3)
        f = model.tabulate(m, grid)
        boxes = ((1.0, 4.0), (1.0, 4.0))
        t1 = lambda aj, a0: aj / (2.0 * a0)
        t2 = lambda aj, a0: 2.0 * aj / a0
        omegas = [
            characteristics.build_omega(t1, boxes, a_ref=1.0, j=1, resolution=81),
            characteristics.build_omega(t2, boxes, a_ref=1.0, j=2, resolution=81),
        ]
        v_grid = density.make_v_grid(omegas, n=41)
        d = density.reconstruct_density(f, omegas, v_grid)
        with pytest.raises(UnnormalizedDensityError):
            verify.rationalized_choice_prob(wide_utilities, d, (2.0, 2.0, 2.0))

    @pytest.mark.parametrize("method", ["grid_quadrature", "monte_carlo"])
    @pytest.mark.parametrize(
        "a",
        [(np.nan, 1.0, 4.0), (2.0, np.inf, 4.0), (2.0, 50.0, 4.0), (2.0, 1.0, 0.01)],
        ids=["nan", "inf", "a1_above_domain", "a2_below_domain"],
    )
    def test_unusable_offer_rejected(self, monkeypatch, wide_utilities, wide_density, method, a):
        # before any work: no utility table is built
        monkeypatch.setattr(verify, "_utility_tables", lambda *args: pytest.fail("tables built"))
        for offers in (a, [(2.0, 1.0, 4.0), a]):
            with pytest.raises(ValidationError):
                verify.rationalized_choice_prob(
                    wide_utilities, wide_density, offers, method=method, n=1_000
                )

    @pytest.mark.parametrize(
        "offers, kwargs",
        [((2.0, 1.0), {}), ((2.0, 1.0, 4.0, 1.0), {}),
         ((2.0, 1.0, 4.0), {"method": "monte_carlo", "n": 0})],
        ids=["short_offer", "long_offer", "no_draws"],
    )
    def test_bad_arguments_rejected(self, monkeypatch, wide_utilities, wide_density,
                                    offers, kwargs):
        # the library's own checks, which the CLI's fail-fast draw check precedes
        monkeypatch.setattr(verify, "_utility_tables", lambda *args: pytest.fail("tables built"))
        with pytest.raises(ValidationError):
            verify.rationalized_choice_prob(wide_utilities, wide_density, offers, **kwargs)

    def test_unknown_method_rejected(self, wide_utilities, wide_density):
        with pytest.raises(ValidationError):
            verify.rationalized_choice_prob(
                wide_utilities, wide_density, (2.0, 1.0, 4.0), method="simpson"
            )


class TestRoundTrip:
    def test_end_to_end_passes(self, wide_field, wide_utilities, wide_density):
        rng = np.random.default_rng(7)
        lo = np.asarray(wide_field.grid.lower)
        hi = np.asarray(wide_field.grid.upper)
        span = hi - lo
        pts = lo + 0.15 * span + rng.random((20, 3)) * 0.7 * span
        rep = verify.round_trip_report(
            wide_field, wide_utilities, wide_density, pts, tol=0.02
        )
        assert rep.passed
        assert rep.overall_max <= 0.02

    def test_mismatched_anchoring_fails(self, wide_field, wide_ratios,
                                        wide_utilities, wide_density):
        grid = wide_field.grid
        om1_other = characteristics.build_omega(
            wide_ratios[0],
            ((grid.lower[1], grid.upper[1]), (grid.lower[0], grid.upper[0])),
            a_ref=3.0,
            resolution=161,
            j=1,
        )
        mixed = [
            characteristics.UtilityFunction(j=1, omega=om1_other),
            wide_utilities[1],
        ]
        rng = np.random.default_rng(3)
        lo = np.asarray(grid.lower)
        span = np.asarray(grid.upper) - lo
        pts = lo + 0.2 * span + rng.random((8, 3)) * 0.6 * span
        rep = verify.round_trip_report(wide_field, mixed, wide_density, pts, tol=0.02)
        assert not rep.passed
        assert rep.overall_max > 0.05

    def test_report_serializes(self, wide_field, wide_utilities, wide_density):
        pts = [(2.0, 1.0, 4.0)]
        rep = verify.round_trip_report(
            wide_field, wide_utilities, wide_density, pts, tol=0.02
        )
        doc = rep.to_dict()
        assert set(doc) >= {"max_abs_error", "passed", "tol", "method", "mass"}


class TestBatchedOffers:
    """One call over many offers equals one call per offer at the same seed,
    bit for bit: every offer meets the same draws."""

    @pytest.mark.parametrize("method", ["grid_quadrature", "monte_carlo"])
    def test_batch_equals_stacked_single_offers(self, wide_utilities, wide_density, method):
        # the second offer sends levels past both ends of the omega ranges
        offers = np.array([(2.0, 1.0, 4.0), (49.0, 0.06, 0.1), (0.5, 0.8, 0.3)])
        q, diag = verify.rationalized_choice_prob(
            wide_utilities, wide_density, offers, method=method, n=20_000, seed=3,
            return_diagnostics=True,
        )
        singles = [
            verify.rationalized_choice_prob(
                wide_utilities, wide_density, a, method=method, n=20_000, seed=3,
                return_diagnostics=True,
            )
            for a in offers
        ]
        assert q.shape == offers.shape
        assert np.array_equal(q, np.stack([q_i for q_i, _ in singles]))
        for key in ("skipped_mass", "leakage"):
            assert diag[key].shape == (len(offers),)
            assert np.array_equal(diag[key], [d[key] for _, d in singles])
        assert diag["mass"] == singles[0][1]["mass"]

    @pytest.mark.parametrize("method", ["grid_quadrature", "monte_carlo"])
    def test_report_matches_per_point_loop(
        self, monkeypatch, wide_field, wide_utilities, wide_density, method
    ):
        rng = np.random.default_rng(11)
        lo = np.asarray(wide_field.grid.lower)
        span = np.asarray(wide_field.grid.upper) - lo
        pts = lo + 0.15 * span + rng.random((6, 3)) * 0.7 * span
        # reference: one single-offer call and one interpolation per point
        errs = np.array([
            np.abs(
                verify.rationalized_choice_prob(
                    wide_utilities, wide_density, a, method=method, n=20_000, seed=2
                )
                - wide_field.interpolate(a)
            )
            for a in pts
        ])
        calls = []
        prob, interp = verify.rationalized_choice_prob, field.ProbabilityField.interpolate
        monkeypatch.setattr(
            verify, "rationalized_choice_prob",
            lambda *args, **kw: calls.append("prob") or prob(*args, **kw),
        )
        monkeypatch.setattr(
            field.ProbabilityField, "interpolate",
            lambda self, a: calls.append("interpolate") or interp(self, a),
        )
        rep = verify.round_trip_report(
            wide_field, wide_utilities, wide_density, pts, method=method, n=20_000, seed=2
        )
        assert sorted(calls) == ["interpolate", "prob"]
        assert np.array_equal(rep.max_abs_error, errs.max(axis=0))
        assert np.array_equal(rep.mean_abs_error, errs.mean(axis=0))
        assert rep.worst_point == tuple(pts[int(np.argmax(errs.max(axis=1)))])
        assert rep.passed == bool(errs.max() <= rep.tol)


class TestTranslationInvariance:
    def test_linear_model_passes(self, lin_field):
        rep = verify.translation_invariance_check(lin_field, (0.25, 0.5), tol=5e-3)
        assert rep["passed"]
        assert rep["max_deviation"] <= 5e-3

    def test_log_model_fails(self, log_field):
        rep = verify.translation_invariance_check(log_field, (0.25, 0.5), tol=5e-3)
        assert not rep["passed"]
        assert rep["max_deviation"] > 0.01

    def test_zero_shift_exact(self, log_field):
        rep = verify.translation_invariance_check(log_field, (0.0,), tol=1e-12)
        assert rep["passed"]

    def test_oversized_shift_rejected(self, lin_field):
        with pytest.raises(ValidationError):
            verify.translation_invariance_check(lin_field, (5.0,))

    def test_symmetry_implies_translation_invariance(self, lin_field):
        # sufficiency at field level: a Daly-Zachary pass forces translation
        # invariance at a comparable tolerance
        from rumkit import symmetry as sym

        dz = sym.test_daly_zachary(lin_field, tol=0.01)
        assert dz.passed
        rep = verify.translation_invariance_check(lin_field, (0.25,), tol=5e-3)
        assert rep["passed"]


# -- reference integrators: the sub-cell argmax and the per-draw argmax ------


def reference_winners(tables, a0):
    """Argmax over per-axis tables broadcast to the full shape."""
    J = len(tables)
    shape = tuple(len(t) for t in tables)
    best = np.full(shape, float(a0))
    who = np.zeros(shape, dtype=int)
    inf_count = np.zeros(shape, dtype=int)
    for j, t in enumerate(tables):
        resh = [1] * J
        resh[j] = len(t)
        w_b = np.broadcast_to(t.reshape(resh), shape)
        take = w_b > best
        best = np.where(take, w_b, best)
        who = np.where(take, j + 1, who)
        inf_count = inf_count + (np.isinf(w_b) & (w_b > 0))
    return np.where(inf_count > 1, -1, who)


def reference_subcell_prob(utilities, density_, a, refine):
    """(q, skipped mass) of the sub-cell rule: each cell's mass spread evenly
    over refine^J sub-cells, the winner judged at each sub-cell centre on
    linearly interpolated w. First order in the v-step; blocks of v_1 cells
    keep the refine = 16 reference small."""
    a = np.asarray(a, dtype=float)
    J = density_.n_dims
    masses = density_.cell_masses()
    tables = [t[0] for t in verify._utility_tables(utilities, density_, a[None])]
    frac = (np.arange(refine) + 0.5) / refine
    subs = [verify._lerp_tables(t[:-1, None], t[1:, None], frac).ravel() for t in tables]
    tally = np.zeros(J + 2)
    for r0 in range(0, len(masses), 8):
        block = masses[r0 : r0 + 8] / refine**J
        for d in range(J):
            block = np.repeat(block, refine, axis=d)
        rows = subs[0][r0 * refine : r0 * refine + len(block)]
        who = reference_winners([rows] + subs[1:], a[0])
        tally += np.bincount(who.ravel() + 1, block.ravel(), J + 2)
    return tally[1:] / tally[1:].sum(), float(tally[0])


def reference_monte_carlo_prob(utilities, density_, a, n, seed):
    """(q, skipped mass) with one per-draw argmax and masked sums."""
    a = np.asarray(a, dtype=float)
    J = density_.n_dims
    masses = density_.cell_masses()
    total = float(masses.sum())
    tables = [t[0] for t in verify._utility_tables(utilities, density_, a[None])]
    counts = np.zeros(J + 1)
    rng = np.random.default_rng(seed)
    flat = masses.ravel()
    draws = rng.choice(len(flat), size=n, p=flat / flat.sum())
    cells = np.column_stack(np.unravel_index(draws, masses.shape))
    u = rng.random((n, J))
    best = np.full(n, a[0])
    who = np.zeros(n, dtype=int)
    n_inf = np.zeros(n, dtype=int)
    for j in range(J):
        t = tables[j]
        w = verify._lerp_tables(t[cells[:, j]], t[cells[:, j] + 1], u[:, j])
        n_inf += (np.isinf(w) & (w > 0)).astype(int)
        take = w > best
        best = np.where(take, w, best)
        who = np.where(take, j + 1, who)
    who = np.where(n_inf > 1, -1, who)
    for j in range(J + 1):
        counts[j] = float(np.sum(who == j)) * total / n
    skipped = float(np.sum(who == -1)) * total / n
    return counts / counts.sum(), skipped


class _CappedOmega:
    """Level function omega(a_j, a_0) = a_0 on the a_0 domain [0, 1]: its
    utility is w = v up to level 1 and +inf above."""

    domain = ((0.0, 2.0), (0.0, 1.0))

    def require_in_domain(self, axis, a):
        lo, hi = self.domain[axis]
        if np.any((np.asarray(a) < lo) | (np.asarray(a) > hi)):
            raise DomainError(f"{('a_j', 'a_0')[axis]} outside omega domain [{lo}, {hi}]")

    def __call__(self, a_j, a_0):
        return a_0 + 0.0 * np.asarray(a_j)

    def invert_a0_many(self, a_j, v):
        v = np.asarray(v, dtype=float)
        return np.where(v <= 1.0, v, np.inf)


@pytest.fixture(scope="module")
def capped_case():
    """Uniform unit mass on [0.5, 1.5]^2: where both levels exceed 1 the two
    inside alternatives sit at +inf together and the mass is undecidable."""
    axes = (np.linspace(0.5, 1.5, 11), np.linspace(0.5, 1.5, 21))
    d = density.DensityGrid(
        axes=axes,
        f_values=np.ones((11, 21)),
        F_values=np.zeros((11, 21)),
        support_mask=np.ones((11, 21), dtype=bool),
    )
    utilities = [SimpleNamespace(omega=_CappedOmega()) for _ in range(2)]
    return utilities, d


WIDE_POINTS = [(2.0, 1.0, 4.0), (5.0, 2.0, 3.0), (0.5, 0.8, 0.3)]


class TestWinnerRuleEquivalence:
    """The threshold quadrature against the sub-cell rule and the analytic
    capped case; Monte Carlo against its per-draw reference, bit for bit."""

    @pytest.mark.parametrize("method", ["grid_quadrature", "monte_carlo"])
    def test_wide_points(self, wide_utilities, wide_density, method):
        for a in WIDE_POINTS:
            q, diag = verify.rationalized_choice_prob(
                wide_utilities, wide_density, a, method=method, n=20_000, seed=5,
                return_diagnostics=True,
            )
            if method == "monte_carlo":
                q_ref, skipped_ref = reference_monte_carlo_prob(
                    wide_utilities, wide_density, a, n=20_000, seed=5
                )
                assert np.max(np.abs(q - q_ref)) <= 1e-12
                assert diag["skipped_mass"] == pytest.approx(skipped_ref, abs=1e-12)
            else:
                # at least as close to the fine sub-cell rule as the coarse one
                q4, _ = reference_subcell_prob(wide_utilities, wide_density, a, 4)
                q16, _ = reference_subcell_prob(wide_utilities, wide_density, a, 16)
                assert np.max(np.abs(q - q16)) <= np.max(np.abs(q4 - q16))

    @pytest.mark.parametrize("method", ["grid_quadrature", "monte_carlo"])
    def test_undecidable_mass_skipped(self, capped_case, method):
        utilities, d = capped_case
        a = (0.7, 1.0, 1.0)
        q, diag = verify.rationalized_choice_prob(
            utilities, d, a, method=method, n=20_000, seed=1, return_diagnostics=True
        )
        if method == "monte_carlo":
            q_ref, skipped_ref = reference_monte_carlo_prob(utilities, d, a, n=20_000, seed=1)
            assert diag["skipped_mass"] > 0.1
            assert diag["skipped_mass"] == pytest.approx(skipped_ref, abs=1e-12)
            assert np.max(np.abs(q - q_ref)) <= 1e-12
        else:
            # q_0 = 0.2^2; q_1 = int_0.7^1 (v - 0.5) dv + 0.5 * 0.5; both
            # levels above 1 leave 0.5^2 undecidable
            counts = q * (1.0 - diag["leakage"])
            assert diag["skipped_mass"] == pytest.approx(0.25, abs=1e-12)
            assert np.max(np.abs(counts - [0.04, 0.355, 0.355])) <= 1e-12

    def test_wide_mass_identity(self, wide_utilities, wide_density):
        """Decided plus undecidable mass adds up to the density mass."""
        _, diag = verify.rationalized_choice_prob(
            wide_utilities, wide_density, np.array(WIDE_POINTS), return_diagnostics=True
        )
        decided = 1.0 - diag["leakage"]
        assert np.max(np.abs(diag["mass"] - decided - diag["skipped_mass"])) <= 1e-3


# -- closed form: iid Gumbel tastes under exact linear level functions -------


def gumbel_case(J, n_nodes):
    """Utilities w_j = a_j + v_j from build_omega with t = 1 (omega = a_0 - a_j
    exactly) and the iid Gumbel(0, 1) density on the v axis [-3, 12]."""
    ones = lambda aj, a0: np.ones(np.broadcast(aj, a0).shape)
    utilities = [
        characteristics.UtilityFunction(
            j=j,
            omega=characteristics.build_omega(
                ones, ((-5.0, 5.0), (-20.0, 20.0)), a_ref=0.0, resolution=11, j=j
            ),
        )
        for j in range(1, J + 1)
    ]
    axes = (np.linspace(-3.0, 12.0, n_nodes),) * J
    mesh = np.meshgrid(*axes, indexing="ij")
    f = np.prod([np.exp(-m - np.exp(-m)) for m in mesh], axis=0)
    F = np.prod([np.exp(-np.exp(-m)) for m in mesh], axis=0)
    d = density.DensityGrid(
        axes=axes, f_values=f, F_values=F, support_mask=np.ones(f.shape, dtype=bool)
    )
    return utilities, d


def gumbel_choice_prob(offers):
    """q_0 = exp(-sum_k e^(a_k - a_0)); the max of independent Gumbels is
    independent of which one attains it, so q_j = softmax_j(a) (1 - q_0)."""
    a0, a = offers[:, :1], offers[:, 1:]
    q0 = np.exp(-np.exp(a - a0).sum(axis=1, keepdims=True))
    return np.hstack([q0, np.exp(a) / np.exp(a).sum(axis=1, keepdims=True) * (1.0 - q0)])


class TestClosedFormGumbel:
    """Grid quadrature converges at second order in the v-step."""

    @pytest.mark.parametrize(
        "J, nodes",
        [(1, (61, 121, 241)), (2, (61, 121, 241)), (3, (31, 61, 121))],
        ids=["J1", "J2", "J3"],
    )
    def test_error_shrinks_at_second_order(self, J, nodes):
        rng = np.random.default_rng(J)
        offers = np.column_stack(
            [rng.uniform(-1.0, 2.0, 8)] + [rng.uniform(-1.5, 1.5, 8) for _ in range(J)]
        )
        want = gumbel_choice_prob(offers)
        errs = []
        for n in nodes:
            utilities, d = gumbel_case(J, n)
            errs.append(np.max(np.abs(verify.rationalized_choice_prob(utilities, d, offers) - want)))
        # halving h quarters a second-order error; first order would halve it
        assert errs[0] >= 3.0 * errs[1] and errs[1] >= 3.0 * errs[2], errs
        if J == 2:
            assert errs[1] <= 1e-3
