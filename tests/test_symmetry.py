"""Slutsky ratio tests, the cross-coordinate dependence check, sieve fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumkit import characteristics, density, field, model, symmetry
from rumkit.errors import NegativeRatioError, RankDeficientBasisError, ValidationError


def median_denominator_threshold(f, monkeypatch, den):
    """Set f's degeneracy threshold to the median of |den|, so that about half
    of those entries are degenerate; returns the threshold slutsky_ratio uses."""
    monkeypatch.setattr(f, "gradient_scale", 1e8 * float(np.median(np.abs(den))))
    return 1e-8 * f.gradient_scale


class TestSlutskyRatio:
    def test_linear_utilities_ratio_one(self, lin_field):
        r = symmetry.slutsky_ratio(lin_field, 0, 1, [(0.2, -0.1, 0.4)])
        assert r.shape == (1,)
        assert r[0] == pytest.approx(1.0, abs=2e-3)

    def test_log_model_pair_10(self, log_field):
        # ratio(1,0) = h_0'(a_0)/h_1'(a_1) = a_1/(2 a_0)
        r = symmetry.slutsky_ratio(log_field, 1, 0, [(2.0, 4.0, 2.0)])
        assert r[0] == pytest.approx(1.0, abs=2e-3)

    def test_log_model_pair_20(self, log_field):
        r = symmetry.slutsky_ratio(log_field, 2, 0, [(1.0, 2.0, 1.0)])
        assert r[0] == pytest.approx(2.0, abs=4e-3)

    @pytest.mark.parametrize("mode", ["points", "lattice"])
    def test_degenerate_entries_are_nan(self, log_field, monkeypatch, mode):
        pts = 1.0 + 3.0 * np.random.default_rng(2).random((200, 3))
        if mode == "points":
            num, den = log_field.fd_stencil(2, (0,), pts), log_field.fd_stencil(0, (2,), pts)
        else:
            pts = None
            num, den = log_field.node_gradients[2, 0], log_field.node_gradients[0, 2]
        thr = median_denominator_threshold(log_field, monkeypatch, den)
        r = symmetry.slutsky_ratio(log_field, 2, 0, pts)
        assert r.shape == den.shape
        degenerate = np.abs(den) < thr
        assert 0 < degenerate.sum() < degenerate.size
        np.testing.assert_array_equal(np.isnan(r), degenerate)
        assert np.array_equal(r[~degenerate], num[~degenerate] / den[~degenerate])

    def test_lattice_equals_points_at_nodes(self, log_field, monkeypatch):
        mesh = np.meshgrid(*log_field.grid.axes(), indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        # about half of pair (0, 1)'s denominators dq_1/da_0 are degenerate
        median_denominator_threshold(log_field, monkeypatch, log_field.node_gradients[1, 0])
        for k, l in ((0, 1), (1, 0), (2, 1)):
            lattice = symmetry.slutsky_ratio(log_field, k, l)
            assert lattice.shape == log_field.grid.counts
            at_nodes = symmetry.slutsky_ratio(log_field, k, l, nodes)
            assert lattice.ravel().tobytes() == at_nodes.tobytes()
            if (k, l) == (0, 1):
                assert np.isnan(lattice).any()

    def test_equal_alternatives_rejected(self, log_field):
        with pytest.raises(ValidationError):
            symmetry.slutsky_ratio(log_field, 1, 1)

    @given(st.lists(st.floats(1.3, 3.7), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_reciprocal_identity(self, log_field, a):
        r = symmetry.slutsky_ratio(log_field, 1, 0, [a])[0]
        r_inv = symmetry.slutsky_ratio(log_field, 0, 1, [a])[0]
        assert abs(r * r_inv - 1.0) <= 1e-4

    @given(st.lists(st.floats(1.3, 3.7), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_matches_marginal_utility_ratio(self, log_field, a):
        # h_0'/h_1' with h_0 = ln, h_1 = 2 ln; FD error bound 5 h^2 + slack
        h = log_field.grid.spacing[0]
        r = symmetry.slutsky_ratio(log_field, 1, 0, [a])[0]
        assert abs(r - a[1] / (2.0 * a[0])) <= 5.0 * h**2 + 1e-4


class TestDalyZachary:
    def test_linear_passes(self, lin_field):
        rep = symmetry.test_daly_zachary(lin_field, tol=0.01)
        assert rep.passed
        assert rep.worst <= 0.01

    def test_log_model_fails_worst_at_corner(self, log_field):
        rep = symmetry.test_daly_zachary(log_field, tol=0.01)
        assert not rep.passed
        # a_1/(2 a_0) is farthest from 1 toward the (a_0 low, a_1 high) and
        # (a_0 high, a_1 low) corners; the worst point should sit near an edge
        stat = rep.pair_stats["0,1"]
        assert stat["statistic"] > 0.3
        loc = stat["location"]
        lo, hi = 1.0, 4.0
        edge_dist = min(
            abs(loc[0] - lo), abs(hi - loc[0]), abs(loc[1] - lo), abs(hi - loc[1])
        )
        assert edge_dist <= 0.75

    def test_batched_report_matches_pointwise_loop(self, log_field, monkeypatch):
        # reference: one fd_stencil call per point and per partial, skipping
        # degenerate denominators and keeping the first point of largest
        # deviation; the threshold at the median |dq_2/da_0| over the sample
        # makes about half the points degenerate for the pairs with alternative 2
        f, n_points, seed = log_field, 40, 4
        rng = np.random.default_rng(seed)
        lo = np.asarray(f.grid.lower) + np.asarray(f.grid.spacing)
        hi = np.asarray(f.grid.upper) - np.asarray(f.grid.spacing)
        pts = lo + rng.random((n_points, 3)) * (hi - lo)
        thr = median_denominator_threshold(f, monkeypatch, f.fd_stencil(2, (0,), pts))
        rep = symmetry.test_daly_zachary(f, n_points=n_points, seed=seed)
        assert rep.n_points == n_points
        for key, stat in rep.pair_stats.items():
            k, l = map(int, key.split(","))
            devs, locs = [], []
            for p in pts:
                den = f.fd_stencil(l, (k,), p[None])[0]
                if abs(den) < thr:
                    continue
                devs.append(abs(f.fd_stencil(k, (l,), p[None])[0] / den - 1.0))
                locs.append(p.tolist())
            assert stat["n_used"] == len(devs)
            assert stat["statistic"] == max(devs)
            assert stat["location"] == locs[int(np.argmax(devs))]
        assert rep.pair_stats["0,2"]["n_used"] < n_points

    def test_single_pair_exact_point(self):
        g = field.GridSpec((-1.0, -1.0), (1.0, 1.0), (11, 11))
        mesh = np.meshgrid(*g.axes(), indexing="ij")
        logits = np.stack([mesh[0], mesh[1]], axis=-1)
        w = np.exp(logits)
        f = field.ProbabilityField(g, w / w.sum(axis=-1, keepdims=True))
        assert abs(symmetry.slutsky_ratio(f, 0, 1, [(0.0, 0.0)])[0] - 1.0) <= 1e-6
        assert symmetry.test_daly_zachary(f, tol=1e-6).passed


class TestConditionA:
    def test_log_model_passes(self, log_field):
        rep = symmetry.test_condition_A(log_field, m=0, tol=5e-3)
        assert rep.passed
        assert rep.worst <= 5e-3

    def test_planted_interaction_fails(self, planted_interaction_field):
        rep = symmetry.test_condition_A(planted_interaction_field, m=0, tol=5e-3)
        assert not rep.passed
        assert rep.pair_stats["1,0"]["statistic"] >= 0.05

    def test_planted_spread_grows_with_a2_range(self):
        utilities = [
            lambda m: m[0],
            lambda m: m[1] + 0.3 * m[1] * m[2],
            lambda m: m[2],
        ]
        spreads = []
        for hi2 in (2.0, 4.0):
            g = field.GridSpec((1.0,) * 3, (4.0, 4.0, hi2), (21,) * 3)
            f = model.tabulate_from_utilities(g, utilities)
            rep = symmetry.test_condition_A(f, m=0, tol=5e-3)
            spreads.append(rep.pair_stats["1,0"]["statistic"])
        assert spreads[1] > spreads[0]

    def test_large_family_sampled(self, m_lin):
        # 203 interior a_2 nodes: pair "1,0" samples _MAX_FAMILY_SIZE of each family
        g = field.GridSpec((-3.0,) * 3, (3.0,) * 3, (9, 9, 205))
        f = model.tabulate(m_lin, g)
        assert g.counts[2] - 2 > symmetry._MAX_FAMILY_SIZE
        rep = symmetry.test_condition_A(f, m=0, tol=5e-3, seed=3)
        assert rep.to_dict() == symmetry.test_condition_A(f, m=0, tol=5e-3, seed=3).to_dict()
        # a sample's spread is at most that of the whole family
        stat = rep.pair_stats["1,0"]
        i1, i0 = stat["location"]
        family = symmetry.slutsky_ratio(f, 1, 0)[i0, i1, 1:-1]
        assert stat["statistic"] <= np.nanmax(family) - np.nanmin(family)

    def test_two_alternative_case_vacuous(self):
        g = field.GridSpec((-1.0, -1.0), (1.0, 1.0), (11, 11))
        mesh = np.meshgrid(*g.axes(), indexing="ij")
        w = np.exp(np.stack([mesh[0], mesh[1]], axis=-1))
        f = field.ProbabilityField(g, w / w.sum(axis=-1, keepdims=True))
        rep = symmetry.test_condition_A(f, m=0, tol=5e-3)
        assert rep.vacuous
        assert rep.passed


class TestSieve:
    def test_log_basis_recovers_log_model(self, log_field_fine):
        t = symmetry.fit_ratio_sieve(
            log_field_fine, 1, 0, basis="log_polynomial", degree=1
        )
        # ln t_10 = -ln 2 + ln a_1 - ln a_0 exactly
        target = np.array([-np.log(2.0), 1.0, -1.0])
        assert np.max(np.abs(t.coefficients - target)) <= 1e-3
        assert t.fit_rms <= 1e-3

    def test_constant_ratio_linear_model(self, lin_field):
        t = symmetry.fit_ratio_sieve(lin_field, 1, 0, basis="polynomial", degree=0)
        assert t.coefficients[0] == pytest.approx(1.0, abs=2e-3)

    def test_underdetermined_basis_rejected(self, m_log):
        g = field.GridSpec((1.0,) * 3, (4.0,) * 3, (5,) * 3)
        f = model.tabulate(m_log, g)
        # 3 interior nodes per axis -> 27 samples; degree 7 has 36 terms
        with pytest.raises(RankDeficientBasisError):
            symmetry.fit_ratio_sieve(f, 1, 0, basis="polynomial", degree=7)

    def test_log_basis_rejects_negative_ratios(self):
        # u_1 loads on a_0 as well, flipping the sign of dq_1/da_0 over part
        # of the grid; the log basis cannot absorb sign changes
        g = field.GridSpec((1.0,) * 3, (4.0,) * 3, (11,) * 3)
        f = model.tabulate_from_utilities(
            g, [lambda m: m[0], lambda m: m[1] + 0.5 * m[0], lambda m: m[2]]
        )
        with pytest.raises(NegativeRatioError):
            symmetry.fit_ratio_sieve(f, 1, 0, basis="log_polynomial", degree=1)

    @pytest.mark.parametrize(
        "lower", [(-6.0, -6.0, -6.0), (-6.0, 0.5, 0.5), (0.5, -6.0, 0.5)],
        ids=["both", "a_m", "a_j"],
    )
    def test_log_basis_rejects_nonpositive_coordinates(self, capfd, m_lin, lower):
        # ln a of a coordinate <= 0 is NaN or -inf; it must be refused before
        # LAPACK sees it (no DLASCL message, no numpy LinAlgError)
        g = field.GridSpec(lower, (6.0,) * 3, (21,) * 3)
        f = model.tabulate(m_lin, g)
        with pytest.raises(ValidationError, match="positive coordinates"):
            symmetry.fit_ratio_sieve(f, 1, 0, basis="log_polynomial", degree=1)
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err

    def test_daly_zachary_pass_implies_constant_sieve(self, lin_field):
        # the no-income-effects aside: symmetric fields have ratio == 1
        rep = symmetry.test_daly_zachary(lin_field, tol=0.01)
        assert rep.passed
        t = symmetry.fit_ratio_sieve(lin_field, 1, 0, basis="polynomial", degree=1)
        assert t.coefficients[0] == pytest.approx(1.0, abs=5e-3)
        assert np.max(np.abs(t.coefficients[1:])) <= 5e-3


def test_identification_path_builds_no_node_gradient_block(log_field):
    # condition A, the sieve and the density read only the planes they use
    f = field.ProbabilityField(log_field.grid, log_field.values)  # fresh caches
    assert symmetry.test_condition_A(f, 0, tol=5e-3).passed
    axes = f.grid.axes()
    omegas = [
        characteristics.build_omega(
            symmetry.fit_ratio_sieve(f, j, 0, basis="log_polynomial"),
            ((axes[j][0], axes[j][-1]), (axes[0][0], axes[0][-1])),
            resolution=21,
            j=j,
        )
        for j in (1, 2)
    ]
    density.reconstruct_density(f, omegas, density.make_v_grid(omegas, n=21))
    assert "node_gradients" not in f.__dict__
    assert f.gradient_scale == float(np.median(np.abs(log_field.node_gradients)))


def test_j1_density_differences_one_plane_and_daly_zachary_builds_the_block():
    # the density's one partial dq_0/da_1 is one plane, not the 2 x 2 block;
    # Daly-Zachary builds the block that check's later readers take views of
    m = model.ChoiceModelSpec(
        utilities=(model.UtilityPrimitive("log", (1.0,)), model.UtilityPrimitive("log", (2.0,))),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((1.0, 4.0),) * 2,
    )
    f = model.tabulate(m, field.GridSpec((1.0, 1.0), (4.0, 4.0), (41, 41)))
    t = symmetry.fit_ratio_sieve(f, 1, 0, basis="log_polynomial")
    om = characteristics.build_omega(t, ((1.0, 4.0), (1.0, 4.0)), resolution=21, j=1)
    density.reconstruct_density(f, [om], density.make_v_grid([om], n=21))
    assert "node_gradients" not in f.__dict__
    symmetry.test_daly_zachary(f)
    assert "node_gradients" in f.__dict__
