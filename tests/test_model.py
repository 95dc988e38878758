"""Forward generators: sub-utilities, closed-form softmax, Monte Carlo."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumkit import field, model
from rumkit.errors import (
    DomainError,
    GridMismatchError,
    NoClosedFormError,
    ValidationError,
)

from conftest import lin_model, log_model, oracle_prob


class TestUtilityPrimitive:
    def test_linear_identity(self):
        u = model.UtilityPrimitive("linear", (0.0, 1.0))
        assert u.value(3.0) == 3.0

    def test_log_value(self):
        u = model.UtilityPrimitive("log", (2.0,))
        assert u.value(4.0) == pytest.approx(2.0 * np.log(4.0), abs=1e-12)

    def test_power_at_zero(self):
        u = model.UtilityPrimitive("power", (1.0, 0.5))
        assert u.value(0.0) == 0.0

    def test_nonmonotone_params_rejected(self):
        with pytest.raises(ValidationError):
            model.UtilityPrimitive("linear", (0.0, -1.0))
        with pytest.raises(ValidationError):
            model.UtilityPrimitive("log", (-2.0,))
        # a non-finite domain end is rejected as such, not as non-monotone
        for domain in (((-10.0, np.inf),) * 3, ((-np.inf, 10.0),) * 3):
            with pytest.raises(ValidationError, match="finite"):
                lin_model(domain=domain)
        with pytest.raises(ValidationError, match="finite"):
            log_model(domain=((0.5, np.inf),) * 3)

    def test_log_requires_positive_argument(self):
        m = log_model()
        with pytest.raises(DomainError):
            model.choice_prob_closed_form(m, (0.1, 1.0, 1.0))  # a_0 below the domain


class TestClosedForm:
    def test_symmetric_point_is_uniform(self):
        q = model.choice_prob_closed_form(lin_model(), (0.0, 0.0, 0.0))
        assert np.allclose(q, 1.0 / 3.0, atol=1e-12)

    def test_log_model_oracle_point(self):
        # weights a_j^alpha_j = (2, 1, 4) / 5... no: (2^1, 1^2, 4^0.5) = (2, 1, 2)
        q = model.choice_prob_closed_form(log_model(), (2.0, 1.0, 4.0))
        assert np.allclose(q, (0.4, 0.2, 0.4), atol=1e-12)

    def test_dominated_alternative_vanishes(self):
        q = model.choice_prob_closed_form(lin_model(domain=((-60.0, 10.0),) * 3),
                                          (1.0, 0.0, -50.0))
        assert q[2] < 1e-20
        assert q[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-9)

    def test_no_closed_form_for_gaussian(self):
        m = model.ChoiceModelSpec(
            utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(3)),
            noise=model.NoiseSpec("gaussian_iid", 1.0),
            domain=((-10.0, 10.0),) * 3,
        )
        with pytest.raises(NoClosedFormError):
            model.choice_prob_closed_form(m, (0.0, 0.0, 0.0))

    @given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    def test_probabilities_sum_to_one(self, a):
        q = model.choice_prob_closed_form(lin_model(), a)
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.all(q >= 0.0)

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
    )
    def test_relabeling_invariance(self, a, perm):
        q = model.choice_prob_closed_form(lin_model(), a)
        q_perm = model.choice_prob_closed_form(lin_model(), [a[p] for p in perm])
        assert np.allclose(q_perm, q[list(perm)], atol=1e-12)

    @given(st.floats(-2.0, 2.0), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_translation_invariance_linear_utilities(self, c, a):
        q = model.choice_prob_closed_form(lin_model(), a)
        q_shift = model.choice_prob_closed_form(lin_model(), np.asarray(a) + c)
        assert np.allclose(q, q_shift, atol=1e-10)


class TestMonteCarlo:
    def test_matches_closed_form_uniform(self):
        q = model.choice_prob_monte_carlo(lin_model(), (0.0, 0.0, 0.0), 10**6, seed=3)
        assert np.max(np.abs(q - 1.0 / 3.0)) <= 0.0015

    def test_matches_log_oracle(self):
        q = model.choice_prob_monte_carlo(log_model(), (2.0, 1.0, 4.0), 10**6, seed=5)
        assert np.max(np.abs(q - np.array([0.4, 0.2, 0.4]))) <= 0.0015

    def test_single_draw_is_one_hot(self):
        q = model.choice_prob_monte_carlo(lin_model(), (0.0, 0.3, -0.2), 1, seed=0)
        assert sorted(q) == [0.0, 0.0, 1.0]

    def test_deterministic_given_seed(self):
        a = (0.1, -0.4, 0.7)
        q1 = model.choice_prob_monte_carlo(lin_model(), a, 5000, seed=11)
        q2 = model.choice_prob_monte_carlo(lin_model(), a, 5000, seed=11)
        assert np.array_equal(q1, q2)

    def test_gaussian_iid_matches_normal_cdf(self):
        # J = 1: q_1 = P(e_0 - e_1 < h_1 - h_0) = Phi((h_1 - h_0) / (sigma sqrt 2))
        sigma, n = 0.8, 10**5
        m = model.ChoiceModelSpec(
            utilities=(model.UtilityPrimitive("linear", (0.0, 1.0)),) * 2,
            noise=model.NoiseSpec("gaussian_iid", sigma),
            domain=((-10.0, 10.0),) * 2,
        )
        q = model.choice_prob_monte_carlo(m, (0.0, 0.5), n, seed=4)
        z = 0.5 / (sigma * math.sqrt(2.0))
        exact = 0.5 * math.erfc(-z / math.sqrt(2.0))
        # within four Monte Carlo standard errors
        assert abs(q[1] - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)

    def test_correlated_gaussian_runs(self):
        corr = ((1.0, 0.5, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 1.0))
        m = model.ChoiceModelSpec(
            utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(3)),
            noise=model.NoiseSpec("gaussian_correlated", 1.0, corr),
            domain=((-10.0, 10.0),) * 3,
        )
        q = model.choice_prob_monte_carlo(m, (0.0, 0.0, 0.0), 20000, seed=1)
        assert abs(q.sum() - 1.0) < 1e-12


def reference_monte_carlo_values(m, grid, n, seed):
    """Independent streams: node flat (C order) draws from SeedSequence(seed, spawn_key=(flat,)).

    The scheme before common random numbers, kept as the variance reference.
    """
    values = np.empty(grid.counts + (m.n_alternatives,))
    axes = grid.axes()
    for flat, idx in enumerate(np.ndindex(*grid.counts)):
        base = np.array([u.value(axes[k][i]) for k, (u, i) in enumerate(zip(m.utilities, idx))])
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(flat,)))
        winners = np.argmax(base[None, :] + model._noise_draws(m, rng, n), axis=1)
        values[idx] = np.bincount(winners, minlength=m.n_alternatives) / float(n)
    return values


class TestTabulate:
    def test_structural_5cube(self, m_lin):
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (5,) * 3)
        f = model.tabulate(m_lin, grid)
        assert f.grid.n_nodes == 125
        assert np.allclose(f.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_nearest_node_matches_oracle(self, m_log):
        grid = field.GridSpec((0.5,) * 3, (4.0,) * 3, (21,) * 3)
        f = model.tabulate(m_log, grid)
        axes = grid.axes()
        idx = tuple(int(np.argmin(np.abs(ax - t))) for ax, t in zip(axes, (2, 1, 4)))
        node = np.array([axes[k][i] for k, i in enumerate(idx)])
        assert np.allclose(f.values[idx], oracle_prob(node), atol=1e-12)

    def test_monte_carlo_fields_bit_identical(self, m_lin):
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (5,) * 3)
        f1 = model.tabulate(m_lin, grid, method="monte_carlo", n=200, seed=9)
        f2 = model.tabulate(m_lin, grid, method="monte_carlo", n=200, seed=9)
        assert np.array_equal(f1.values, f2.values)

    def test_monte_carlo_node_order_independent(self, m_lin):
        # every offer meets the same draws, so a node's value does not depend
        # on where in the batch it sits
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (5,) * 3)
        f = model.tabulate(m_lin, grid, method="monte_carlo", n=500, seed=2)
        direct = model.choice_prob_monte_carlo(m_lin, (-1.0, -1.0, -1.0), 500, seed=2)
        assert np.array_equal(f.values[0, 0, 0], direct)
        offers = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        backwards = model.choice_prob_monte_carlo(m_lin, offers[::-1], 500, seed=2)
        assert np.array_equal(backwards[::-1], f.values.reshape(-1, 3))

    @pytest.mark.parametrize("J", [1, 3])
    def test_monte_carlo_matches_per_node_streams(self, J):
        # every node, not only node 0, equals choice_prob_monte_carlo at that
        # node's offer and the same seed
        k = J + 1
        corr = np.eye(k)
        corr[0, 1] = corr[1, 0] = 0.4
        utilities = [model.UtilityPrimitive("linear", (0.0, 1.0))] * J
        m = model.ChoiceModelSpec(
            utilities=(model.UtilityPrimitive("polynomial", (0.0, 1.0, 0.1)), *utilities),
            noise=model.NoiseSpec("gaussian_correlated", 1.0, tuple(map(tuple, corr))),
            domain=((-1.0, 1.0),) * k,
        )
        grid = field.GridSpec((-1.0,) * k, (1.0,) * k, (6, 5, 7, 5)[:k])
        f = model.tabulate(m, grid, method="monte_carlo", n=300, seed=7)
        axes = grid.axes()
        for idx in np.ndindex(*grid.counts):
            node = [axes[d][i] for d, i in enumerate(idx)]
            assert np.array_equal(f.values[idx], model.choice_prob_monte_carlo(m, node, 300, 7))

    def test_shared_draws_halve_gradient_error(self):
        # common random numbers against the per-node streams on the 9^3
        # linear Gumbel field: a central difference of counts sharing one
        # draw set has variance O(1/(n h)), not O(1/(n h^2))
        m = lin_model()
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (9,) * 3)
        exact = model.tabulate(m, grid).node_gradients
        shared = model.tabulate(m, grid, method="monte_carlo", n=20_000, seed=4)
        streams = field.ProbabilityField(grid, reference_monte_carlo_values(m, grid, 20_000, 4))

        def rms(f):
            return float(np.sqrt(np.mean((f.node_gradients - exact) ** 2)))

        assert rms(shared) <= 0.5 * rms(streams)

    def test_winner_counts_match_argmax(self, monkeypatch):
        # integer-valued utilities and draws make exact ties common; the
        # running strict > maximum takes the first of equal maxima, as argmax does
        rng = np.random.default_rng(0)
        base = rng.integers(0, 3, size=(10, 4)).astype(float)
        base[0] = 1.0  # equal utilities: the five all-zero draws tie all four
        eps = rng.integers(0, 3, size=(4, 300)).astype(float)
        eps[:, :5] = 0.0
        want = np.array([np.bincount(np.argmax(b + eps.T, 1), minlength=4) for b in base])
        who = model.winners((base[:, j, None] + eps[j] for j in range(4)), 4)
        assert who.dtype == np.uint8
        assert np.array_equal(np.argmax(base[:, :, None] + eps[None], axis=1), who)
        # equal maxima and +inf go to the first of them; the other planes
        # broadcast to the first
        p0 = np.array([[0.5, 0.5, 0.5, 0.5]])
        p1, p2 = np.array([0.5, 1.0, -np.inf, 0.5]), np.array([[np.inf, 0.0, np.inf, 0.5]])
        assert model.winners([p0, p1, p2], 3).tolist() == [[2, 1, 2, 0]]
        # the same through the kernel, in chunks of 3 offers (the last one short)
        m = model.ChoiceModelSpec(
            utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(4)),
            noise=model.NoiseSpec("gumbel_iid", 1.0),
            domain=((-1.0, 3.0),) * 4,
        )
        monkeypatch.setattr(model, "_noise_draws", lambda *args: eps.T.copy())
        monkeypatch.setattr(field, "_CHUNK_ENTRIES", 3 * 300)
        assert np.array_equal(model.choice_prob_monte_carlo(m, base, 300, 0), want / 300.0)

    def test_monte_carlo_peak_memory_bounded(self, m_lin):
        # offers go through in chunks: a 9^3 grid at 100,000 draws stays far
        # below one (n_offers, n) array (583 MB)
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (9,) * 3)
        offers = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        tracemalloc.start()
        try:
            model.choice_prob_monte_carlo(m_lin, offers, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_grid_outside_domain_rejected(self, m_log):
        grid = field.GridSpec((0.0001,) * 3, (4.0,) * 3, (5,) * 3)
        with pytest.raises(GridMismatchError):
            model.tabulate(m_log, grid)


def reference_softmax(logits):
    """The softmax along the trailing axis, written out with its reductions."""
    logits = logits - logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    return logits / logits.sum(axis=-1, keepdims=True)


def mesh_logits(m, grid):
    """(..., J+1) logits u_k(a_k) / scale on every node of grid."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return np.stack(
        [u.value(a) / m.noise.scale for u, a in zip(m.utilities, mesh)], axis=-1
    )


# per alternative k: kinds whose sub-utilities increase on [0.5, 4]
KIND_PARAMS = {
    "linear": lambda k: (0.1 * k, 1.0 + 0.5 * k),
    "log": lambda k: (1.0 + 0.5 * k,),
    "power": lambda k: (1.0 + 0.2 * k, 0.5 + 0.5 * k),
    "polynomial": lambda k: (0.1 * k, 1.0, 0.3 * k),
}


class TestSoftmaxKernel:
    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [None, 7], ids=["default_slabs", "ragged_slabs"])
    def test_tabulate_equals_trailing_axis_softmax(self, monkeypatch, kind, J, chunk):
        if chunk is not None:
            monkeypatch.setattr(field, "_CHUNK_ENTRIES", chunk)
        m = model.ChoiceModelSpec(
            utilities=tuple(
                model.UtilityPrimitive(kind, KIND_PARAMS[kind](k)) for k in range(J + 1)
            ),
            noise=model.NoiseSpec("gumbel_iid", 0.7),
            domain=((0.5, 4.0),) * (J + 1),
        )
        grid = field.GridSpec((0.5,) * (J + 1), (4.0,) * (J + 1), (9, 6, 5, 5)[: J + 1])
        f = model.tabulate(m, grid)
        assert np.array_equal(f.values, reference_softmax(mesh_logits(m, grid)))

    def test_mixed_kinds_j3(self):
        m = model.ChoiceModelSpec(
            utilities=(
                model.UtilityPrimitive("power", (1.0, 1.5)),
                model.UtilityPrimitive("power", (2.0, 0.5)),
                model.UtilityPrimitive("linear", (0.0, 1.0)),
                model.UtilityPrimitive("log", (1.0,)),
            ),
            noise=model.NoiseSpec("gumbel_iid", 1.0),
            domain=((1.0, 4.0),) * 4,
        )
        grid = field.GridSpec((1.0,) * 4, (1.5,) * 4, (21,) * 4)
        f = model.tabulate(m, grid)
        assert np.array_equal(f.values, reference_softmax(mesh_logits(m, grid)))

    def test_planted_field_equals_trailing_axis_softmax(self, planted_interaction_field):
        grid = planted_interaction_field.grid
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        logits = np.stack([mesh[0], mesh[1] + 0.3 * mesh[1] * mesh[2], mesh[2]], axis=-1)
        assert np.array_equal(planted_interaction_field.values, reference_softmax(logits))

    def test_closed_form_equals_tabulate_at_nodes(self, m_log):
        grid = field.GridSpec((0.5,) * 3, (4.0,) * 3, (8,) * 3)
        f = model.tabulate(m_log, grid)
        axes = grid.axes()
        for idx in [(0, 0, 0), (7, 0, 3), (2, 5, 7), (7, 7, 7)]:
            node = [axes[k][i] for k, i in enumerate(idx)]
            q = model.choice_prob_closed_form(m_log, node)
            assert np.array_equal(q, f.values[idx])
            logits = np.array([u.value(a) for u, a in zip(m_log.utilities, node)])
            assert np.array_equal(q, reference_softmax(logits))

    def test_sharp_noise_does_not_overflow(self):
        # scale 0.01 on [-10, 10]: logits reach +-1000, and exp would overflow
        # without the running maximum
        m = lin_model()
        m = model.ChoiceModelSpec(m.utilities, model.NoiseSpec("gumbel_iid", 0.01), m.domain)
        grid = field.GridSpec((-10.0,) * 3, (10.0,) * 3, (41,) * 3)
        q = model.tabulate(m, grid).values
        assert np.all(np.isfinite(q))
        assert np.max(np.abs(q.sum(axis=-1) - 1.0)) <= 1e-12
        a = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        # exp(-gap / 0.01) underflows to 0 once the gap exceeds about 7.5
        dominated = a.max(axis=-1, keepdims=True) - a > 7.6
        assert dominated.any()
        assert np.all(q[dominated] == 0.0)
        assert np.all(q[a == a.max(axis=-1, keepdims=True)] > 0.0)

    def test_tabulate_peak_memory_bounded(self, m_lin):
        # the softmax and the row check work in slabs, so no temporary is as
        # large as a value plane (16 MiB on this 2M-node field); a full-size
        # row-sum array alone would exceed the bound
        grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (128,) * 3)
        tracemalloc.start()
        try:
            f = model.tabulate(m_lin, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.values.nbytes + 8 * 2**20


class TestSerialization:
    def test_json_round_trip(self, tmp_path, m_log):
        path = tmp_path / "model.json"
        m_log.to_json(path)
        back = model.ChoiceModelSpec.from_json(path)
        assert back == m_log

    def test_correlated_gaussian_json_round_trip(self, tmp_path):
        corr = ((1.0, 0.5, 0.0), (0.5, 1.0, -0.25), (0.0, -0.25, 1.0))
        m = model.ChoiceModelSpec(
            utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(3)),
            noise=model.NoiseSpec("gaussian_correlated", 1.5, corr),
            domain=((-10.0, 10.0),) * 3,
        )
        path = tmp_path / "model.json"
        m.to_json(path)
        assert json.loads(path.read_text())["noise"]["correlation"] == [list(r) for r in corr]
        assert model.ChoiceModelSpec.from_json(path) == m

    def test_alternative_count_mismatch_rejected(self):
        doc = log_model().to_dict()
        doc["alternatives"] = 4
        with pytest.raises(ValidationError):
            model.ChoiceModelSpec.from_dict(doc)
