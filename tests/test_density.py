"""Heterogeneity CDF and density reconstruction from field + omega maps."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rumkit import characteristics, density, field, model
from rumkit.errors import DomainError, NegativeDensityError, SupportError, ValidationError

from conftest import log_model, oracle_cdf, oracle_density


def analytic_omegas(boxes, a_ref=1.0, **kw):
    """Omega pair for the log model from the exact ratio surfaces."""
    t1 = lambda aj, a0: aj / (2.0 * a0)
    t2 = lambda aj, a0: 2.0 * aj / a0
    return [
        characteristics.build_omega(t1, (boxes[0], boxes[-1]), a_ref=a_ref, j=1, **kw),
        characteristics.build_omega(t2, (boxes[1], boxes[-1]), a_ref=a_ref, j=2, **kw),
    ]


@pytest.fixture(scope="module")
def cdf_setup():
    """Field and omegas sized so the reference triple {1.5, 2, 3} maps
    v = (1, 1) inside the hull: a_1 = sqrt(a_0) and a_2 = a_0^2 must fit."""
    m = log_model()
    grid = field.GridSpec((1.0, 1.0, 1.0), (4.0, 2.2, 10.0), (41, 41, 41))
    f = model.tabulate(m, grid)
    omegas = analytic_omegas([(1.0, 2.2), (1.0, 10.0), (1.0, 4.0)])
    return f, omegas


@pytest.fixture(scope="module")
def narrow_density():
    m = log_model()
    grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (41,) * 3)
    f = model.tabulate(m, grid)
    omegas = analytic_omegas([(1.0, 4.0)] * 3)
    v_grid = density.make_v_grid(omegas, n=101)
    return f, omegas, density.reconstruct_density(f, omegas, v_grid)


class TestReconstructCdf:
    """The CDF column F_values: q_0 at each supported node's level-attaining point."""

    AXES = (np.geomspace(0.8, 1.25, 7),) * 2  # node [3, 3] is v = (1, 1)

    def test_oracle_value(self, cdf_setup):
        f, omegas = cdf_setup
        d = density.reconstruct_density(f, omegas, self.AXES)
        assert d.support_mask[3, 3]
        assert d.F_values[3, 3] == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_reference_invariance(self, cdf_setup):
        # the mapped point depends on the reference a_0, q_0 there does not
        f, omegas = cdf_setup
        g = f.grid
        hull = [(g.lower[j], g.upper[j]) for j in (1, 2)]
        refs = np.array([1.5, 2.0, 3.0])
        b1, b2 = density._level_map(omegas, ([1.0], [1.0]), refs, hull)
        vals = f.interpolate(np.column_stack([refs, b1[:, 0], b2[:, 0]]))[:, 0]
        vals = np.append(vals, density.reconstruct_density(f, omegas, self.AXES).F_values[3, 3])
        assert max(vals) - min(vals) <= 5e-3

    def test_tends_to_one_at_top(self, wide_density):
        i, k = (int(np.argmin(np.abs(ax - 40.0))) for ax in wide_density.axes)
        assert wide_density.support_mask[i, k]
        v = (wide_density.axes[0][i], wide_density.axes[1][k])
        val = wide_density.F_values[i, k]
        assert val == pytest.approx(oracle_cdf(*v), abs=5e-3)
        assert val > 0.94

    def test_unreachable_v_raises(self, cdf_setup):
        f, omegas = cdf_setup
        with pytest.raises(SupportError):
            density.reconstruct_density(f, omegas, (np.array([500.0]),) * 2)

    def test_monotone_in_each_coordinate(self, wide_density):
        ax1, ax2 = wide_density.axes
        k = int(np.argmin(np.abs(ax2 - 2.0)))
        rows = [int(np.argmin(np.abs(ax1 - v))) for v in (0.3, 1.0, 3.0, 10.0)]
        assert wide_density.support_mask[rows, k].all()
        vals = wide_density.F_values[rows, k]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


class TestReconstructDensity:
    def test_oracle_point_j2(self, narrow_density):
        _, _, d = narrow_density
        # v = 1 is on the attained grid only approximately; evaluate on a
        # dedicated lattice whose center node is exactly (1, 1)
        f, omegas, _ = narrow_density
        axes = (np.geomspace(0.8, 1.25, 7), np.geomspace(0.8, 1.25, 7))
        dd = density.reconstruct_density(f, omegas, axes)
        assert dd.f_values[3, 3] == pytest.approx(2.0 / 27.0, abs=5e-3)

    def test_nonnegative_before_clipping(self, narrow_density):
        _, _, d = narrow_density
        assert d.min_raw_density >= -1e-4

    def test_route_equivalence(self, narrow_density):
        f, omegas, d = narrow_density
        axes = (np.geomspace(0.8, 1.25, 7), np.geomspace(0.8, 1.25, 7))
        d_mixed = density.reconstruct_density(f, omegas, axes, via=0)
        d_alt = density.reconstruct_density(f, omegas, axes, via=1)
        h_max = max(f.grid.spacing)
        tol = 10.0 * h_max**2 * float(d_mixed.f_values.max())
        assert np.max(np.abs(d_mixed.f_values - d_alt.f_values)) <= tol

    def test_cdf_consistent_with_density_integral(self, wide_density):
        # mass below the attained lower corner is negligible, so the running
        # integral of f should match the CDF read off the field
        F_from_f = wide_density.cumulative_from_density()
        i, k = 150, 150
        assert wide_density.support_mask[i, k]
        assert F_from_f[i, k] == pytest.approx(wide_density.F_values[i, k], abs=1e-2)

    def test_f_monotone_cdf(self, wide_density):
        # adjacent v-nodes can map through different reference a_0 values, so
        # interpolation noise of order 1e-3 can dent exact monotonicity
        F = wide_density.F_values
        mask = wide_density.support_mask
        for axis in (0, 1):
            d = np.diff(F, axis=axis)
            ok = (
                mask[tuple(slice(0, -1) if ax == axis else slice(None) for ax in (0, 1))]
                & mask[tuple(slice(1, None) if ax == axis else slice(None) for ax in (0, 1))]
            )
            assert np.min(d[ok]) >= -2e-3

    def test_unreachable_nodes_masked(self, narrow_density):
        f, omegas, _ = narrow_density
        axes = (np.geomspace(0.2, 30.0, 41),) * 2
        d = density.reconstruct_density(f, omegas, axes)
        assert not d.support_mask.all()
        assert d.support_mask.any()
        assert np.all(d.f_values[~d.support_mask] == 0.0)

    def test_j1_reduction(self):
        # two-alternative restriction: F(v) = v/(1+v), f(v) = 1/(1+v)^2
        m = model.ChoiceModelSpec(
            utilities=(
                model.UtilityPrimitive("log", (1.0,)),
                model.UtilityPrimitive("log", (2.0,)),
            ),
            noise=model.NoiseSpec("gumbel_iid", 1.0),
            domain=((1e-3, 200.0),) * 2,
        )
        grid = field.GridSpec((0.002, 0.04), (50.0, 12.0), (641, 480))
        f = model.tabulate(m, grid)
        t1 = lambda aj, a0: aj / (2.0 * a0)
        om = characteristics.build_omega(
            t1, ((0.04, 12.0), (0.002, 50.0)), a_ref=1.0, resolution=161, j=1
        )
        v_grid = (np.geomspace(0.01, 100.0, 201),)
        d = density.reconstruct_density(f, [om], v_grid)
        # v = 1 is the exact middle node of geomspace(0.01, 100, 201)
        assert v_grid[0][100] == pytest.approx(1.0, abs=1e-12)
        assert d.f_values[100] == pytest.approx(0.25, abs=2e-3)
        mass = density.check_normalization(d).mass
        expected = 100.0 / 101.0 - 0.01 / 1.01
        assert mass == pytest.approx(expected, abs=2e-3)

    def test_dimension_mismatch_rejected(self, narrow_density):
        f, omegas, _ = narrow_density
        with pytest.raises(ValidationError):
            density.reconstruct_density(f, omegas[:1], (np.linspace(0.5, 2, 11),))

    def test_negative_density_raises(self):
        # q_0 rising in a_1 (u_1 = -a_1) against a falling omega: f < 0 everywhere
        grid = field.GridSpec((1.0, 1.0), (4.0, 4.0), (41, 41))
        f = model.tabulate_from_utilities(grid, [lambda m: m[0], lambda m: -m[1]])
        om = characteristics.build_omega(
            lambda aj, a0: 1.0 + 0.0 * aj, ((1.0, 4.0), (1.0, 4.0)), a_ref=2.5,
            resolution=21, j=1,
        )
        with pytest.raises(NegativeDensityError):
            density.reconstruct_density(f, [om], density.make_v_grid([om], n=21))


class TestMakeVGrid:
    @pytest.mark.parametrize("ratio, log", [(15.0, False), (25.0, True)])
    def test_log_spacing_follows_axis_is_log(self, ratio, log):
        # the rule of build_omega's march: log-spaced only past a factor 20
        om = SimpleNamespace(lattice_values=np.array([[0.5, 0.5 * ratio]]))
        (axis,) = density.make_v_grid([om], n=5)
        assert np.array_equal(axis, (np.geomspace if log else np.linspace)(0.5, 0.5 * ratio, 5))


    def test_degenerate_range_rejected(self):
        # an omega whose lattice is constant has no v range to grid
        om = characteristics.build_omega(lambda aj, a0: aj / a0, ((1.0, 4.0),) * 2, j=1)
        flat = characteristics.OmegaFunction(
            j=1, a_ref=om.a_ref, aj_lattice=om.aj_lattice, a0_lattice=om.a0_lattice,
            lattice_values=np.full_like(om.lattice_values, 2.0), step=om.step,
        )
        with pytest.raises(ValidationError, match="degenerate v range for axis 1"):
            density.make_v_grid([om, flat], n=5)


class TestNormalization:
    def test_wide_mass_near_one(self, wide_density):
        rep = density.check_normalization(wide_density)
        assert 0.95 <= rep.mass <= 1.01
        assert abs(rep.mass - rep.corner_cdf) <= 0.03

    def test_box_mass_matches_analytic_tails(self, wide_field, wide_omegas):
        # inclusion-exclusion of the closed-form CDF over the box
        lo, hi = 0.05, 40.0
        axes = (np.geomspace(lo, hi, 161),) * 2
        d = density.reconstruct_density(wide_field, wide_omegas, axes)
        rep = density.check_normalization(d)
        expected = (
            oracle_cdf(hi, hi)
            - oracle_cdf(lo, hi)
            - oracle_cdf(hi, lo)
            + oracle_cdf(lo, lo)
        )
        assert rep.mass == pytest.approx(expected, abs=0.02)

    def test_half_box_mass_matches_corner(self, wide_field, wide_omegas):
        axes = (np.geomspace(0.05, 1.0, 101),) * 2
        d = density.reconstruct_density(wide_field, wide_omegas, axes)
        rep = density.check_normalization(d)
        lo, hi = 0.05, 1.0
        expected = (
            oracle_cdf(hi, hi)
            - oracle_cdf(lo, hi)
            - oracle_cdf(hi, lo)
            + oracle_cdf(lo, lo)
        )
        assert rep.mass == pytest.approx(expected, abs=0.01)

    def test_csv_export(self, tmp_path, narrow_density):
        _, _, d = narrow_density
        path = tmp_path / "density.csv"
        d.export_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "v_1,v_2,f,F,in_support"


def _density_grid(**arrays):
    """A 5 x 5 DensityGrid of f = 1, F = 0 on full support, with arrays replaced."""
    fields = {
        "axes": (np.linspace(0.5, 1.5, 5), np.linspace(0.5, 1.5, 5)),
        "f_values": np.ones((5, 5)),
        "F_values": np.zeros((5, 5)),
        "support_mask": np.ones((5, 5), dtype=bool),
    }
    return density.DensityGrid(**{**fields, **arrays})


class TestDensityGridValidation:
    """The checks that guard a DensityGrid, as verify rebuilds it from identify.npz."""

    @pytest.mark.parametrize("name", ["axis", "f_values", "F_values"])
    def test_non_finite_rejected(self, name):
        axes = [np.linspace(0.5, 1.5, 5), np.linspace(0.5, 1.5, 5)]
        arrays = {"f_values": np.ones((5, 5)), "F_values": np.zeros((5, 5))}
        if name == "axis":
            axes[1][2] = np.inf
        else:
            arrays[name][2, 3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            _density_grid(axes=tuple(axes), **arrays)

    @pytest.mark.parametrize("name", ["f_values", "F_values"])
    def test_value_shape_mismatch_rejected(self, name):
        with pytest.raises(ValidationError, match=f"{name} shape \\(5, 4\\) != grid shape"):
            _density_grid(**{name: np.ones((5, 4))})

    def test_support_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="support_mask shape mismatch"):
            _density_grid(support_mask=np.ones((4, 5), dtype=bool))

    def test_negative_density_on_support_rejected(self):
        f = np.ones((5, 5))
        f[2, 3] = -1e-3
        with pytest.raises(ValidationError, match="negative density on support"):
            _density_grid(f_values=f)
        # off the support the value is not read
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 3] = False
        assert _density_grid(f_values=f, support_mask=mask).f_values[2, 3] == -1e-3


def cube_selection(depth, on_node):
    """The reference choice as a (candidates,) + lattice cube: bonus, argmax, max."""
    shape = tuple(d.shape[1] for d in depth)
    score = np.full((len(on_node),) + shape, np.inf)
    for j, d in enumerate(depth):
        reshape = [len(on_node)] + [1] * len(shape)
        reshape[1 + j] = shape[j]
        score = np.minimum(score, d.reshape(reshape))
    bonus = np.where((score >= 0.0) & on_node.reshape((-1,) + (1,) * len(shape)), 2.0, 0.0)
    return np.argmax(score + bonus, axis=0), np.max(score, axis=0) >= 0.0


class TestReferenceFold:
    """The folded reference choice equals the candidate cube bit for bit."""

    @staticmethod
    def assert_same(depth, on_node):
        got = density._deepest_reference(depth, on_node)
        want = cube_selection(depth, on_node)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        return got

    @pytest.mark.parametrize("shape", [(9,), (5, 6), (4, 3, 5)])
    def test_exact_ties(self, shape):
        # depths from a five-value set, so most nodes tie between candidates
        rng = np.random.default_rng(len(shape))
        levels = np.array([-1.0, 0.0, 0.125, 0.25, 0.5])
        depth = [levels[rng.integers(0, 5, (7, n))] for n in shape]
        depth[0][:, 0] = -1.0  # no candidate reaches level 0 of axis 1
        first, support = self.assert_same(depth, np.arange(7) < 3)
        assert support.any() and not support[0].any()

    def test_valid_node_beats_deeper_off_node(self):
        # candidate 1 is the only node one: shallow but valid, it wins column
        # 0; in column 1 it misses and the deepest off-node candidate wins
        depth = [
            np.array([[0.4], [0.01], [0.5]]),
            np.array([[0.45, 0.3], [0.02, -1.0], [0.5, 0.49]]),
        ]
        first, support = self.assert_same(depth, np.array([False, True, False]))
        assert first.tolist() == [[1, 2]] and support.all()

    def test_node_without_valid_candidate(self):
        depth = [np.array([[0.2, -1.0], [0.3, -1.0]]), np.array([[0.1], [-1.0]])]
        first, support = self.assert_same(depth, np.array([True, False]))
        assert support.tolist() == [[True], [False]]
        assert first.tolist() == [[0], [0]]

    @pytest.mark.parametrize("via", [0, 1, 2])
    def test_support_masks_on_narrow_field(self, monkeypatch, narrow_density, via):
        # the support the cube picks from the same level map, and its size
        f, omegas, d = narrow_density
        seen, level_map = [], density._level_map
        monkeypatch.setattr(
            density, "_level_map", lambda *args: seen.append(args[3]) or level_map(*args)
        )
        got = density.reconstruct_density(f, omegas, d.axes, via=via)
        axes_a, spacing = f.grid.axes(), f.grid.spacing
        # the a_j bounds are the inner nodes: one node in where a_j is differentiated
        steps = [int(j != via) for j in (1, 2)]
        assert seen == [[(axes_a[j][m], axes_a[j][-1 - m]) for j, m in zip((1, 2), steps)]]
        a0_nodes = axes_a[0][1:-1] if via > 0 else axes_a[0]
        candidates, on_node = density._interior_a0_candidates(a0_nodes)
        bounds = [
            (axes_a[j][0] + (j != via) * spacing[j], axes_a[j][-1] - (j != via) * spacing[j])
            for j in (1, 2)
        ]
        depth = []
        for b, (lo, hi) in zip(level_map(omegas, d.axes, candidates, bounds), bounds):
            if characteristics.axis_is_log(lo, hi):
                m = np.minimum(np.log(b / lo), np.log(hi / b)) / np.log(hi / lo)
            else:
                m = np.minimum(b - lo, hi - b) / (hi - lo)
            depth.append(np.where(np.isnan(m), -1.0, m))
        assert np.array_equal(got.support_mask, cube_selection(depth, on_node)[1])
        assert int(got.support_mask.sum()) == (6842, 7012, 6957)[via]

    def test_peak_memory_bounded(self):
        # 105 candidate references on a 201^2 v lattice: the cube and its
        # score + bonus copies alone would take over 100 MiB
        f = model.tabulate(log_model(), field.GridSpec((1.0,) * 3, (4.0,) * 3, (41,) * 3))
        omegas = analytic_omegas([(1.0, 4.0)] * 3)
        v_grid = density.make_v_grid(omegas, n=201)
        density.reconstruct_density(f, omegas, v_grid)  # warm the field's caches
        tracemalloc.start()
        try:
            density.reconstruct_density(f, omegas, v_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# -- the per-reference level map as it stood before the batched one ----------


def reference_reconstruct_density(field_, omegas, v_grid, route="mixed", alt_k=1):
    """One inversion and one stencil batch per candidate reference."""
    J = len(omegas)
    axes_a = field_.grid.axes()
    spacing = field_.grid.spacing
    candidates, node_mask = density._interior_a0_candidates(
        axes_a[0] if route == "mixed" else axes_a[0][1:-1]
    )

    def axis_bounds(j):
        steps = 0 if (route == "alt" and j + 1 == alt_k) else 1
        return (
            axes_a[j + 1][0] + steps * spacing[j + 1],
            axes_a[j + 1][-1] - steps * spacing[j + 1],
        )

    inv = []
    for j, om in enumerate(omegas):
        lo, hi = axis_bounds(j)
        per_cand = []
        for a0 in candidates:
            b = om.invert_aj_many(v_grid[j], float(a0))
            per_cand.append(np.where((b >= lo) & (b <= hi), b, np.nan))
        inv.append(np.asarray(per_cand))
    shape = tuple(len(ax) for ax in v_grid)
    f_raw = np.full(shape, np.nan)
    F_vals = np.zeros(shape)
    support = np.zeros(shape, dtype=bool)
    score = np.full((len(candidates),) + shape, np.inf)
    for j in range(J):
        lo, hi = axis_bounds(j)
        b = inv[j]
        if characteristics.axis_is_log(lo, hi):
            m = np.minimum(np.log(b / lo), np.log(hi / b)) / np.log(hi / lo)
        else:
            m = np.minimum(b - lo, hi - b) / (hi - lo)
        reshape = [len(candidates)] + [1] * J
        reshape[1 + j] = shape[j]
        score = np.minimum(score, np.where(np.isnan(m), -1.0, m).reshape(reshape))
    bonus = np.where((score >= 0.0) & node_mask.reshape((-1,) + (1,) * J), 2.0, 0.0)
    first = np.argmax(score + bonus, axis=0)
    any_valid = np.max(score, axis=0) >= 0.0
    for c, a0 in enumerate(candidates):
        sel = any_valid & (first == c)
        if not sel.any():
            continue
        idx = np.argwhere(sel)
        pts = np.empty((len(idx), J + 1))
        pts[:, 0] = a0
        for j in range(J):
            pts[:, j + 1] = inv[j][c][idx[:, j]]
        if route == "mixed":
            num = field_.fd_stencil(0, tuple(range(1, J + 1)), pts)
            d_om = np.ones(len(idx))
            for j in range(J):
                d_om *= np.asarray(omegas[j].d_aj(pts[:, j + 1], a0))
            f_node = num / d_om
        else:
            other = [j for j in range(1, J + 1) if j != alt_k]
            num = field_.fd_stencil(alt_k, (0, *other), pts)
            d_om = np.asarray(omegas[alt_k - 1].d_a0(pts[:, alt_k], a0))
            for j in other:
                d_om = d_om * np.asarray(omegas[j - 1].d_aj(pts[:, j], a0))
            f_node = -num / d_om
        f_raw[tuple(idx.T)] = f_node
        F_vals[tuple(idx.T)] = field_.fd_stencil(0, (), pts)
        support[tuple(idx.T)] = True
    return dict(
        f_values=np.where(support, np.clip(f_raw, 0.0, None), 0.0),
        F_values=F_vals,
        support_mask=support,
        clipped_nodes=int(np.sum((f_raw < 0) & support)),
        min_raw_density=float(np.nanmin(f_raw)),
    )


@pytest.fixture(scope="module")
def j1_setup():
    m = model.ChoiceModelSpec(
        utilities=(model.UtilityPrimitive("log", (1.0,)), model.UtilityPrimitive("log", (2.0,))),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((1e-3, 200.0),) * 2,
    )
    f = model.tabulate(m, field.GridSpec((0.002, 0.04), (50.0, 12.0), (161, 121)))
    t1 = lambda aj, a0: aj / (2.0 * a0)
    om = characteristics.build_omega(t1, ((0.04, 12.0), (0.002, 50.0)), a_ref=1.0,
                                     resolution=81, j=1)
    return f, [om], (np.geomspace(0.01, 100.0, 101),)


class TestLevelMapEquivalence:
    """The batched level map reproduces the per-reference loops bit for bit."""

    def assert_same(self, f, omegas, v_grid, via):
        # via = 0 is the mixed-partial route, via = k the alt route through q_k
        got = density.reconstruct_density(f, omegas, v_grid, via=via)
        route = "alt" if via else "mixed"
        want = reference_reconstruct_density(f, omegas, v_grid, route=route, alt_k=via or 1)
        for name, arr in want.items():
            assert np.array_equal(getattr(got, name), arr), name

    # ids name the reference route each via is compared against
    @pytest.mark.parametrize("via", [0, 1, 2], ids=["mixed", "alt", "alt_k2"])
    def test_density_j2(self, narrow_density, via):
        f, omegas, d = narrow_density
        self.assert_same(f, omegas, d.axes, via)
        # a lattice reaching past the attained ranges masks part of the support
        self.assert_same(f, omegas, (np.geomspace(0.2, 30.0, 41),) * 2, via)

    @pytest.mark.parametrize("via", [0, 1], ids=["mixed", "alt"])
    def test_density_j1(self, j1_setup, via):
        self.assert_same(*j1_setup, via)

    @pytest.mark.parametrize("v", [(1.0, 1.0), (0.6, 1.4), (1.3, 0.8)])
    @pytest.mark.parametrize("a_0", [None, 1.5, 2.0, 3.0])
    def test_cdf(self, cdf_setup, v, a_0):
        # the CDF at a one-node lattice: bit for bit the per-reference loop's
        # (a_0 None), and q_0 where every omega_j attains v_j from the given
        # reference a_0 whenever that point lies in the hull
        f, omegas = cdf_setup
        axes = tuple(np.array([vj]) for vj in v)
        F = density.reconstruct_density(f, omegas, axes).F_values[0, 0]
        if a_0 is None:
            assert F == reference_reconstruct_density(f, omegas, axes)["F_values"][0, 0]
            return
        point = [a_0] + [om.invert_aj_many(np.array([vj]), a_0)[0] for vj, om in zip(v, omegas)]
        if f.grid.contains(point):
            assert F == pytest.approx(f.interpolate(point)[0], abs=5e-3)

    @pytest.mark.parametrize("a_0", [None, 2.0, 99.0])
    def test_cdf_unreachable(self, cdf_setup, a_0):
        # v = (500, 500) has no level-attaining point in the hull; a_0 = 99
        # lies outside the omegas' a_0 domain [1, 4], which the inversion rejects
        f, omegas = cdf_setup
        v = (500.0, 500.0)
        if a_0 is None:
            with pytest.raises(SupportError):
                density.reconstruct_density(f, omegas, tuple(np.array([vj]) for vj in v))
            return
        if a_0 > 4.0:
            with pytest.raises(DomainError, match="a_0 outside omega domain"):
                omegas[0].invert_aj_many(np.array([v[0]]), a_0)
            return
        point = [a_0] + [om.invert_aj_many(np.array([vj]), a_0)[0] for vj, om in zip(v, omegas)]
        assert not f.grid.contains(point)
