"""Probability fields: interpolation, derivatives, shape checks, CSV format."""

import csv
import hashlib
import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from rumkit import field, model, symmetry
from rumkit.errors import DomainError, ValidationError

from conftest import (
    MALFORMED_FIELD_CSVS,
    half_field,
    lin_model,
    log_model,
    oracle_prob,
    write_malformed_field_csv,
    write_nan_field_csv,
)

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
        for lo, hi in (((0.0, 0.0), (np.inf, 1.0)), ((-np.inf, 0.0), (1.0, 1.0)),
                       ((0.0, np.nan), (1.0, 1.0))):
            with pytest.raises(ValidationError, match="finite"):
                field.GridSpec(lo, hi, (5, 5))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects(self, bad):
        values = np.full((5, 5, 2), 0.5)
        values[2, 3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            field.ProbabilityField(grid=half_field().grid, values=values)

    def test_csv_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        write_nan_field_csv(path)
        with pytest.raises(ValidationError):
            field.read_field_csv(path)


def with_rows(rows):
    """half_field's values with the given (q_0, q_1) rows put at nodes (1, k)."""
    values = np.full((5, 5, 2), 0.5)
    for k, row in enumerate(rows):
        values[1, k] = row
    return values


class TestProbabilityRows:
    @pytest.mark.parametrize(
        "rows",
        [[(-1e-9, 1.0 + 1e-9)], [(1.0 + 1e-9, 0.0)], [(0.45, 0.45), (1.0 + 1e-9, 0.0)]],
        ids=["below_0", "above_1", "range_before_sum"],
    )
    def test_entry_outside_unit_interval(self, rows):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            field.ProbabilityField(grid=half_field().grid, values=with_rows(rows))

    def test_row_summing_to_point_nine(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            field.ProbabilityField(grid=half_field().grid, values=with_rows([(0.45, 0.45)]))

    def test_nan_reported_before_bad_sum(self):
        # one row holds a NaN and the sum of another is 0.9: finiteness comes first
        values = with_rows([(np.nan, 0.2), (0.45, 0.45)])
        with pytest.raises(ValidationError, match="finite"):
            field.ProbabilityField(grid=half_field().grid, values=values)

    @pytest.mark.parametrize("node", [(0, 0), (2, 1), (4, 4)])
    def test_every_slab_is_summed(self, monkeypatch, node):
        # slabs of 2 rows of axis 0 (10 nodes): the last one is ragged
        monkeypatch.setattr(field, "_CHUNK_ENTRIES", 10)
        values = np.full((5, 5, 2), 0.5)
        values[node] = (0.5, 0.5 - 2e-9)
        with pytest.raises(ValidationError, match="sum to 1"):
            field.check_probability_rows(values)
        values[node] = (0.5, 0.5 - 5e-10)
        field.check_probability_rows(values)


class TestContentHash:
    def test_follows_content_and_is_computed_once(self):
        f = half_field()
        h = f.content_hash()
        assert half_field().content_hash() == h
        assert vars(f)["_content_digest"] == h  # memoised on the field
        values = np.full((5, 5, 2), 0.5)
        values[2, 3] = (0.25, 0.75)
        assert field.ProbabilityField(grid=f.grid, values=values).content_hash() != h

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_digest_of_grid_repr_and_value_bytes(self, lin_field, strided):
        # hashed in place: the digest is the one over a bytes copy of the values
        values = np.asarray(lin_field.values)
        if strided:
            values = np.concatenate([values, values], axis=-1)[..., ::2]
            assert not values.flags.c_contiguous
        f = field.ProbabilityField(grid=lin_field.grid, values=values)
        assert f.values.flags.c_contiguous != strided
        g = f.grid
        want = hashlib.sha256(
            repr((g.lower, g.upper, g.counts)).encode() + f.values.tobytes()
        ).hexdigest()[:16]
        assert f.content_hash() == want


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
        # a batch of points gives each point's vector unchanged
        batch = np.array([a, (0.3, -0.7, 0.11)])
        assert np.array_equal(
            lin_field.interpolate(batch), [lin_field.interpolate(p) for p in batch]
        )

    def test_outside_hull_rejected(self, lin_field):
        with pytest.raises(DomainError):
            lin_field.interpolate((1.5, 0.0, 0.0))

    @given(interior_pt)
    @settings(max_examples=25, deadline=None)
    def test_interpolated_rows_sum_to_one(self, lin_field, a):
        q = lin_field.interpolate(a)
        assert abs(q.sum() - 1.0) <= 1e-12


class TestMultilinear:
    """field.multilinear, the one multilinear kernel (fd_stencil, interpolate,
    verify's quadrature and convert --resample all call it)."""

    @staticmethod
    def table_and_axes(dims, geometric, trailing=()):
        rng = np.random.default_rng(dims)
        counts = (7, 5, 6, 5)[:dims]
        if geometric:
            axes = [np.geomspace(0.05, 12.0 + k, n) for k, n in enumerate(counts)]
        else:
            axes = [np.linspace(-1.0 - k, 1.0, n) for k, n in enumerate(counts)]
        table = rng.normal(size=counts + trailing)
        # read-only like the field's arrays: RegularGridInterpolator's fast
        # path for a writeable 2-D table multiplies in another order
        table.setflags(write=False)
        return table, axes, rng

    @pytest.mark.parametrize("geometric", [False, True], ids=["uniform", "geometric"])
    @pytest.mark.parametrize("dims", [2, 3, 4], ids=["J1", "J2", "J3"])
    def test_equals_regular_grid_interpolator(self, dims, geometric):
        # bit for bit: the same cell rule, corner order and weight products
        for trailing in ((), (3,)):
            table, axes, rng = self.table_and_axes(dims, geometric, trailing)
            pts = np.column_stack([rng.uniform(ax[0], ax[-1], 500) for ax in axes])
            got = field.multilinear(table, axes, pts.T, ())
            np.testing.assert_array_equal(got, RegularGridInterpolator(axes, table)(pts))

    @pytest.mark.parametrize("geometric", [False, True], ids=["uniform", "geometric"])
    def test_exact_at_nodes(self, geometric):
        table, axes, _ = self.table_and_axes(3, geometric)
        nodes = np.meshgrid(*axes, indexing="ij")
        got = field.multilinear(table, axes, [m.ravel() for m in nodes], ())
        np.testing.assert_array_equal(got, table.ravel())

    def test_infinite_points_read_the_end_nodes(self):
        # verify's quadrature passes +/-inf levels and relies on the clamp
        table, axes, rng = self.table_and_axes(3, False)
        x1 = rng.uniform(axes[1][0], axes[1][-1], 50)
        x2 = rng.uniform(axes[2][0], axes[2][-1], 50)
        for inf, end in ((np.inf, axes[0][-1]), (-np.inf, axes[0][0])):
            np.testing.assert_array_equal(
                field.multilinear(table, axes, [inf, x1, x2], ()),
                field.multilinear(table, axes, [np.full(50, end), x1, x2], ()),
            )

    def test_lead_indexes_leading_axes(self):
        # one call over a batch of slabs equals one call per slab
        table, axes, rng = self.table_and_axes(3, True)
        sub = axes[1:]
        pts = [rng.uniform(ax[0], ax[-1], (20, len(table))) for ax in sub]
        got = field.multilinear(table, sub, pts, (np.arange(len(table)),))
        for i, slab in enumerate(table):
            want = field.multilinear(slab, sub, [p[:, i] for p in pts], ())
            np.testing.assert_array_equal(got[:, i], want)


def corner_stencil(f, r, axes, pts):
    """Central difference of the multilinear interpolant of q_r over its 2^m
    corners, step equal to the grid spacing: valid one spacing inside the hull."""
    interp = RegularGridInterpolator(f.grid.axes(), f.values[..., r])
    steps = [f.grid.spacing[k] for k in axes]
    total = np.zeros(len(pts))
    for signs in itertools.product((-1.0, 1.0), repeat=len(axes)):
        shifted = pts.copy()
        for s, k, h in zip(signs, axes, steps):
            shifted[:, k] += s * h
        total += np.prod(signs) * interp(shifted)
    return total / np.prod([2.0 * h for h in steps])


class TestDerivatives:
    def test_partial_matches_softmax_identity(self, lin_field):
        # d q_0 / d a_1 = -q_0 q_1 = -1/9 at the symmetric point
        d = lin_field.fd_stencil(0, (1,), [(0.0, 0.0, 0.0)])[0]
        assert d == pytest.approx(-1.0 / 9.0, abs=1e-3)

    def test_constant_field_zero_derivative(self):
        g = field.GridSpec((0.0,) * 3, (1.0,) * 3, (5,) * 3)
        vals = np.full(g.counts + (3,), 1.0 / 3.0)
        f = field.ProbabilityField(g, vals)
        assert f.fd_stencil(0, (0,), [(0.5, 0.5, 0.5)])[0] == 0.0

    def test_log_model_derivative_signs(self, log_field):
        a = (2.0, 2.0, 2.0)
        assert log_field.fd_stencil(0, (0,), [a])[0] > 0
        assert log_field.fd_stencil(1, (0,), [a])[0] < 0

    def test_near_edge_interpolates_one_sided_edge_partials(self, lin_field):
        # within one step of the edge the partial is interpolated between
        # the stencil's one-sided edge value and the next node's central one
        grads = lin_field.node_gradients[0, 0]
        h = lin_field.grid.spacing[0]
        d = lin_field.fd_stencil(0, (0,), [(-1.0, 0.0, 0.0), (-1.0 + 0.25 * h, 0.0, 0.0)])
        assert d[0] == grads[0, 20, 20]
        assert d[1] == pytest.approx(0.75 * grads[0, 20, 20] + 0.25 * grads[1, 20, 20],
                                     abs=1e-12)

    @pytest.mark.parametrize("axes", [(), (0,), (1, 2)])
    def test_outside_hull_rejected(self, lin_field, axes):
        with pytest.raises(DomainError):
            lin_field.fd_stencil(0, axes, [(0.0, 0.0, 0.0), (0.0, 1.01, 0.0)])

    @pytest.mark.parametrize("axes", [(), (0,), (1, 2)])
    def test_nan_point_rejected(self, lin_field, axes):
        # the kernel clamps every point, so the hull check alone keeps NaN out
        with pytest.raises(DomainError):
            lin_field.fd_stencil(0, axes, [(0.0, 0.0, 0.0), (0.0, np.nan, 0.0)])

    def test_mixed_partial_softmax_identity(self, lin_field):
        # d^2 q_0 / d a_1 d a_2 = 2 q_0 q_1 q_2 = 2/27 at the symmetric point
        m = lin_field.fd_stencil(0, (1, 2), [(0.0, 0.0, 0.0)])[0]
        assert m == pytest.approx(2.0 / 27.0, abs=2e-3)

    def test_mixed_partial_zero_for_multilinear(self):
        g = field.GridSpec((0.0,) * 3, (1.0,) * 3, (9,) * 3)
        mesh = np.meshgrid(*g.axes(), indexing="ij")
        q1 = 0.1 + 0.2 * mesh[0]  # affine per coordinate
        q2 = 0.1 + 0.1 * mesh[1]
        vals = np.stack([1.0 - q1 - q2, q1, q2], axis=-1)
        f = field.ProbabilityField(g, vals)
        assert f.fd_stencil(0, (1, 2), [(0.5, 0.5, 0.5)])[0] == pytest.approx(0.0, abs=1e-12)

    @given(interior_pt)
    @settings(max_examples=20, deadline=None)
    def test_partials_sum_to_zero(self, lin_field, a):
        # differentiate sum_j q_j = 1 along any axis
        total = sum(lin_field.fd_stencil(j, (1,), [a])[0] for j in range(3))
        assert abs(total) <= 1e-6

    def test_halving_spacing_quarters_error(self, m_lin):
        # d q_0 / d a_1 = -q_0 q_1 at the centre; d^2 q_0 / d a_1 d a_2 =
        # 2 q_0 q_1 q_2 on the edge a_1 = -1, within one step of it on both grids
        cases = [((1,), (0.0, 0.0, 0.0)), ((1, 2), (0.0, -1.0, 0.3))]
        for axes, a in cases:
            q = model.choice_prob_closed_form(m_lin, np.array(a))
            target = -q[0] * q[1] if axes == (1,) else 2.0 * q[0] * q[1] * q[2]
            errs = []
            for n in (21, 41):
                g = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (n,) * 3)
                f = model.tabulate(m_lin, g)
                errs.append(abs(f.fd_stencil(0, axes, [a])[0] - target))
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35), axes

    @pytest.mark.parametrize(
        "nalt, axes", [(3, (1,)), (3, (1, 2)), (4, (1, 2, 3))], ids=["m1", "m2", "m3"]
    )
    def test_matches_corner_stencil_inside(self, nalt, axes):
        # one spacing inside the hull the interpolated lattice partial is the
        # 2^m-corner central difference of the interpolant
        spec = model.ChoiceModelSpec(
            utilities=(model.UtilityPrimitive("linear", (0.0, 1.0)),) * nalt,
            noise=model.NoiseSpec("gumbel_iid", 1.0),
            domain=((-10.0, 10.0),) * nalt,
        )
        n = 41 if nalt == 3 else 13
        f = model.tabulate(spec, field.GridSpec((-1.0,) * nalt, (1.0,) * nalt, (n,) * nalt))
        h = np.asarray(f.grid.spacing)
        pts = -1.0 + h + np.random.default_rng(3).random((200, nalt)) * (2.0 - 2.0 * h)
        got = f.fd_stencil(0, axes, pts)
        assert np.max(np.abs(got - corner_stencil(f, 0, axes, pts))) <= 1e-12 * f.gradient_scale

    def test_gradient_scale_leaves_node_gradients(self, log_field):
        f = field.ProbabilityField(grid=log_field.grid, values=log_field.values)
        before = f.node_gradients.copy()
        assert f.gradient_scale == float(np.median(np.abs(before)))
        assert np.array_equal(f.node_gradients, before)
        assert not f.node_gradients.flags.writeable  # fd_stencil interpolates views of it


def _random_field(counts, seed=0):
    rng = np.random.default_rng(seed)
    upper = tuple(rng.uniform(0.5, 3.0, len(counts)))
    vals = rng.random(tuple(counts) + (len(counts),))
    return field.ProbabilityField(
        field.GridSpec((-1.0,) * len(counts), upper, counts), vals / vals.sum(-1, keepdims=True)
    )


def _nested_gradient(f, r, axes):
    arr = f.values[..., r]
    for k in axes:
        arr = np.gradient(arr, f.grid.spacing[k], axis=k, edge_order=2)
    return arr


def _constant_field(counts):
    # every magnitude 0 or round-off
    g = field.GridSpec((0.0,) * 3, (1.0,) * 3, counts)
    return field.ProbabilityField(g, np.full(tuple(counts) + (3,), 1 / 3))


def _affine_field(counts):
    # every q_j affine in every coordinate: |d q_j / d a_k| is 0.05, 0.1 or
    # 0.2 up to round-off, so thousands of magnitudes share their high bits
    g = field.GridSpec((0.0,) * 3, (1.0,) * 3, counts)
    x = np.meshgrid(*g.axes(), indexing="ij")
    q1 = 0.3 + 0.1 * (x[0] - x[1] + 0.5 * x[2])
    q2 = 0.3 + 0.1 * (x[0] + x[1] - x[2])
    return field.ProbabilityField(g, np.stack([1.0 - q1 - q2, q1, q2], axis=-1))


class TestStencilBits:
    """The in-place stencil reproduces np.gradient(..., edge_order=2) bit for bit."""

    @pytest.mark.parametrize("counts", [(9, 5), (5, 8, 6), (7, 5, 6, 8)], ids=["J1", "J2", "J3"])
    def test_mixed_partials_equal_nested_gradient(self, counts):
        f = _random_field(counts)
        for r in range(f.n_alternatives):
            for m in range(1, f.n_alternatives + 1):  # up to every axis, in every order
                for axes in itertools.permutations(range(f.n_alternatives), m):
                    got = f.node_mixed_partial(r, axes)
                    assert np.array_equal(got, _nested_gradient(f, r, axes)), (r, axes)

    @pytest.mark.parametrize("counts", [(9, 5), (5, 8, 6), (7, 5, 6, 8)], ids=["J1", "J2", "J3"])
    def test_node_gradient_planes_equal_gradient(self, counts):
        f = _random_field(counts, seed=1)
        for j, k in itertools.product(range(f.n_alternatives), repeat=2):
            assert np.array_equal(f.node_gradients[j, k], _nested_gradient(f, j, (k,)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _random_field((7, 5, 6), seed=2),  # 9 * 210 entries: even
            lambda: _random_field((7, 5, 9), seed=3),  # 9 * 315 entries: odd
            lambda: _constant_field((5, 6, 7)),
            lambda: _affine_field((9, 9, 9)),
            lambda: _affine_field((9, 9, 8)),
        ],
        ids=["even", "odd", "constant", "ties-odd", "ties-even"],
    )
    def test_gradient_scale_equals_median(self, make):
        f = make()
        assert f.gradient_scale == float(np.median(np.abs(f.node_gradients)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _random_field((9, 5), seed=4),
            lambda: _random_field((5, 8, 6), seed=4),
            lambda: _random_field((7, 5, 6, 8), seed=4),
            lambda: _constant_field((5, 6, 7)),
            lambda: _affine_field((9, 9, 9)),
            lambda: _affine_field((9, 9, 8)),
        ],
        ids=["J1", "J2", "J3", "constant", "ties-odd", "ties-even"],
    )
    def test_planes_without_the_block_equal_its_views(self, make):
        streamed, block = make(), make()
        block.node_gradients
        assert streamed.gradient_scale == block.gradient_scale
        for k, l in itertools.permutations(range(block.n_alternatives), 2):
            got = symmetry.slutsky_ratio(streamed, k, l)
            assert got.tobytes() == symmetry.slutsky_ratio(block, k, l).tobytes(), (k, l)
        assert "node_gradients" not in streamed.__dict__


class TestLatticePartials:
    """node_mixed_partial is the one lattice partial; fd_stencil caches what it returns."""

    POINT = [[2.0, 2.5, 3.0]]

    def test_repeated_first_partial_differences_once(self, log_field, monkeypatch):
        calls = []

        def counting(arr, h, axis, out):
            calls.append(axis)
            return difference(arr, h, axis, out)

        difference = field._difference
        monkeypatch.setattr(field, "_difference", counting)
        f = field.ProbabilityField(log_field.grid, log_field.values)  # fresh caches
        first = f.fd_stencil(0, (1,), self.POINT)
        for _ in range(99):
            assert np.array_equal(f.fd_stencil(0, (1,), self.POINT), first)
        assert calls == [1]
        assert "node_gradients" not in f.__dict__

    def test_cached_first_partial_is_a_view_of_the_block(self, log_field):
        f = field.ProbabilityField(log_field.grid, log_field.values)
        f.node_gradients
        f.fd_stencil(0, (1,), self.POINT)
        assert np.shares_memory(f._lattice_partials[0, (1,)], f.node_gradients)

    def test_first_partial_into_out(self, log_field):
        f = field.ProbabilityField(log_field.grid, log_field.values)
        buf = np.empty(f.grid.counts)
        assert f.node_mixed_partial(2, (1,), out=buf) is buf
        assert np.array_equal(buf, _nested_gradient(f, 2, (1,)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LATTICE_60 = 8 * 60**3  # bytes of one float64 array on the 60^3 lattice
LATTICE_80 = 8 * 80**3
HALF_BLOCK_60 = 0.5 * 9 * LATTICE_60  # the high words of every |d q_j / d a_k|


@pytest.mark.parametrize(
    "name, make, bound",
    [
        # one output lattice plus axis0_slabs-sized buffers, never a second lattice
        ("node_mixed_partial", lambda: _softmax_field(3, 80), LATTICE_80 + 2**20),
        # each plane written into its slot of the block
        ("node_gradients", lambda: _softmax_field(3, 60), 9 * LATTICE_60 + 2**20),
        # with no block built: half of it plus plane-sized work arrays, ties or not
        ("gradient_scale", lambda: _softmax_field(3, 60), HALF_BLOCK_60 + 2 * LATTICE_60),
        ("gradient_scale", lambda: _constant_field((60,) * 3), HALF_BLOCK_60 + 2 * LATTICE_60),
        ("gradient_scale", lambda: _affine_field((60,) * 3), HALF_BLOCK_60 + 2 * LATTICE_60),
    ],
    ids=[
        "node_mixed_partial",
        "node_gradients",
        "gradient_scale",
        "gradient_scale-constant",
        "gradient_scale-affine",
    ],
)
def test_derivative_allocation_bounds(name, make, bound):
    f = make()
    call = {
        "node_mixed_partial": lambda: f.node_mixed_partial(0, (1, 2)),
        "node_gradients": lambda: f.node_gradients,
        "gradient_scale": lambda: f.gradient_scale,
    }[name]
    assert _traced_peak(call) <= bound


class TestCheckShape:
    def test_log_model_passes(self, log_field):
        rep = field.check_shape(log_field)
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
        # where a stride leaves the last nodes out, the end is the parent's node, bit for bit
        sub = field.subsample(log_field, (2, 3, 7))
        axes = log_field.grid.axes()
        assert sub.grid.counts == (21, 14, 6)
        assert sub.grid.upper == (axes[0][40], axes[1][39], axes[2][35])

    def test_unit_strides_return_the_field(self, log_field):
        assert field.subsample(log_field, (1,) * log_field.grid.dims) is log_field

    def test_too_coarse_rejected(self, log_field):
        with pytest.raises(ValidationError):
            field.subsample(log_field, (20, 1, 1))


class TestCsv:
    def test_round_trip(self, tmp_path, log_field):
        path = tmp_path / "field.csv"
        field.write_field_csv(log_field, path)
        back = field.read_field_csv(path)
        assert back.grid == log_field.grid
        assert np.array_equal(back.values, log_field.values)

    def test_shuffled_rows_read_back(self, tmp_path, log_field):
        path = tmp_path / "field.csv"
        field.write_field_csv(log_field, path)
        header, *rows = path.read_text().splitlines()
        order = np.random.default_rng(7).permutation(len(rows))
        # LF endings and blank lines are accepted too
        path.write_text("\n".join([header, ""] + [rows[i] for i in order]) + "\n\n")
        back = field.read_field_csv(path)
        assert back.grid == log_field.grid
        assert np.array_equal(back.values, log_field.values)

    def test_incomplete_lattice_rejected(self, tmp_path, log_field):
        path = tmp_path / "field.csv"
        field.write_field_csv(log_field, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(ValidationError):
            field.read_field_csv(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_FIELD_CSVS))
    def test_malformed_rejected(self, tmp_path, case):
        path = tmp_path / "field.csv"
        write_malformed_field_csv(path, case)
        # a warning (numpy's "input contained no data") would fail the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                field.read_field_csv(path)


def reference_write_field_csv(f, path):
    """Per-node csv.writer + repr writer: the reference the slab writer must match."""
    nalt = f.n_alternatives
    axes = f.grid.axes()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"a_{k}" for k in range(nalt)] + [f"q_{j}" for j in range(nalt)])
        for idx in np.ndindex(*f.grid.counts):
            coords = [repr(float(axes[k][i])) for k, i in enumerate(idx)]
            probs = [repr(float(v)) for v in f.values[idx]]
            w.writerow(coords + probs)


def _softmax_field(dims, n):
    grid = field.GridSpec((-1.0,) * dims, (1.5,) * dims, (n,) * dims)
    return model.tabulate_from_utilities(
        grid, [lambda m, k=k: (1.0 + 0.7 * k) * m[k] for k in range(dims)]
    )


def _tiny_probability_field():
    # coordinates and probabilities that repr prints in exponent form
    grid = field.GridSpec((1e-5, -3.0), (2e-5, 3.0), (5, 6))
    q1 = np.geomspace(1e-300, 0.5, 30).reshape(5, 6)
    q1[0, 1] = 5e-324
    return field.ProbabilityField(grid, np.stack([1.0 - q1, q1], axis=-1))


def _single_alternative_field():
    grid = field.GridSpec((-2.0,), (2.0,), (9,))
    return field.ProbabilityField(grid, np.ones((9, 1)))


def _lin_gumbel_field():
    # no income effects: q depends on a only through a_j - a_0, so values repeat
    grid = field.GridSpec((-6.0,) * 3, (6.0,) * 3, (21,) * 3)
    return model.tabulate(lin_model(), grid)


def _signed_zero_field():
    # every node a permutation of (1.0, 0.0, -0.0) but two softmax rows
    rows = np.array(list(itertools.permutations([1.0, 0.0, -0.0])))
    values = rows[np.arange(6 * 7 * 8) % len(rows)].reshape(6, 7, 8, 3)
    values[2, 3, 4] = values[5, 6, 7] = (0.25, 0.5, 0.25)
    grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (6, 7, 8))
    return field.ProbabilityField(grid, values)


# 105 * 2^-20 rounds with a residual of exactly 1/2 at 16 digits: repr decides it
_HALF_TIE = 105 * 2.0**-20
# values that try the shortest-repr kernel at its edges, with the ones outside its domain
REPR_EDGE_CASES = [
    1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1.0, 0.0)),
    *(2.0**-k for k in range(1, 14)),  # every power of two in [1e-4, 1)
    *(float(np.nextafter(10.0**-k, side)) for k in range(1, 5) for side in (0.0, 1.0)),
    0.5, 0.25, 0.1, 0.3, 0.0001, _HALF_TIE,
    0.0, -0.0, 1.0, 5e-324, 1e-310,
]


def _repr_edge_field():
    # q_1 runs through REPR_EDGE_CASES, one node each; q_0 = 1 - q_1
    grid = field.GridSpec((0.0, -1.0), (1.0, 1.0), (5, 7))
    q1 = np.array(REPR_EDGE_CASES).reshape(5, 7)
    return field.ProbabilityField(grid, np.stack([1.0 - q1, q1], axis=-1))


class TestWriterEquivalence:
    """The slab-streamed writer produces the reference writer's bytes."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _softmax_field(2, 7),
            lambda: _softmax_field(3, 6),
            lambda: _softmax_field(4, 5),
            _tiny_probability_field,
            lambda: model.tabulate(
                lin_model(), field.GridSpec((-1.0,) * 3, (1.0,) * 3, (5,) * 3),
                method="monte_carlo", n=300, seed=3,
            ),
            _single_alternative_field,
            _lin_gumbel_field,
            _signed_zero_field,
            _repr_edge_field,
        ],
        ids=["J1", "J2", "J3", "exponent_form", "monte_carlo", "single_alternative",
             "lin_gumbel_table", "signed_zero_table", "repr_edge_cases"],
    )
    def test_bytes_match_reference(self, tmp_path, monkeypatch, make):
        f = make()
        field.write_field_csv(f, tmp_path / "new.csv")
        reference_write_field_csv(f, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        with monkeypatch.context() as m:
            m.setattr(field, "read_csv_table", _no_parse)
            hit = field.read_field_csv(tmp_path / "new.csv")
        parsed = field.read_field_csv(tmp_path / "ref.csv")  # no sidecar: the parse
        assert hit.grid == parsed.grid == f.grid
        assert hit.content_hash() == parsed.content_hash()
        assert np.array_equal(hit.values.view(np.uint64), parsed.values.view(np.uint64))
        assert np.array_equal(hit.values, f.values)


def _reprs(x):
    return np.array([repr(v).encode() for v in x.tolist()])


_ONE_BITS = int(np.float64(1.0).view(np.uint64))
_KERNEL_LOW_BITS = int(np.float64(1e-4).view(np.uint64))


class TestReprKernel:
    """_repr_bytes gives repr's bytes for every entry; _shortest_reprs decides
    every entry of [1e-4, 1) but an exact tie, and those match repr."""

    def test_decades_lie_above_their_powers_of_ten(self):
        # floor(log10 x) compares x with the doubles 1e-1..1e-4
        for k in range(1, 5):
            assert Fraction(10.0**-k) > Fraction(1, 10**k)

    def test_named_edge_cases(self):
        x = np.array(REPR_EDGE_CASES)
        assert field._repr_bytes(x).tolist() == _reprs(x).tolist()
        inside = x[(x >= 1e-4) & (x < 1.0)]
        strings, undecided = field._shortest_reprs(inside)
        assert inside[undecided].tolist() == [_HALF_TIE]
        assert np.array_equal(strings[~undecided], _reprs(inside)[~undecided])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(0, _ONE_BITS), st.integers(_KERNEL_LOW_BITS, _ONE_BITS - 1)),
        min_size=1, max_size=64,
    ))
    def test_bit_patterns_in_unit_interval(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert field._repr_bytes(x).tolist() == _reprs(x).tolist()

    def test_seeded_sweep_of_every_binade(self):
        # 72,000 random values in each binade [2^e, 2^(e+1)) that meets [1e-4, 1)
        rng = np.random.default_rng(34)
        for e in range(-14, 0):
            lo = max(int(np.float64(2.0**e).view(np.uint64)), _KERNEL_LOW_BITS)
            hi = int(np.float64(2.0 ** (e + 1)).view(np.uint64))
            x = rng.integers(lo, hi, 72_000, dtype=np.uint64).view(np.float64)
            strings, undecided = field._shortest_reprs(x)
            assert not undecided.any()
            bad = np.flatnonzero(strings != _reprs(x))
            assert not bad.size, [x[i].hex() for i in bad[:5]]


class TestDistinctStrings:
    """_distinct_strings: one fmt call per distinct bit pattern, or None."""

    def test_one_call_per_bit_pattern(self):
        values = np.array([[0.5, -0.0, 0.0], [0.0, 0.5, -0.0], [0.5, 0.5, 0.25]])
        calls = []
        strings = field._distinct_strings(values, lambda x: calls.append(x) or repr(x))
        assert strings.shape == values.shape
        assert strings.tolist() == [[repr(x) for x in row] for row in values.tolist()]
        assert strings[0, 1] == "-0.0" and strings[0, 2] == "0.0"
        assert len(calls) == 4
        assert {x.hex() for x in calls} == {x.hex() for x in (0.5, -0.0, 0.0, 0.25)}

    def test_none_when_most_entries_distinct(self):
        fmt = "%.12g".__mod__
        assert field._distinct_strings(np.arange(5.0), fmt) is None
        assert field._distinct_strings(np.array([1.0, 1.0, 2.0, 2.0, 3.0]), fmt) is None
        assert field._distinct_strings(np.array([1.0, 1.0, 2.0, 2.0]), fmt) is not None

    @pytest.mark.parametrize("make", [_lin_gumbel_field, _signed_zero_field])
    def test_table_fields_take_the_table(self, make):
        f = make()
        for s in field.axis0_slabs(f.values.shape):
            assert field._distinct_strings(f.values[s], repr) is not None


def _planted_field(dims):
    """A softmax field with -0.0, 5e-324 and 1 - 2**-53 planted at two nodes."""
    f = _softmax_field(dims, 5)
    values = f.values.copy()
    values[(0,) * dims] = 0.0
    values[(0,) * dims][:2] = (1.0 - 2.0**-53, 5e-324)
    values[(1,) * dims] = 0.0
    values[(1,) * dims][:2] = (1.0, -0.0)
    return field.ProbabilityField(f.grid, values)


def _no_parse(*_, **__):
    raise AssertionError("the CSV was parsed")


class TestSidecar:
    """write_field_csv's <path>.npz: read in place of the parse only while it
    loads without pickle and holds the CSV's SHA-256."""

    @pytest.mark.parametrize("dims", [2, 3, 4], ids=["J1", "J2", "J3"])
    def test_hit_equals_parse(self, tmp_path, monkeypatch, dims):
        f = _planted_field(dims)
        path = tmp_path / "field.csv"
        field.write_field_csv(f, path)
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", _no_parse)
            m.setattr(field, "read_csv_table", _no_parse)
            hit = field.read_field_csv(path)
        (tmp_path / "field.csv.npz").unlink()
        parsed = field.read_field_csv(path)
        assert hit.grid == parsed.grid == f.grid
        assert hit.content_hash() == parsed.content_hash()
        assert np.array_equal(hit.values.view(np.uint64), parsed.values.view(np.uint64))
        assert np.array_equal(hit.values.view(np.uint64), f.values.view(np.uint64))

    def test_csv_table_ignores_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "field.csv"
        field.write_field_csv(_softmax_field(3, 6), path)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(
            np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw)
        )
        header, data = field.read_csv_table(path)
        assert len(calls) == 1
        assert header == ["a_0", "a_1", "a_2", "q_0", "q_1", "q_2"]
        assert data.shape == (6**3, 6)

    def test_same_length_edit_is_parsed(self, tmp_path):
        f = _softmax_field(3, 6)
        path = tmp_path / "field.csv"
        field.write_field_csv(f, path)
        text = path.read_bytes()
        lines = text.split(b"\r\n")
        cells = lines[7].split(b",")
        digit = cells[3][-1:]
        cells[3] = cells[3][:-1] + (b"1" if digit != b"1" else b"2")
        lines[7] = b",".join(cells)
        edited = b"\r\n".join(lines)
        assert len(edited) == len(text)
        path.write_bytes(edited)
        back = field.read_field_csv(path)
        node = np.unravel_index(6, f.grid.counts)
        assert back.values[node][0] == float(cells[3])
        assert back.values[node][0] != f.values[node][0]

    @pytest.mark.parametrize(
        "case",
        [
            "truncated", "wrong_digest", "object_array", "header_axes_layout",
            "lower_length", "lower_not_below_upper", "int_values", "row_sum",
        ],
    )
    def test_bad_sidecar_falls_back_to_parse(self, tmp_path, case):
        f = _softmax_field(3, 6)
        path = tmp_path / "field.csv"
        field.write_field_csv(f, path)
        sidecar = tmp_path / "field.csv.npz"
        with np.load(sidecar) as npz:
            arrays = dict(npz)
        # every rewritten sidecar but wrong_digest keeps the CSV's digest
        if case == "wrong_digest":
            # values that differ from the CSV show whether they were used
            arrays.update(sha256=np.array("0" * 64), values=0.5 * arrays["values"])
        elif case == "object_array":
            arrays["values"] = arrays["values"].astype(object)
        elif case == "header_axes_layout":
            arrays = {"sha256": arrays["sha256"], "values": arrays["values"]}
            arrays["header"] = np.array(["a_0", "a_1", "a_2", "q_0", "q_1", "q_2"])
            arrays.update((f"axis_{k}", ax) for k, ax in enumerate(f.grid.axes()))
        elif case == "lower_length":
            arrays["lower"] = arrays["lower"][:2]
        elif case == "lower_not_below_upper":
            arrays["lower"] = arrays["upper"].copy()
        elif case == "int_values":
            arrays["values"] = np.zeros(arrays["values"].shape, dtype=np.int64)
            arrays["values"][..., 0] = 1
        elif case == "row_sum":
            arrays["values"] = arrays["values"].copy()
            arrays["values"][2, 3, 4, 1] += 0.25
        if case == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        else:
            with open(sidecar, "wb") as fh:
                np.savez(fh, **arrays)
        back = field.read_field_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_no_sidecar_reads_without_hashing_or_writing(self, tmp_path, monkeypatch):
        f = _softmax_field(3, 6)
        path = tmp_path / "field.csv"
        field.write_field_csv(f, path)
        (tmp_path / "field.csv.npz").unlink()
        monkeypatch.setattr(field, "file_sha256", _no_parse)
        before = sorted(tmp_path.iterdir())
        back = field.read_field_csv(path)
        assert sorted(tmp_path.iterdir()) == before
        assert np.array_equal(back.values, f.values)

    def test_rewrite_replaces_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "field.csv"
        field.write_field_csv(_softmax_field(3, 6), path)
        g = _softmax_field(2, 7)
        field.write_field_csv(g, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.csv", "field.csv.npz"]
        with np.load(tmp_path / "field.csv.npz") as npz:
            assert str(npz["sha256"]) == field.file_sha256(path)
        monkeypatch.setattr(np, "loadtxt", _no_parse)
        back = field.read_field_csv(path)
        assert back.grid == g.grid
        assert np.array_equal(back.values, g.values)


    def test_sidecar_hit_without_file_digest(self, tmp_path, monkeypatch):
        # hashlib.file_digest is Python 3.11+; the sidecar must not need it
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        f = _softmax_field(3, 6)
        path = tmp_path / "field.csv"
        field.write_field_csv(f, path)
        monkeypatch.setattr(np, "loadtxt", _no_parse)
        assert field.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(field.read_field_csv(path).values, f.values)


@pytest.mark.parametrize("chunk_rows", [8, 35, 1 << 16])
def test_csv_table_bytes_match_savetxt(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(field, "_CHUNK_ENTRIES", chunk_rows)  # axis0_slabs((n,)) rows
    # np.savetxt of the column-stacked floats is the reference writer
    rng = np.random.default_rng(3)
    columns = [
        np.repeat(np.geomspace(1e-5, 3e7, 7), 5),
        np.tile(np.linspace(-2.0, 2.0, 5), 7),
        np.concatenate([[-0.0, 5e-324, 1.0 - 2.0**-53], rng.random(32)]),
        np.arange(35),
        rng.random(35) > 0.5,
        # runs of repeats with both zeros: the table path, across chunk ends
        np.repeat([0.0, -0.0, 0.25, 0.0, 1.0 / 3.0, -0.0, 2.5e-7], 5),
    ]
    names = ["v_1", "v_2", "f", "k", "in_support", "mass"]
    for lo in range(0, 35, chunk_rows):
        assert field._distinct_strings(columns[-1][lo : lo + chunk_rows], str) is not None
    # all columns (chunks mixing tables and floats), then only repeating ones
    for keep in (range(len(columns)), (0, 4, 5)):
        cols, header = [columns[i] for i in keep], [names[i] for i in keep]
        field.write_csv_table(tmp_path / "new.csv", header, cols)
        np.savetxt(
            tmp_path / "ref.csv", np.column_stack(cols), delimiter=",",
            header=",".join(header), comments="", fmt="%.12g",
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
