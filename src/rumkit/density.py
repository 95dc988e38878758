"""Heterogeneity distribution recovery from a probability field and omega maps.

The distribution of the recovered taste variables v = (v_1, ..., v_J) is read
off the field: the CDF is F(v) = q_0 evaluated at the a-point where every
omega_j attains level v_j, and the density is one quotient at the same point:
the J-th partial of one choice probability q_via over every offer coordinate
but a_via, divided by the product of the matching omega slopes. Every choice
of via must give the same density, which makes the quotients a strong
internal consistency check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .characteristics import axis_is_log
from .errors import NegativeDensityError, SupportError, ValidationError
from .field import ProbabilityField, record_dict, write_csv_table


@dataclass(frozen=True)
class MassReport:
    """Normalization diagnostics for a reconstructed density grid."""

    mass: float
    corner_cdf: float
    support_fraction: float
    clipped_nodes: int
    min_raw_density: float

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass
class DensityGrid:
    """Rectangular lattice in v-space with density, CDF and support mask."""

    axes: tuple  # tuple of 1-D arrays, one per v_j
    f_values: np.ndarray
    F_values: np.ndarray
    support_mask: np.ndarray
    clipped_nodes: int = 0
    min_raw_density: float = 0.0

    def __post_init__(self):
        shape = tuple(len(ax) for ax in self.axes)
        for name in ("f_values", "F_values"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValidationError(f"{name} shape {arr.shape} != grid shape {shape}")
        if self.support_mask.shape != shape:
            raise ValidationError("support_mask shape mismatch")
        for arr in (*self.axes, self.f_values, self.F_values):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("density grid axes and values must be finite")
        if np.any(self.f_values[self.support_mask] < 0):
            raise ValidationError("negative density on support after clipping")

    @property
    def n_dims(self) -> int:
        return len(self.axes)

    def cell_masses(self) -> np.ndarray:
        """Per-cell trapezoid mass, with every out-of-support node counted as 0."""
        corners = np.where(self.support_mask, self.f_values, 0.0)
        for d in range(self.n_dims):
            lo, hi = ((slice(None),) * d + (s,) for s in (slice(0, -1), slice(1, None)))
            corners = 0.5 * (corners[lo] + corners[hi])
        return corners * functools.reduce(np.multiply, np.ix_(*map(np.diff, self.axes)))

    def cumulative_from_density(self) -> np.ndarray:
        """Cumulative trapezoid cell mass below each node.

        Interpolated multilinearly, it is the exact CDF of the density that is
        uniform within each cell; the round-trip quadrature integrates it.
        """
        cum = self.cell_masses()
        for d in range(self.n_dims):
            cum = np.cumsum(cum, axis=d)
        out = np.zeros(self.f_values.shape)
        out[(slice(1, None),) * self.n_dims] = cum
        return out

    def export_csv(self, path) -> None:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        write_csv_table(
            path,
            [f"v_{j + 1}" for j in range(self.n_dims)] + ["f", "F", "in_support"],
            [m.ravel() for m in mesh]
            + [self.f_values.ravel(), self.F_values.ravel(), self.support_mask.ravel()],
        )


def make_v_grid(omegas, n: int) -> tuple:
    """Axes for the v lattice from the attained omega ranges.

    Log-spaced per axis when axis_is_log holds for the attained range,
    linear otherwise.
    """
    if n < 2:
        raise ValidationError(f"a v axis needs at least 2 nodes, got {n}")
    axes = []
    for j, om in enumerate(omegas):
        lo, hi = float(om.lattice_values.min()), float(om.lattice_values.max())
        if not hi > lo:
            raise ValidationError(f"degenerate v range for axis {j}")
        axes.append((np.geomspace if axis_is_log(lo, hi) else np.linspace)(lo, hi, n))
    return tuple(axes)


_N_REFERENCES = 64  # reference a_0 targets spread over the a_0 axis
_TOL_NEG_REL = 1e-4  # negative density clipped to 0 down to this fraction of max f


def _interior_a0_candidates(valid: np.ndarray):
    """Reference a_0 values among the usable a_0 nodes and a mask of the exact nodes.

    Exact grid nodes come first, then off-node values spread log-uniformly on
    wide positive axes; each group is ordered middle-out.

    Any a_0 works as the mapping reference. valid holds the a_0 nodes the
    caller may use: reconstruct_density drops one at each end when it
    differentiates along a_0, so that its partials are central differences
    (see fd_stencil). Exact nodes are preferred because interpolation along
    a_0 is node-exact there, but each reference only reaches a bounded v-window per omega, so
    the off-node spread fills coverage gaps between sparse nodes.
    """
    lo, hi = float(valid[0]), float(valid[-1])
    log = axis_is_log(lo, hi)
    targets = (np.geomspace if log else np.linspace)(lo, hi, _N_REFERENCES)
    scale = np.log if log else np.asarray  # distances in ln a_0 on log axes
    pick = np.abs(scale(valid)[None, :] - scale(targets)[:, None]).argmin(axis=1)

    def middle_out(arr):
        k = len(arr)
        return arr[np.argsort(np.abs(np.arange(k) - k // 2), kind="stable")]

    nodes = middle_out(valid[np.unique(pick)])
    cands = np.concatenate([nodes, middle_out(targets)])
    return cands, np.arange(len(cands)) < len(nodes)


def _level_map(omegas, v_axes, references, bounds) -> list:
    """b_j(v, a_0) for every level on v_axes[j] and every reference a_0.

    Entry [j][c, i] is the a_j at which omega_j attains v_axes[j][i] with
    a_0 = references[c], from one batched inversion per axis; NaN where the
    level is not attained or the a_j falls outside bounds[j] = (lo, hi).
    """
    a0 = np.asarray(references, dtype=float)[:, None]
    out = []
    for om, v, (lo, hi) in zip(omegas, v_axes, bounds):
        v = np.asarray(v, dtype=float)
        b = om.invert_aj_many(np.broadcast_to(v, (len(a0), len(v))), a0)
        out.append(np.where((b >= lo) & (b <= hi), b, np.nan))
    return out


def _deepest_reference(depth, on_node):
    """Per v-node, the first deepest reference and whether any is valid.

    depth[j][c, i] is how deep reference c maps level i of axis j inside its
    bounds, in [0, 0.5], or -1 where it misses. A node's score under c is its
    shallowest axis; a valid node reference (on_node[c]) beats every off-node
    one. The references are folded in order with a strict >, so the first of
    equal keys wins as argmax does, and no (n_ref,) + lattice array is formed.
    A key is negative exactly where its score is, so the best key says
    whether any reference is valid.
    """
    shape = tuple(d.shape[1] for d in depth)
    planes = [
        d.reshape((len(d),) + tuple(n if i == j else 1 for i, n in enumerate(shape)))
        for j, d in enumerate(depth)
    ]
    key = np.empty(shape)
    best = np.full(shape, -np.inf)
    first = np.zeros(shape, dtype=np.intp)
    for c, node in enumerate(on_node):
        np.copyto(key, planes[0][c])
        for p in planes[1:]:
            np.minimum(key, p[c], out=key)
        if node:
            np.add(key, 2.0, out=key, where=key >= 0.0)  # depth spans [0, 0.5]
        better = key > best
        np.copyto(best, key, where=better)
        np.copyto(first, c, where=better)
    return first, best >= 0.0


def reconstruct_density(field: ProbabilityField, omegas, v_grid, via: int = 0) -> DensityGrid:
    """Density grid over v_grid (tuple of axes) from the field and omega maps.

    f = sign * [partial of q_via over every a_i with i != via]
            / prod_{j=1..J} (d omega_j/d a_0 if j == via else d omega_j/d a_j),

    with sign -1 when via > 0; via = 0 differentiates q_0 over a_1..a_J.
    Each v-node is mapped to a-space at the innermost reference a_0 where
    every inversion lands at least one node inside the hull on each
    differentiated axis, preferring exact grid nodes over off-node references
    whenever one is usable; nodes with no such reference are masked out of
    support. Negative values down to -_TOL_NEG_REL * max f are clipped to 0
    and counted; anything lower aborts.
    """
    J = len(omegas)
    if field.grid.dims != J + 1:
        raise ValidationError("field dimensionality must be J + 1")
    if not 0 <= via <= J:
        raise ValidationError(f"via must name an alternative 0..{J}, got {via!r}")
    # one node of clearance on every differentiated axis keeps the partials
    # central differences; a_via is only interpolated
    axes = field.grid.axes()
    inner = [ax[int(k != via) : len(ax) - int(k != via)] for k, ax in enumerate(axes)]
    candidates, node_mask = _interior_a0_candidates(inner[0])
    bounds = [(ax[0], ax[-1]) for ax in inner[1:]]
    inv = _level_map(omegas, v_grid, candidates, bounds)  # inv[j]: (n_cand, n_v_j)
    shape = tuple(len(ax) for ax in v_grid)

    # how deep every inverted coordinate sits inside its axis, -1 where it misses
    depth = []
    for j, (lo, hi) in enumerate(bounds):
        b = inv[j]
        if axis_is_log(lo, hi):
            m = np.minimum(np.log(b / lo), np.log(hi / b)) / np.log(hi / lo)
        else:
            m = np.minimum(b - lo, hi - b) / (hi - lo)
        depth.append(np.where(np.isnan(m), -1.0, m))
    first, support = _deepest_reference(depth, node_mask)
    if not support.any():
        raise SupportError("no v-node maps into the field interior")

    # every supported node's a-point, at its chosen reference, in one batch
    nodes = np.nonzero(support)
    ref = first[support]
    a0 = candidates[ref]
    pts = np.column_stack([a0] + [inv[j][ref, nodes[j]] for j in range(J)])
    num = field.fd_stencil(via, tuple(i for i in range(J + 1) if i != via), pts)
    d_om = np.ones(len(pts))
    for j, om in enumerate(omegas, start=1):
        slope = om.d_a0 if j == via else om.d_aj
        d_om *= np.asarray(slope(pts[:, j], a0))
    f_node = (-num if via else num) / d_om

    tol_neg = _TOL_NEG_REL * max(float(np.nanmax(f_node)), 0.0)
    min_raw = float(np.nanmin(f_node))
    if min_raw < -tol_neg:
        raise NegativeDensityError(
            f"density {min_raw:.3e} below -tol_neg = {-tol_neg:.3e}"
        )
    f_vals = np.zeros(shape)
    f_vals[nodes] = np.clip(f_node, 0.0, None)
    F_vals = np.zeros(shape)
    F_vals[nodes] = field.fd_stencil(0, (), pts)

    return DensityGrid(
        axes=tuple(np.asarray(ax, dtype=float) for ax in v_grid),
        f_values=f_vals,
        F_values=F_vals,
        support_mask=support,
        clipped_nodes=int(np.sum(f_node < 0)),
        min_raw_density=min_raw,
    )


def check_normalization(d: DensityGrid) -> MassReport:
    """Trapezoid mass over the support plus the top-corner CDF cross-estimate."""
    mass = float(d.cell_masses().sum())
    top = tuple(-1 for _ in d.axes)
    corner = float(d.F_values[top]) if d.support_mask[top] else float("nan")
    if np.isnan(corner):
        # fall back to the highest in-support node on the diagonal order
        in_sup = np.argwhere(d.support_mask)
        if len(in_sup):
            corner = float(d.F_values[tuple(in_sup[np.argmax(in_sup.sum(axis=1))])])
    return MassReport(
        mass=mass,
        corner_cdf=corner,
        support_fraction=float(d.support_mask.mean()),
        clipped_nodes=d.clipped_nodes,
        min_raw_density=d.min_raw_density,
    )
