"""Tabulated choice probabilities on rectangular grids.

Provides multilinear interpolation, central finite-difference first and mixed
partial derivatives, monotonicity/cross-partial shape checks, and the field
CSV wire format.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import ExtrapolationError, GridMismatchError, ValidationError

_RENORM_REPORT = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular lattice; axis 0 is the outside-option coordinate a_0."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if not (len(self.lower) == len(self.upper) == len(self.counts)):
            raise ValidationError("grid axis descriptions must have equal length")
        for lo, hi, n in zip(self.lower, self.upper, self.counts):
            if not lo < hi:
                raise ValidationError("grid bounds must be strictly increasing")
            if n < 5:
                raise ValidationError("grids need at least 5 nodes per axis")

    @property
    def n_axes(self) -> int:
        return len(self.counts)

    @property
    def dims(self) -> int:
        return len(self.counts)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.counts)
        )

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lower, self.upper, self.counts)
        ]

    def contains(self, a) -> bool:
        a = np.asarray(a, dtype=float)
        return bool(
            np.all(a >= np.array(self.lower)) and np.all(a <= np.array(self.upper))
        )


@dataclass
class ProbabilityField:
    """Dense table of probability vectors on a GridSpec, immutable after build."""

    grid: GridSpec
    values: np.ndarray  # shape grid.counts + (J+1,)
    provenance: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.counts + (self.grid.n_axes,)
        if self.values.shape != expect:
            raise GridMismatchError(
                f"values shape {self.values.shape} != expected {expect}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("field entries must be finite")
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise ValidationError("field entries must lie in [0, 1]")
        sums = self.values.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValidationError("field rows must sum to 1")
        self.values.setflags(write=False)

    @property
    def n_alternatives(self) -> int:
        return self.grid.n_axes

    @cached_property
    def _interpolators(self) -> list[RegularGridInterpolator]:
        axes = self.grid.axes()
        return [
            RegularGridInterpolator(axes, self.values[..., j], bounds_error=True)
            for j in range(self.n_alternatives)
        ]

    @cached_property
    def node_gradients(self) -> np.ndarray:
        """d q_j / d a_k on nodes, shape (J+1, J+1) + counts; O(h^2) everywhere."""
        axes = self.grid.axes()
        out = np.empty((self.n_alternatives, self.n_alternatives) + self.grid.counts)
        for j in range(self.n_alternatives):
            for k in range(self.n_alternatives):
                out[j, k] = np.gradient(
                    self.values[..., j], axes[k], axis=k, edge_order=2
                )
        return out

    def _raw_interp(self, j: int, pts: np.ndarray) -> np.ndarray:
        try:
            return self._interpolators[j](pts)
        except ValueError as exc:
            raise ExtrapolationError(f"point outside grid hull: {exc}") from exc

    def interpolate(self, a, return_residual: bool = False):
        """Multilinear interpolation of the probability vector, renormalized to sum 1."""
        a = np.asarray(a, dtype=float)
        if not self.grid.contains(a):
            raise ExtrapolationError(f"point {a.tolist()} outside grid hull")
        q = np.array([float(self._raw_interp(j, a[None, :])[0]) for j in range(self.n_alternatives)])
        s = q.sum()
        residual = s - 1.0
        q = q / s
        if return_residual:
            return q, residual
        return q

    def partial_detail(self, j: int, k: int, a) -> tuple[float, bool]:
        """(dq_j/da_k at a, one_sided_flag); step equals the grid spacing on axis k."""
        a = np.asarray(a, dtype=float)
        if not self.grid.contains(a):
            raise ExtrapolationError(f"point {a.tolist()} outside grid hull")
        h = self.grid.spacing[k]
        lo, hi = self.grid.lower[k], self.grid.upper[k]
        one_sided = False
        if a[k] - lo >= h * (1 - 1e-12) and hi - a[k] >= h * (1 - 1e-12):
            p_hi = a.copy()
            p_lo = a.copy()
            p_hi[k] += h
            p_lo[k] -= h
            val = (self._raw_interp(j, p_hi[None])[0] - self._raw_interp(j, p_lo[None])[0]) / (
                2 * h
            )
        else:
            one_sided = True
            sign = 1.0 if a[k] - lo < h else -1.0
            p0, p1, p2 = a.copy(), a.copy(), a.copy()
            p1[k] += sign * h
            p2[k] += sign * 2 * h
            val = sign * (
                -3 * self._raw_interp(j, p0[None])[0]
                + 4 * self._raw_interp(j, p1[None])[0]
                - self._raw_interp(j, p2[None])[0]
            ) / (2 * h)
        return float(val), one_sided

    def partial(self, j: int, k: int, a) -> float:
        """Central finite difference of q_j along axis k (O(h^2) for smooth fields)."""
        return self.partial_detail(j, k, a)[0]

    def mixed_partial(self, r: int, axes: tuple[int, ...], a) -> float:
        """Nested central differences of q_r over distinct axes (2^m-point stencil)."""
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValidationError("mixed partial axes must be distinct")
        a = np.asarray(a, dtype=float)
        if not self.grid.contains(a):
            raise ExtrapolationError(f"point {a.tolist()} outside grid hull")
        for k in axes:
            h = self.grid.spacing[k]
            if a[k] - self.grid.lower[k] < h * (1 - 1e-12) or self.grid.upper[k] - a[k] < h * (
                1 - 1e-12
            ):
                raise ExtrapolationError(
                    f"point too close to the boundary along axis {k} for a central stencil"
                )
        m = len(axes)
        spacings = [self.grid.spacing[k] for k in axes]
        total = 0.0
        for signs in np.ndindex(*(2,) * m):
            p = a.copy()
            parity = 1.0
            for k, s, h in zip(axes, signs, spacings):
                off = 1.0 if s == 0 else -1.0
                parity *= off
                p[k] += off * h
            total += parity * float(self._raw_interp(r, p[None])[0])
        return total / float(np.prod([2 * h for h in spacings]))

    def node_mixed_partial(self, r: int, axes: tuple[int, ...]) -> np.ndarray:
        """Nested central differences of q_r on the whole lattice (edges one-sided)."""
        grid_axes = self.grid.axes()
        arr = np.array(self.values[..., r])
        for k in axes:
            arr = np.gradient(arr, grid_axes[k], axis=k, edge_order=2)
        return arr

    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(1, n - 1) for n in self.grid.counts)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.grid.lower, self.grid.upper, self.grid.counts)).encode())
        h.update(np.ascontiguousarray(self.values).tobytes())
        return h.hexdigest()[:16]


@dataclass
class ShapeReport:
    """Result of the monotonicity / limit-attainment / cross-partial sign checks."""

    monotone_ok: np.ndarray          # (J+1, J+1) bool, [j, axis]
    boundary_attainment: np.ndarray  # (J+1, 2): observed (min, max) of q_j
    cross_partial_sign_ok: np.ndarray  # (J+1,) bool
    worst_monotone_violation: dict
    worst_cross_partial: dict
    mono_tol: float
    cross_tol: float

    @property
    def passed(self) -> bool:
        return bool(self.monotone_ok.all() and self.cross_partial_sign_ok.all())

    def to_dict(self) -> dict:
        return {
            "monotone_ok": self.monotone_ok.tolist(),
            "boundary_attainment": self.boundary_attainment.tolist(),
            "cross_partial_sign_ok": self.cross_partial_sign_ok.tolist(),
            "worst_monotone_violation": self.worst_monotone_violation,
            "worst_cross_partial": self.worst_cross_partial,
            "mono_tol": self.mono_tol,
            "cross_tol": self.cross_tol,
            "passed": self.passed,
        }


def check_shape(
    field: ProbabilityField, mono_tol: float = 0.0, cross_tol: float = 1e-6
) -> ShapeReport:
    """Monotonicity along every grid line, boundary attainment, and the
    alternating cross-partial sign condition at interior nodes.

    Violations are report content, never exceptions.
    """
    nalt = field.n_alternatives
    J = nalt - 1
    counts = field.grid.counts
    monotone_ok = np.zeros((nalt, nalt), dtype=bool)
    worst_mono = {"magnitude": 0.0, "alternative": None, "axis": None, "index": None}
    for j in range(nalt):
        qj = field.values[..., j]
        for k in range(nalt):
            d = np.diff(qj, axis=k)
            want_positive = k == j
            viol = -d if want_positive else d
            worst = float(viol.max())
            monotone_ok[j, k] = worst <= mono_tol
            if worst > worst_mono["magnitude"]:
                idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
                worst_mono = {
                    "magnitude": worst,
                    "alternative": j,
                    "axis": k,
                    "index": [int(i) for i in idx],
                }
    attain = np.stack(
        [
            [field.values[..., j].min(), field.values[..., j].max()]
            for j in range(nalt)
        ]
    )
    cross_ok = np.zeros(nalt, dtype=bool)
    worst_cross = {"signed_value": np.inf, "alternative": None, "index": None}
    interior = field.interior_slices()
    sign = (-1.0) ** J
    for r in range(nalt):
        axes = tuple(k for k in range(nalt) if k != r)
        m = field.node_mixed_partial(r, axes)[interior]
        signed = sign * m
        worst = float(signed.min())
        cross_ok[r] = worst >= -cross_tol
        if worst < worst_cross["signed_value"]:
            idx = np.unravel_index(int(np.argmin(signed)), signed.shape)
            worst_cross = {
                "signed_value": worst,
                "alternative": r,
                "index": [int(i) + 1 for i in idx],
            }
    return ShapeReport(
        monotone_ok=monotone_ok,
        boundary_attainment=attain,
        cross_partial_sign_ok=cross_ok,
        worst_monotone_violation=worst_mono,
        worst_cross_partial=worst_cross,
        mono_tol=mono_tol,
        cross_tol=cross_tol,
    )


def subsample(field: ProbabilityField, strides) -> ProbabilityField:
    """Every stride-th node per axis: a coarser field on a valid sub-lattice.

    Used to keep node-wise derivative caches affordable on very large fields;
    the sub-lattice keeps the lower corner and stays uniformly spaced.
    """
    strides = tuple(int(s) for s in strides)
    if len(strides) != field.grid.dims or any(s < 1 for s in strides):
        raise ValidationError("one positive stride per axis required")
    counts = tuple(
        (n - 1) // s + 1 for n, s in zip(field.grid.counts, strides)
    )
    if any(c < 5 for c in counts):
        raise ValidationError("subsampled field would drop below 5 nodes per axis")
    spacing = field.grid.spacing
    upper = tuple(
        lo + (c - 1) * s * h
        for lo, c, s, h in zip(field.grid.lower, counts, strides, spacing)
    )
    grid = GridSpec(lower=field.grid.lower, upper=upper, counts=counts)
    sl = tuple(slice(0, (c - 1) * s + 1, s) for c, s in zip(counts, strides))
    return ProbabilityField(
        grid=grid,
        values=field.values[sl].copy(),
        provenance=f"subsample:{strides}:{field.provenance}",
    )


# -- CSV wire format ------------------------------------------------------


def write_field_csv(field: ProbabilityField, path) -> None:
    """Header a_0..a_J,q_0..q_J; one row per node, lexicographic node order."""
    nalt = field.n_alternatives
    axes = field.grid.axes()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"a_{k}" for k in range(nalt)] + [f"q_{j}" for j in range(nalt)])
        for idx in np.ndindex(*field.grid.counts):
            coords = [repr(float(axes[k][i])) for k, i in enumerate(idx)]
            probs = [repr(float(v)) for v in field.values[idx]]
            w.writerow(coords + probs)


def read_field_csv(path) -> ProbabilityField:
    """Read a field CSV, validating that the rows form a complete uniform lattice."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    n_cols = len(header)
    if n_cols % 2 != 0:
        raise ValidationError("field CSV must have equal coordinate and probability columns")
    nalt = n_cols // 2
    expect = [f"a_{k}" for k in range(nalt)] + [f"q_{j}" for j in range(nalt)]
    if header != expect:
        raise ValidationError(f"unexpected field CSV header {header!r}")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValidationError("field CSV has non-finite entries")
    coords = data[:, :nalt]
    probs = data[:, nalt:]
    axis_vals = []
    for k in range(nalt):
        vals = np.unique(coords[:, k])
        if len(vals) >= 2:
            steps = np.diff(vals)
            if np.max(np.abs(steps - steps[0])) > 1e-8 * max(1.0, np.abs(vals).max()):
                raise GridMismatchError(f"axis {k} of field CSV is not uniformly spaced")
        axis_vals.append(vals)
    counts = tuple(len(v) for v in axis_vals)
    if int(np.prod(counts)) != data.shape[0]:
        raise GridMismatchError(
            f"field CSV rows ({data.shape[0]}) do not fill the {counts} lattice"
        )
    grid = GridSpec(
        lower=tuple(v[0] for v in axis_vals),
        upper=tuple(v[-1] for v in axis_vals),
        counts=counts,
    )
    # map rows into lattice positions, verifying completeness
    values = np.full(counts + (nalt,), np.nan)
    idx = []
    for k in range(nalt):
        pos = np.searchsorted(axis_vals[k], coords[:, k])
        pos = np.clip(pos, 0, counts[k] - 1)
        idx.append(pos)
    values[tuple(idx)] = probs
    if np.any(np.isnan(values)):
        raise GridMismatchError("field CSV is missing lattice nodes")
    return ProbabilityField(grid=grid, values=values, provenance=f"file:{path}")
