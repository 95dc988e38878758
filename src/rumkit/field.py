"""Tabulated choice probabilities on rectangular grids.

Provides the one multilinear kernel, one finite-difference stencil (_difference,
np.gradient's edge_order=2 rule, which node_mixed_partial alone writes in place
on the lattice and fd_stencil interpolates with that kernel),
monotonicity/cross-partial shape checks, the field CSV wire format with its
.npz sidecar, the plain table and .npz writers behind the other artifacts, and
the JSON form of the result records. Both CSV writers format each distinct
number of a block once when at most half its entries are distinct.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import zipfile
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, ValidationError

_MONO_TOL = 0.0  # largest step against the required direction along a grid line
_CROSS_TOL = 1e-6  # largest wrong-signed alternating cross-partial at an interior node
# entries per slab of the softmax, the row check and the Monte Carlo chunks:
# a few slab-sized work arrays stay near a 2 MiB L2 cache
_CHUNK_ENTRIES = 2**16


def axis0_slabs(shape: tuple[int, ...]) -> list[slice]:
    """Slices of axis 0 into slabs of about _CHUNK_ENTRIES entries, one row or more."""
    rows = max(1, _CHUNK_ENTRIES // math.prod(shape[1:]))
    return [slice(s, s + rows) for s in range(0, shape[0], rows)]


def multilinear(table, axes, points, lead):
    """table interpolated multilinearly at points, the one such kernel.

    table's axes are one per lead entry (an index array), one per axes entry
    (increasing coordinates, interpolated at the matching points array), then
    any trailing axes, carried whole; lead and points broadcast together.
    Points are clamped to their axes (so +/-inf reads the last/first node)
    and searchsorted picks the cell. Each of the 2^d corners is gathered by
    one flat index into the raveled table and summed in itertools.product
    order, weights multiplied in axis order: RegularGridInterpolator's sum.
    """
    inner = table.shape[: len(lead) + len(axes)]
    strides = [math.prod(inner[k + 1 :]) for k in range(len(inner))]
    rows = table.reshape((-1,) + table.shape[len(inner) :])  # copies a strided view
    at = sum(np.asarray(i) * s for i, s in zip(lead, strides))
    sides = []
    for ax, x, s in zip(axes, points, strides[len(lead) :]):
        x = np.clip(x, ax[0], ax[-1])
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        at = at + i * s
        frac = (x - ax[i]) / (ax[i + 1] - ax[i])
        sides.append(((1.0 - frac, 0), (frac, s)))
    trail = (...,) + (None,) * (rows.ndim - 1)  # weights broadcast over trailing axes
    out = 0.0
    for corner in itertools.product(*sides):
        weight = np.asarray(math.prod((w for w, _ in corner), start=1.0))
        out = out + weight[trail] * rows.take(at + sum(o for _, o in corner), axis=0)
    return out


def _difference(arr, h, axis, out):
    """np.gradient(arr, h, axis=axis, edge_order=2) written into out, bit for
    bit: the same operations in the same order, with plane-sized temporaries."""
    a, o = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    for edge, (f0, f1, f2), (wa, wb, wc) in ((o[:1], a[:3], (-1.5, 2.0, -0.5)),
                                              (o[-1:], a[-3:], (0.5, -2.0, 1.5))):
        np.multiply(wa / h, f0, out=edge)
        edge += (wb / h) * f1
        edge += (wc / h) * f2
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular lattice; axis 0 is the outside-option coordinate a_0.
    Every node coordinate comes from axes(); spacing, the stencil's step, is
    read by ProbabilityField.node_mixed_partial alone."""

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
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("grid bounds must be finite")
            if not lo < hi:
                raise ValidationError("grid bounds must be strictly increasing")
            if n < 5:
                raise ValidationError("grids need at least 5 nodes per axis")

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

    def contains(self, a):
        """Hull membership of one point (dims,) or, per point, of a batch (n, dims)."""
        a = np.asarray(a, dtype=float)
        return np.all((a >= np.array(self.lower)) & (a <= np.array(self.upper)), axis=-1)


def check_probability_rows(values) -> None:
    """Raise ValidationError unless every row along the last axis is a
    probability vector: finite entries in [0, 1] summing to 1 within 1e-9.
    NaN and ±inf propagate into the min/max pair; rows sum plane by plane."""
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("field entries must be finite")
    if lo < -1e-12 or hi > 1 + 1e-12:
        raise ValidationError("field entries must lie in [0, 1]")
    worst = 0.0
    for s in axis0_slabs(values.shape[:-1]):
        sums = sum(np.moveaxis(values[s], -1, 0))  # planes added in k order
        worst = max(worst, sums.max() - 1.0, 1.0 - sums.min())
    if worst > 1e-9:
        raise ValidationError("field rows must sum to 1")


@dataclass
class ProbabilityField:
    """Dense table of probability vectors on a GridSpec, immutable after build."""

    grid: GridSpec
    values: np.ndarray  # shape grid.counts + (J+1,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.counts + (self.grid.dims,)
        if self.values.shape != expect:
            raise GridMismatchError(
                f"values shape {self.values.shape} != expected {expect}"
            )
        check_probability_rows(self.values)
        self.values.setflags(write=False)
        self._lattice_partials = {}  # fd_stencil's node_mixed_partial per (r, axes)

    @property
    def n_alternatives(self) -> int:
        return self.grid.dims

    @cached_property
    def node_gradients(self) -> np.ndarray:
        """d q_j / d a_k on nodes, shape (J+1, J+1) + counts; O(h^2) everywhere."""
        out = np.empty((self.n_alternatives, self.n_alternatives) + self.grid.counts)
        for j in range(self.n_alternatives):
            for k in range(self.n_alternatives):
                self.node_mixed_partial(j, (k,), out[j, k])
        out.setflags(write=False)  # fd_stencil interpolates views of it
        return out

    def node_mixed_partial(self, r: int, axes: tuple[int, ...], out=None) -> np.ndarray:
        """Nested central differences of q_r on the whole lattice (edges one-sided).

        The one lattice partial: the nested np.gradient(..., edge_order=2)
        calls, bit for bit, into out (a new lattice when None). A first partial
        is a read-only view of node_gradients once something built it, else one
        step on the whole lattice. Longer steps run slab by slab along axis 0
        through axis0_slabs-sized buffers when none of them differentiates it;
        else the first runs on the whole lattice into the output and the others
        slab by slab along its axis.
        """
        if len(axes) == 1 and "node_gradients" in self.__dict__:
            return self.node_gradients[r, axes[0]]
        h, out = self.grid.spacing, np.empty(self.grid.counts) if out is None else out
        src, steps, lead = self.values[..., r], list(axes), 0
        if len(axes) == 1 or lead in axes:
            lead = steps.pop(0)
            src = _difference(src, h[lead], lead, out)
            if not steps:
                return out
        src_s, out_s = np.moveaxis(src, lead, 0), np.moveaxis(out, lead, 0)
        slabs = axis0_slabs(out_s.shape)
        rows = slabs[0].stop - slabs[0].start
        buffers = [np.empty((rows,) + out_s.shape[1:]) for _ in steps[1:3]]
        for s in slabs:
            # a slab of the output is copied before the step that overwrites it
            arr = src_s[s].copy() if src is out else src_s[s]
            for i, k in enumerate(steps):
                dst = out_s[s] if i == len(steps) - 1 else buffers[i % 2][: len(arr)]
                arr = _difference(arr, h[k], k + (k < lead), dst)
        return out

    @cached_property
    def gradient_scale(self) -> float:
        """Median |d q_j / d a_k| over every node and (j, k): the derivative scale.

        np.median's value, by a radix selection: non-negative floats order as
        their bit patterns do as unsigned integers, so each middle rank is
        narrowed 16 bits a round. The high 32-bit words are kept (half a
        float64 copy of the planes) and serve the first two rounds. The full
        keys come from the planes that hold the chosen high word, differenced
        again unless node_gradients is built: sorted when at most `step` of
        them share it, else narrowed by two more rounds. Beyond the copy the
        work arrays are one plane and `step`-sized pieces, however many
        magnitudes tie.
        """
        n, step = self.n_alternatives, _CHUNK_ENTRIES // 2
        # a lattice to difference into, unless the planes are views of the block
        plane = None if "node_gradients" in self.__dict__ else np.empty(self.grid.counts)

        def signed(i):  # plane i of d q_j / d a_k as bit patterns, sign bit included
            return self.node_mixed_partial(i // n, (i % n,), plane).reshape(-1).view(np.uint64)

        high = np.empty((n * n, math.prod(self.grid.counts)), dtype=np.uint32)
        for i in range(n * n):
            bits = signed(i)
            np.right_shift(bits, 32, out=high[i], casting="same_kind")
            high[i] &= 0x7FFFFFFF  # the high word of the magnitude
            if high[i].max() >= 0x7FF00000 and np.isnan(bits.view(np.float64)).any():
                return float("nan")  # as np.median gives

        def pieces(prefix, done):  # the keys whose top `done` bits are prefix
            if done < 32:  # their high words
                flat = high.reshape(-1)
                chunks = (flat[s : s + step] for s in range(0, flat.size, step))
            else:
                word = prefix >> (done - 32)
                chunks = (
                    k[s : s + step] & 0x7FFFFFFFFFFFFFFF
                    for i in range(n * n) if (high[i] == word).any()
                    for k in [signed(i)] for s in range(0, k.size, step)
                )
            for c in chunks:
                yield c[c >> (32 - done % 32) == prefix] if done else c

        digit = np.empty(step, dtype=np.intp)

        def split(ranks, prefix, done):  # (digit, first rank, end rank) per bin hit
            cum = np.zeros(1 << 16, dtype=np.intp)
            for c in pieces(prefix, done):
                d = np.right_shift(c, 16 - done % 32, out=digit[: c.size], casting="unsafe")
                d &= 0xFFFF
                counts = np.bincount(d)
                cum[: counts.size] += counts
                del counts  # before the next piece is cut
            np.cumsum(cum, out=cum)
            hit = dict.fromkeys(np.searchsorted(cum, ranks, side="right").tolist())
            return [(d, int(cum[d - 1]) if d else 0, int(cum[d])) for d in hit]

        # each entry: ranks (sorted, global), keys below its bin, the bin's
        # top `done` bits, done, and how many keys it holds
        mid = sorted({(high.size - 1) // 2, high.size // 2})
        at, todo = {}, [(mid, 0, 0, 0, high.size)]
        while todo:
            ranks, below, prefix, done, size = todo.pop()
            if done == 64:
                at.update((r, prefix) for r in ranks)
            elif done >= 32 and size <= step:
                found = np.sort(np.concatenate(list(pieces(prefix, done))))
                at.update((r, int(found[r - below])) for r in ranks)
            else:
                for d, lo, hi in split([r - below for r in ranks], prefix, done):
                    inside = [r for r in ranks if lo <= r - below < hi]
                    todo.append((inside, below + lo, prefix << 16 | d, done + 16, hi - lo))
        return float(np.mean(np.array([at[r] for r in mid], dtype=np.uint64).view(np.float64)))

    def _hull_points(self, points) -> np.ndarray:
        """(n, dims) float array of the points; raises if any lies outside the hull."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        outside = ~self.grid.contains(pts)
        if outside.any():
            bad = pts[np.argmax(outside)]
            raise DomainError(f"point {bad.tolist()} outside grid hull")
        return pts

    def interpolate(self, a) -> np.ndarray:
        """Multilinear interpolation of the probability vector, renormalized to sum 1.

        a is one point (dims,) or a batch (n, dims); the result has the same
        leading shape with the J+1 probabilities last.
        """
        a = np.asarray(a, dtype=float)
        q = multilinear(self.values, self.grid.axes(), self._hull_points(a).T, ())
        q = q / q.sum(axis=-1, keepdims=True)
        return q if a.ndim > 1 else q[0]

    def fd_stencil(self, r: int, axes: tuple[int, ...], points) -> np.ndarray:
        """Partial of q_r over distinct axes at (n, dims) points; m = 0 gives q_r.

        The multilinear interpolant of the lattice partial: the values (m = 0)
        or node_mixed_partial, cached per (r, axes) (m >= 1; a first partial
        is a view of node_gradients once something built it).
        At least one node inside the hull on every differentiated axis it
        equals the central difference of the interpolated q_r with step equal
        to the spacing; nearer the edge it interpolates the one-sided edge
        partials.
        """
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValidationError("stencil axes must be distinct")
        pts = self._hull_points(points).T
        if not axes:  # every alternative's row is gathered at once
            return multilinear(self.values, self.grid.axes(), pts, ())[:, r]
        if (r, axes) not in self._lattice_partials:
            self._lattice_partials[r, axes] = self.node_mixed_partial(r, axes)
        return multilinear(self._lattice_partials[r, axes], self.grid.axes(), pts, ())

    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(1, n - 1) for n in self.grid.counts)

    @cached_property
    def _content_digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.grid.lower, self.grid.upper, self.grid.counts)).encode())
        h.update(np.ascontiguousarray(self.values))
        return h.hexdigest()[:16]

    def content_hash(self) -> str:
        """Digest of the grid and values, computed once (values are read-only)."""
        return self._content_digest


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
        return record_dict(self, "passed")


def check_shape(field: ProbabilityField) -> ShapeReport:
    """Monotonicity along every grid line, boundary attainment, and the
    alternating cross-partial sign condition at interior nodes.

    Violations are report content, never exceptions.
    """
    nalt = field.n_alternatives
    J = nalt - 1
    monotone_ok = np.zeros((nalt, nalt), dtype=bool)
    worst_mono = {"magnitude": 0.0, "alternative": None, "axis": None, "index": None}
    for j in range(nalt):
        qj = field.values[..., j]
        for k in range(nalt):
            d = np.diff(qj, axis=k)
            want_positive = k == j
            viol = -d if want_positive else d
            worst = float(viol.max())
            monotone_ok[j, k] = worst <= _MONO_TOL
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
        cross_ok[r] = worst >= -_CROSS_TOL
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
        mono_tol=_MONO_TOL,
        cross_tol=_CROSS_TOL,
    )


def subsample(field: ProbabilityField, strides) -> ProbabilityField:
    """Every stride-th node per axis: a coarser field on a valid sub-lattice.

    Keeps the sieve's fit affordable on very large fields; the sub-lattice
    keeps the lower corner and ends on a node of the parent. Unit strides
    return the field itself (fields are immutable), its caches included.
    """
    strides = tuple(int(s) for s in strides)
    if len(strides) != field.grid.dims or any(s < 1 for s in strides):
        raise ValidationError("one positive stride per axis required")
    counts = tuple(
        (n - 1) // s + 1 for n, s in zip(field.grid.counts, strides)
    )
    if any(c < 5 for c in counts):
        raise ValidationError("subsampled field would drop below 5 nodes per axis")
    if all(s == 1 for s in strides):
        return field
    upper = tuple(ax[(c - 1) * s] for ax, c, s in zip(field.grid.axes(), counts, strides))
    grid = GridSpec(lower=field.grid.lower, upper=upper, counts=counts)
    sl = tuple(slice(0, (c - 1) * s + 1, s) for c, s in zip(counts, strides))
    return ProbabilityField(grid=grid, values=field.values[sl].copy())


# -- JSON and CSV wire formats --------------------------------------------


def record_dict(record, *extras: str) -> dict:
    """A result record as JSON-ready data: its dataclass fields, then the
    named computed properties, with every array turned into a list."""
    d = asdict(record)
    d.update((name, getattr(record, name)) for name in extras)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}


def _field_header(nalt: int) -> list[str]:
    return [f"a_{k}" for k in range(nalt)] + [f"q_{j}" for j in range(nalt)]


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _distinct_strings(values, fmt):
    """fmt of every entry of the float array values, as an object array of
    its shape, calling fmt once per distinct bit pattern (so -0.0 and 0.0
    keep their own strings); None when more than half the entries are
    distinct. One argsort of the patterns ranks every entry among them.
    """
    keys = np.ascontiguousarray(values, dtype=float).view(np.uint64).reshape(-1)
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)  # where a distinct pattern starts
    new[0], new[1:] = True, ordered[1:] != ordered[:-1]
    rank = np.cumsum(new, dtype=np.intp)
    if 2 * rank[-1] > keys.size:
        return None
    rank -= 1
    index = np.empty_like(order)
    index[order] = rank
    del order, rank  # before the strings exist: this sets the writer's peak
    table = np.array(list(map(fmt, ordered[new].view(np.float64).tolist())), dtype=object)
    return table[index].reshape(values.shape)


def write_field_csv(field: ProbabilityField, path) -> None:
    """Header a_0..a_J,q_0..q_J; one row per node, lexicographic node order.

    Every number is written as its shortest round-trip repr and every line
    ends in CRLF (the bytes csv.writer produces). Coordinates are formatted
    once per axis, probabilities once per distinct value of an axis0_slabs
    block that repeats values (_distinct_strings), else entry by entry; rows
    are written one axis-0 slab at a time.

    Then the sidecar <path>.npz replaces any earlier one: the SHA-256 of the
    bytes just written, the grid bounds and the values, from which
    read_field_csv builds the field it would parse from those bytes. It is a
    cache bound to those bytes and always safe to delete.
    """
    nalt = field.n_alternatives
    coords = [list(map(repr, ax.tolist())) for ax in field.grid.axes()]
    tails = ["".join(map(",".__add__, t)) for t in itertools.product(*coords[1:])]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def emit(text):
            data = text.encode()
            digest.update(data)
            fh.write(data)

        emit(",".join(_field_header(nalt)) + "\r\n")
        for s in axis0_slabs(field.values.shape):
            block = field.values[s]
            strings = _distinct_strings(block, repr)
            for i, a0 in enumerate(coords[0][s]):
                if strings is None:
                    probs = [map(repr, col) for col in block[i].reshape(-1, nalt).T.tolist()]
                else:
                    probs = strings[i].reshape(-1, nalt).T
                rows = map(",".join, zip(map(a0.__add__, tails), *probs))
                emit("\r\n".join(rows) + "\r\n")
    write_npz(
        _sidecar_path(path),
        {
            "sha256": np.array(digest.hexdigest()),
            "lower": np.array(field.grid.lower),
            "upper": np.array(field.grid.upper),
            "values": field.values,
        },
    )


def write_npz(path, arrays: dict) -> None:
    """An .npz archive of named arrays, none of them pickled, whose bytes
    depend only on the arrays: every member carries the same fixed zip
    timestamp. Written to <path>.tmp, then moved over path.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            for name, arr in arrays.items():
                with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, np.asarray(arr), allow_pickle=False)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv_table(path, names, columns) -> None:
    """Write equal-length columns under a header of names, each number as %.12g.

    The bytes np.savetxt writes for the column-stacked floats (a bool column
    reads 1 / 0): cells joined by commas, each line ended by a newline. The
    rows are converted and written one axis0_slabs((n,)) chunk at a time,
    which bounds the memory. A chunk's column that repeats values formats
    each distinct value once (_distinct_strings); a row template the others.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} header names for {len(columns)} columns")
    cols = [np.asarray(col, dtype=float) for col in columns]
    n = len(cols[0]) if cols else 0
    if any(len(col) != n for col in cols):
        raise ValueError("columns differ in length")
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for s in axis0_slabs((n,)):
            chunk, row = [], []
            for col in cols:
                part = col[s]
                strings = _distinct_strings(part, "%.12g".__mod__)
                chunk.append(part.tolist() if strings is None else strings.tolist())
                row.append("%.12g" if strings is None else "%s")
            if "%.12g" in row:  # one template formats the floats, places the strings
                fh.write("".join(map((",".join(row) + "\n").__mod__, zip(*chunk))))
            else:  # every cell is a string: joining them is twice as fast as "%s"
                fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def _sidecar_field(path):
    """The field cached in the sidecar of a field CSV, or None.

    None unless the sidecar exists, loads with allow_pickle=False, records the
    SHA-256 of the CSV's current bytes, holds float64 lower and upper bounds
    of shape (values.ndim - 1,) and float64 values, and GridSpec and
    ProbabilityField accept them. Only reads files.
    """
    sidecar = _sidecar_path(path)
    if not os.path.isfile(sidecar):
        return None
    try:
        with open(sidecar, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["sha256"]) != file_sha256(path):
                return None
            lower, upper, values = npz["lower"], npz["upper"], npz["values"]
    except (OSError, ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile):
        # TypeError: a plain .npy array is no context manager
        return None
    if any(a.dtype != np.float64 for a in (lower, upper, values)) or not (
        lower.shape == upper.shape == (values.ndim - 1,)
    ):
        return None
    try:
        grid = GridSpec(tuple(lower), tuple(upper), values.shape[:-1])
        return ProbabilityField(grid, values)
    except ValidationError:
        return None


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Header names and float body of a comma-separated table.

    Blank lines are skipped and LF or CRLF line endings both read. An empty
    file, a header without rows, a non-numeric or missing cell, a ragged row,
    a body whose width differs from the header, or a non-finite entry raises
    ValidationError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        has_rows = any(line.strip() for line in fh)
    if header is None:
        raise ValidationError(f"CSV file {path} is empty")
    if not has_rows:
        raise ValidationError(f"CSV file {path} has a header but no data rows")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise ValidationError(f"malformed CSV {path}: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValidationError(
            f"CSV {path} has {data.shape[1]} data columns but {len(header)} header names"
        )
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"CSV {path} has non-finite entries")
    return header, data


def read_field_csv(path) -> ProbabilityField:
    """Read a field CSV, validating that the rows form a complete uniform lattice.

    Rows may come in any order. A CSV that write_field_csv wrote and nobody
    changed since reads from its sidecar instead, with the same result.
    """
    cached = _sidecar_field(path)
    if cached is not None:
        return cached
    header, data = read_csv_table(path)
    n_cols = len(header)
    if n_cols % 2 != 0:
        raise ValidationError("field CSV must have equal coordinate and probability columns")
    nalt = n_cols // 2
    if header != _field_header(nalt):
        raise ValidationError(f"unexpected field CSV header {header!r}")
    coords = data[:, :nalt]
    probs = data[:, nalt:]
    axis_vals = [np.unique(coords[:, k]) for k in range(nalt)]
    counts = tuple(len(v) for v in axis_vals)
    grid = GridSpec(
        lower=tuple(v[0] for v in axis_vals),
        upper=tuple(v[-1] for v in axis_vals),
        counts=counts,
    )
    for k, (vals, ax) in enumerate(zip(axis_vals, grid.axes())):
        if np.max(np.abs(vals - ax)) > 1e-8 * max(1.0, np.abs(vals).max()):
            raise GridMismatchError(f"axis {k} of field CSV is not uniformly spaced")
    if int(np.prod(counts)) != data.shape[0]:
        raise GridMismatchError(
            f"field CSV rows ({data.shape[0]}) do not fill the {counts} lattice"
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
    return ProbabilityField(grid=grid, values=values)
