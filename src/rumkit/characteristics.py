"""Characteristic curves of the ratio PDE and the level functions they induce.

The first-order PDE  d_omega/d_a0 + t(a_j, a0) * d_omega/d_aj = 0  is solved
by integrating the characteristic ODE  da_j/da_0 = t(a_j, a_0)  with classical
fixed-step RK4. The level function omega(a_j, a_0) is parametrized by the
a_0-coordinate at which the characteristic through (a_0, a_j) crosses the
anchor line a_j = a_ref, so omega(a_ref, a_0) = a_0 and the recovered
heterogeneity variable carries the units of a_0. Utilities w(a_j, v) follow by
monotone inversion of omega in a_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CoverageError, DomainError, NumericalFailure, ValidationError
from .field import write_csv_table

_SPAN_GUARD = 200.0  # max integration span, in units of the a_0 domain width
_BOX_MARGIN = 0.2  # a_j box enlargement for the march, as a fraction of the a_j span
_INVERT_TOL = 1e-9  # bracket width at which an inversion stops
_INVERT_STEP_RTOL = 1e-12  # Newton step, relative to 1 + |x|, at which it stops
_INVERT_MAX_ITER = 100
CSV_NODES = 101  # nodes per axis of the omega and utility CSV exports


def axis_is_log(lo: float, hi: float) -> bool:
    """Whether an axis on [lo, hi] is treated in ln: positive and wider than a factor 20."""
    return lo > 0 and hi / lo > 20.0


def _log_march(domain) -> bool:
    """build_omega's march rule: log lattices and ln a_0 steps iff aj_lo > 0 and a_0 is log."""
    return domain[0][0] > 0 and axis_is_log(*domain[1])


def _invert_monotone_vec(ev, fixed, targets: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Safeguarded Newton: solve ev(x, fixed, 0) = targets elementwise on the knots' span.

    ev(x, fixed, d) returns the d-th derivative in x (d = 0 or 1) of f(x) =
    ev(x, fixed, 0) at abscissae x and fixed coordinates that broadcast
    together, elementwise; fixed broadcasts to targets' shape. knots is an
    increasing 1-D array and [knots[0], knots[-1]] the bracket. Each entry is
    monotone in its own direction (one batch may mix rising and falling
    entries). f is evaluated once at every knot for each fixed row; an entry
    starts at the secant root of its own cell [knots[k - 1], knots[k]], k >= 1
    the first knot where f has reached the target in the entry's direction,
    and takes Newton steps inside that bracket, bisecting when a step would
    leave it or the slope is zero or not finite (Numerical Recipes, section
    9.4, rtsafe). Every evaluated point becomes a bracket end, so the bracket
    shrinks each round. An entry stops on its own: on an exact hit, a step of
    at most _INVERT_STEP_RTOL (1 + |x|) or a bracket of at most _INVERT_TOL;
    only the entries still running are evaluated.

    A target below both end values comes back -inf, one above both +inf: the
    sign says on which side of the attained range the level misses. A NaN
    target stays NaN.
    """
    targets = np.asarray(targets, dtype=float)
    fixed = np.asarray(fixed)
    # one row of knot values per fixed coordinate; each target finds its row by index
    table = np.broadcast_to(ev(knots, fixed[..., None], 0), fixed.shape + knots.shape)
    table = table.reshape(-1, len(knots))
    rows = np.broadcast_to(np.arange(len(table)).reshape(fixed.shape), targets.shape)
    f_lo, f_hi = table[rows, 0], table[rows, -1]
    below = targets < np.minimum(f_lo, f_hi)
    above = targets > np.maximum(f_lo, f_hi)
    out = np.select([below, above], [-np.inf, np.inf], np.nan)
    flat = out.reshape(-1)
    idx = np.flatnonzero(~(below | above | np.isnan(targets)))
    t, row = (np.ravel(arr)[idx] for arr in (targets, rows))
    fx = np.ravel(fixed)[row]
    sign = np.where(table[row, -1] >= table[row, 0], 1.0, -1.0)
    # k: the first knot past 0 where sign (f - t) >= 0, searched on the open entries
    k = np.full(idx.size, len(knots) - 1)
    open_ = np.arange(idx.size)
    for j in range(1, len(knots) - 1):
        hit = sign[open_] * (table[row[open_], j] - t[open_]) >= 0.0
        k[open_[hit]] = j
        open_ = open_[~hit]
        if not open_.size:
            break
    a, b = knots[k - 1], knots[k]
    f0, f1 = table[row, k - 1], table[row, k]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = a + (t - f0) * ((b - a) / (f1 - f0))
        x = np.where(np.isfinite(x), np.clip(x, a, b), 0.5 * (a + b))
        for _ in range(_INVERT_MAX_ITER):
            if not idx.size:
                break
            r = ev(x, fx, 0) - t
            a = np.where(sign * r < 0.0, x, a)
            b = np.where(sign * r > 0.0, x, b)
            step = np.where(r == 0.0, 0.0, r / ev(x, fx, 1))
            newton = x - step
            small = np.abs(step) <= _INVERT_STEP_RTOL * (1.0 + np.abs(x))
            x = np.where(small | ((newton > a) & (newton < b)), newton, 0.5 * (a + b))
            done = small | (b - a <= _INVERT_TOL)
            flat[idx[done]] = x[done]
            live = ~done
            idx, x, a, b, t, fx, sign = (
                arr[live] for arr in (idx, x, a, b, t, fx, sign)
            )
    flat[idx] = x
    return out


def _slope(t, a0, aj):
    return np.asarray(t(aj, a0), dtype=float)


def _rk4_advance(t, a0, aj, h):
    """One vectorized RK4 step of da_j/da_0 = t(a_j, a_0); returns (aj_new, k1, k_end)."""
    k1 = _slope(t, a0, aj)
    k2 = _slope(t, a0 + 0.5 * h, aj + 0.5 * h * k1)
    k3 = _slope(t, a0 + 0.5 * h, aj + 0.5 * h * k2)
    k4 = _slope(t, a0 + h, aj + h * k3)
    aj_new = aj + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return aj_new, k1, _slope(t, a0 + h, aj_new)


def _hermite_crossing(y0, y1, m0, m1, h, target):
    """Fraction theta in [0,1] where the cubic Hermite interpolant hits target.

    y0, y1: endpoint states; m0, m1: endpoint slopes (d a_j / d a_0); h: step.
    One _invert_monotone_vec call on [0, 1] with the state index as its fixed
    coordinate, seeded by the linear crossing estimate. Raises
    NumericalFailure unless the interpolant meets target at the final theta
    within 1e-9 (1 + |target|); a NaN residual (target out of range) fails.
    """
    y0, y1, d0, d1 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (y0, y1, m0 * h, m1 * h))
    )

    def ev(theta, i, d):
        t2 = theta * theta
        if d:
            return (
                (6 * t2 - 6 * theta) * y0[i]
                + (3 * t2 - 4 * theta + 1) * d0[i]
                + (-6 * t2 + 6 * theta) * y1[i]
                + (3 * t2 - 2 * theta) * d1[i]
            )
        t3 = t2 * theta
        return (
            (2 * t3 - 3 * t2 + 1) * y0[i]
            + (t3 - 2 * t2 + theta) * d0[i]
            + (-2 * t3 + 3 * t2) * y1[i]
            + (t3 - t2) * d1[i]
        )

    states = np.arange(y0.size)
    theta = _invert_monotone_vec(ev, states, np.full(y0.size, float(target)), np.array([0.0, 1.0]))
    miss = np.abs(ev(theta, states, 0) - target)
    if not np.all(miss <= 1e-9 * (1.0 + abs(target))):
        raise NumericalFailure(
            f"Hermite crossing refinement did not converge: residual {np.max(miss):.3g} "
            f"at target a_j = {target!r}"
        )
    return theta


def _sweep_crossings(
    t,
    s_start: np.ndarray,
    aj_states: np.ndarray,
    a_ref: float,
    step: float,
    s_limits: tuple[float, float],
    aj_box: tuple[float, float],
) -> np.ndarray:
    """Crossing s of the anchor line for states with per-state start s: the one march.

    State i starts at (s_start[i], aj_states[i]) and integrates da_j/ds =
    t(a_j, s). A state below a_ref marches up in s to s_limits[0], one above
    it down to s_limits[1], all jointly, each at its own s with step
    +/- min(step, |limit - s|). The a_j = a_ref crossing is detected per state
    and refined on the step's cubic Hermite interpolant (same O(h^4) order as
    RK4 itself). A state leaves the march when it crosses, leaves the a_j box
    or reaches its limit; the last two stay NaN, as does a state on the line.
    """
    y = np.asarray(aj_states, dtype=float)
    out = np.full(len(y), np.nan)
    idx = np.flatnonzero(y != a_ref)
    y, s = y[idx], np.asarray(s_start, dtype=float)[idx]
    up = y < a_ref
    sign, limit = np.where(up, 1.0, -1.0), np.where(up, *s_limits)
    lo_box, hi_box = aj_box
    while True:
        live = sign * (limit - s) > 1e-14
        idx, s, y, sign, limit = (arr[live] for arr in (idx, s, y, sign, limit))
        if not idx.size:
            return out
        h = sign * np.minimum(step, np.abs(limit - s))
        y_new, k_start, k_end = _rk4_advance(t, s, y, h)
        crossed = (y - a_ref) * (y_new - a_ref) <= 0.0
        if crossed.any():
            theta = _hermite_crossing(
                y[crossed], y_new[crossed], k_start[crossed], k_end[crossed], h[crossed], a_ref
            )
            out[idx[crossed]] = s[crossed] + theta * h[crossed]
        keep = ~crossed & (y_new >= lo_box) & (y_new <= hi_box)
        idx, s, y, sign, limit = (arr[keep] for arr in (idx, s + h, y_new, sign, limit))


class _Bicubic:
    """The bicubic spline interpolant of values z on the lattice x times y.

    The not-a-knot interpolant (de Boor, A Practical Guide to Splines) with
    FITPACK's s = 0 knots [x0]*4 + x[2:-2] + [x_end]*4 on each axis (Dierckx,
    Curve and Surface Fitting with Splines, 1993): the spline scipy's
    RectBivariateSpline(x, y, z, kx=3, ky=3, s=0) builds. The coefficients come
    from one dense collocation solve per axis; ev clamps its points to the
    lattice rectangle, as FITPACK's fpbisp does.
    """

    def __init__(self, x, y, z):
        x, y = (np.asarray(a, dtype=float) for a in (x, y))
        self._axes = (self._axis(x), self._axis(y))
        coef = np.asarray(z, dtype=float)
        for axis, a in enumerate((x, y)):
            cell, weights = self._weights(axis, a, 0)
            colloc = np.zeros((len(a), len(a)))
            for r, w in enumerate(weights):
                colloc[np.arange(len(a)), cell + r] = w
            coef = np.linalg.solve(colloc, coef).T  # along x, then along y and back
        self._stride = len(y)
        self._coef = coef.ravel()

    @staticmethod
    def _axis(a):
        """(interior knots, the six knots t[l-2..l+3] of each cell l, lo, hi) of one axis."""
        t = np.concatenate([np.repeat(a[0], 4), a[2:-2], np.repeat(a[-1], 4)])
        return a[2:-2], np.stack([t[l - 2:l + 4] for l in range(3, len(a))]), a[0], a[-1]

    def _weights(self, axis, x, d):
        """Each clamped point's cell and its four cubic B-spline values (d = 0) or slopes (d = 1).

        de Boor's BSPLVB recursion through the linear and quadratic B-splines
        of the cell, with dl_i = x - t[l+1-i] and dr_i = t[l+i] - x.
        """
        inner, cells, lo, hi = self._axes[axis]
        x = np.clip(x, lo, hi)
        cell = np.searchsorted(inner, x, side="right")
        t = cells[cell]
        dl3, dl2, dl1 = (x - t[..., i] for i in range(3))
        dr1, dr2, dr3 = (t[..., i] - x for i in range(3, 6))
        s0 = 1.0 / (dr1 + dl1)
        p0, p1 = dr1 * s0, dl1 * s0
        s0, s1 = p0 / (dr1 + dl2), p1 / (dr2 + dl1)
        q0, q1, q2 = dr1 * s0, dl2 * s0 + dr2 * s1, dl1 * s1
        # each quadratic over its knot span: the cubics' values and slopes both use them
        s0, s1, s2 = q0 / (dr1 + dl3), q1 / (dr2 + dl2), q2 / (dr3 + dl1)
        if d:
            return cell, (-3.0 * s0, 3.0 * (s0 - s1), 3.0 * (s1 - s2), 3.0 * s2)
        return cell, (dr1 * s0, dl3 * s0 + dr2 * s1, dl2 * s1 + dr3 * s2, dl1 * s2)

    def ev(self, x, y, dx=0, dy=0):
        """The spline (dx = dy = 0) or a first partial at the points (x, y), which broadcast."""
        cx, wx = self._weights(0, np.asarray(x, dtype=float), dx)
        cy, wy = self._weights(1, np.asarray(y, dtype=float), dy)
        corner = cx * self._stride + cy
        out = 0.0
        for a in range(4):
            row = 0.0
            for b in range(4):
                row = row + wy[b] * self._coef.take(corner + (a * self._stride + b))
            out = out + wx[a] * row
        return out


@dataclass
class OmegaFunction:
    """Characteristic level function omega(a_j, a_0) on a domain rectangle.

    Backed by a lattice of per-node crossing integrations wrapped in a bicubic
    spline (_Bicubic). Increasing in a_0, decreasing in a_j (monotone_ok
    reports whether the lattice is, and worst_monotone_violation by how much
    it is not); omega(a_ref, a_0) = a_0 by the anchoring convention.
    """

    j: int
    a_ref: float
    aj_lattice: np.ndarray
    a0_lattice: np.ndarray
    lattice_values: np.ndarray  # shape (n_aj, n_a0)
    step: float  # in ln a_0 units when log_axes, else in a_0 units
    monotone_ok: bool = dc_field(init=False)
    worst_monotone_violation: float = dc_field(init=False)

    def __post_init__(self):
        d_a0 = np.diff(self.lattice_values, axis=1)
        d_aj = np.diff(self.lattice_values, axis=0)
        self.monotone_ok = bool(np.all(d_a0 > 0) and np.all(d_aj < 0))
        self.worst_monotone_violation = max(
            float(np.max(-d_a0, initial=0.0)), float(np.max(d_aj, initial=0.0))
        )
        self._spline = _Bicubic(self.aj_lattice, self.a0_lattice, self.lattice_values)

    @property
    def domain(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((aj_lo, aj_hi), (a0_lo, a0_hi)): the lattices' end nodes, build_omega's domain."""
        return tuple((float(ax[0]), float(ax[-1])) for ax in (self.aj_lattice, self.a0_lattice))

    @property
    def log_axes(self) -> bool:
        """Whether the lattices are log-spaced and step is in ln a_0."""
        return _log_march(self.domain)

    def require_in_domain(self, axis: int, a) -> None:
        """Raise DomainError, naming alternative j, unless every entry of a
        lies in the domain of axis 0 (a_j) or 1 (a_0), within 1e-9 of the axis
        span: the one check of every omega query. NaN passes."""
        lo, hi = self.domain[axis]
        eps = 1e-9 * (hi - lo)
        a = np.asarray(a, dtype=float)
        if np.any(a < lo - eps) or np.any(a > hi + eps):
            raise DomainError(
                f"{('a_j', 'a_0')[axis]} outside omega domain [{lo}, {hi}] (alternative {self.j})"
            )

    def __call__(self, a_j, a_0):
        self.require_in_domain(0, a_j)
        self.require_in_domain(1, a_0)
        return self._spline.ev(a_j, a_0)

    # -- derivatives by central finite differences on the level surface ----

    def _central_difference(self, axis: int, a_j, a_0, delta):
        """d omega / d a_j (axis 0) or d a_0 (axis 1), both half-steps clamped to
        the domain. The half-step is delta, else one lattice spacing,
        proportional to the point on log lattices."""
        x = np.broadcast_arrays(np.asarray(a_j, dtype=float), np.asarray(a_0, dtype=float))
        for k, a in enumerate(x):
            self.require_in_domain(k, a)
        lattice = (self.aj_lattice, self.a0_lattice)[axis]
        if delta is not None:
            d = np.full_like(x[axis], delta)
        elif self.log_axes:
            d = x[axis] * np.log(lattice[1] / lattice[0])
        else:
            d = np.full_like(x[axis], lattice[1] - lattice[0])
        lo, hi = self.domain[axis]
        up, dn = list(x), list(x)
        up[axis] = np.minimum(x[axis] + d, hi)
        dn[axis] = np.maximum(x[axis] - d, lo)
        return (self._spline.ev(*up) - self._spline.ev(*dn)) / (up[axis] - dn[axis])

    def d_aj(self, a_j, a_0):
        return self._central_difference(0, a_j, a_0, None)

    def d_a0(self, a_j, a_0):
        return self._central_difference(1, a_j, a_0, None)

    def pde_residual(self, t) -> np.ndarray:
        """|d_omega/d_a0 + t * d_omega/d_aj| for ratio t on an inset 41 x 41 lattice."""
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.domain
        if self.log_axes:
            delta = None  # proportional FD half-steps
            aj = np.geomspace(aj_lo * 1.02, aj_hi / 1.02, 41)
            a0 = np.geomspace(a0_lo * 1.02, a0_hi / 1.02, 41)
        else:
            delta = self.step  # inset by, and difference with, one RK4 step
            aj = np.linspace(aj_lo + delta, aj_hi - delta, 41)
            a0 = np.linspace(a0_lo + delta, a0_hi - delta, 41)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        d0 = self._central_difference(1, AJ.ravel(), A0.ravel(), delta).reshape(AJ.shape)
        dj = self._central_difference(0, AJ.ravel(), A0.ravel(), delta).reshape(AJ.shape)
        tv = np.asarray(t(AJ, A0), dtype=float)
        return np.abs(d0 + dj * tv)

    def invert_a0_many(self, a_j, v: np.ndarray) -> np.ndarray:
        """Vectorized inversion in a_0; -inf/+inf where v is below/above the range.

        a_j is a scalar or an array that broadcasts to v's shape, e.g. v of
        shape (n, m) against a_j of shape (n, 1) inverts one row of levels per
        a_j in one call.
        """
        self.require_in_domain(0, a_j)
        return _invert_monotone_vec(
            lambda x, aj, d: self._spline.ev(aj, x, dy=d), a_j, v, self.a0_lattice
        )

    def invert_aj_many(self, v: np.ndarray, a_0) -> np.ndarray:
        """Vectorized b(v, a_0): a_j with omega(a_j, a_0) = v; +/-inf out of range.

        The sign is in level terms, not a_j: -inf where v is below the range
        attained at a_0, +inf above it. a_0 is a scalar or an array that
        broadcasts to v's shape, e.g. v of shape (n_ref, n_v) against a_0 of
        shape (n_ref, 1) inverts every level at every reference in one call.
        """
        self.require_in_domain(1, a_0)
        return _invert_monotone_vec(
            lambda x, a0, d: self._spline.ev(x, a0, dx=d), a_0, v, self.aj_lattice
        )

    def export_csv(self, path) -> None:
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.domain
        aj = np.linspace(aj_lo, aj_hi, CSV_NODES)
        a0 = np.linspace(a0_lo, a0_hi, CSV_NODES)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        vals = self._spline.ev(AJ.ravel(), A0.ravel())
        write_csv_table(path, ("a_j", "a_0", "omega"), (AJ.ravel(), A0.ravel(), vals))


def build_omega(
    t,
    domain,
    a_ref: float | None = None,
    resolution: int = 201,
    step: float | None = None,
    j: int | None = None,
) -> OmegaFunction:
    """Construct omega for one alternative from its ratio surface.

    domain: ((aj_lo, aj_hi), (a0_lo, a0_hi)). For every lattice node the
    characteristic through it is integrated until it crosses a_j = a_ref; the
    crossing a_0 is the node's level value. Characteristics may leave the
    domain rectangle on their way to the anchor line: integration runs on an
    a_j box enlarged by _BOX_MARGIN and an automatically extended a_0 span.

    The domain picks the march: positive domains wider than a factor 20 in a_0
    step in ln a_0 with log-spaced lattices (the right parametrization when
    the domain spans decades), all others uniformly in a_0.
    """
    (aj_lo, aj_hi), (a0_lo, a0_hi) = domain
    if resolution < 4:
        raise ValidationError(f"resolution {resolution} < 4: the omega spline is bicubic")
    if step is not None and not (np.isfinite(step) and step > 0):
        raise ValidationError(f"step {step!r} must be finite and > 0")
    use_log = _log_march(domain)
    if a_ref is None:
        a_ref = np.sqrt(aj_lo * aj_hi) if use_log else 0.5 * (aj_lo + aj_hi)
    if not aj_lo <= a_ref <= aj_hi:
        raise ValidationError("a_ref must lie inside the a_j range")

    space = np.geomspace if use_log else np.linspace
    aj_lattice, a0_lattice = (space(lo, hi, resolution) for lo, hi in domain)
    if use_log:
        pad = (aj_hi / aj_lo) ** _BOX_MARGIN
        aj_box = (aj_lo / pad, aj_hi * pad)
        span, to_s, back = np.log(a0_hi / a0_lo), np.log, np.exp
        def slope(aj, s):  # da_j / d ln a_0
            a0 = np.exp(np.asarray(s, dtype=float))
            return a0 * np.asarray(t(aj, a0), dtype=float)
    else:
        pad = _BOX_MARGIN * (aj_hi - aj_lo)
        aj_box = (aj_lo - pad, aj_hi + pad)
        span, slope = a0_hi - a0_lo, t
        to_s = back = lambda s: s
    if step is None:
        step = span / 300.0
    s_limits = (to_s(a0_hi) + _SPAN_GUARD * span, to_s(a0_lo) - _SPAN_GUARD * span)
    # every lattice node in one march; the anchor row is its own level
    aj_nodes, s_nodes = np.meshgrid(aj_lattice, to_s(a0_lattice), indexing="ij")
    values = back(_sweep_crossings(
        slope, s_nodes.ravel(), aj_nodes.ravel(), a_ref, step, s_limits, aj_box
    )).reshape(aj_nodes.shape)
    values[aj_lattice == a_ref] = a0_lattice
    if np.isnan(values).any():
        bad = np.argwhere(np.isnan(values))
        i, c = bad[0]
        raise CoverageError(
            f"{len(bad)} lattice nodes unreachable from the anchor line a_j={a_ref}; "
            f"first at (a_j={aj_lattice[i]:.6g}, a_0={a0_lattice[c]:.6g})"
        )
    return OmegaFunction(
        j=j if j is not None else getattr(t, "j", 1),
        a_ref=float(a_ref),
        aj_lattice=aj_lattice,
        a0_lattice=a0_lattice,
        lattice_values=values,
        step=float(step),
    )


@dataclass
class UtilityFunction:
    """w(a_j, v): the a_0-level at which omega(a_j, .) equals v."""

    j: int
    omega: OmegaFunction

    def export_csv(self, path) -> None:
        """CSV_NODES rows of a_j, each of CSV_NODES levels spanning the range attained there."""
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.omega.domain
        aj = np.linspace(aj_lo, aj_hi, CSV_NODES)
        vs = np.linspace(self.omega(aj, a0_lo), self.omega(aj, a0_hi), CSV_NODES, axis=1)
        ws = self.omega.invert_a0_many(aj[:, None], vs)
        write_csv_table(
            path, ("a_j", "v", "w"), (np.repeat(aj, CSV_NODES), vs.ravel(), ws.ravel())
        )

