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

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import (
    CoverageError,
    LevelRangeError,
    NumericalFailure,
    StepUnderflowError,
    ValidationError,
)
from .rootfind import invert_monotone, invert_monotone_vec

_SPAN_GUARD = 200.0  # max integration span, in units of the a_0 domain width


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


@dataclass
class CharacteristicPath:
    """An integrated characteristic trace (a_0, a_j) pairs, possibly clipped."""

    a0: np.ndarray
    aj: np.ndarray
    clipped: bool = False

    def endpoint(self) -> tuple[float, float]:
        return float(self.a0[-1]), float(self.aj[-1])


def integrate_characteristic(
    t,
    start: tuple[float, float],
    target_a0: float,
    step: float,
    domain=None,
    spike_tol: float = 0.1,
) -> CharacteristicPath:
    """RK4 trace of da_j/da_0 = t(a_j, a_0) from start=(a_0, a_j) to target_a0.

    Fixed step with one level of halving when a single step moves a_j by more
    than spike_tol relative to its magnitude. If a domain rectangle
    ((aj_lo, aj_hi), (a0_lo, a0_hi)) is given, the path stops at the first exit
    and is flagged clipped.
    """
    if step <= 0:
        raise ValidationError("step must be > 0")
    a0_start, aj_start = float(start[0]), float(start[1])
    direction = 1.0 if target_a0 >= a0_start else -1.0
    a0s = [a0_start]
    ajs = [aj_start]
    a0, aj = a0_start, aj_start
    scale = abs(aj_start) + 1.0
    clipped = False
    while direction * (target_a0 - a0) > 1e-14:
        h = direction * min(step, abs(target_a0 - a0))
        aj_new, _, _ = _rk4_advance(t, a0, np.asarray(aj), h)
        if abs(float(aj_new) - aj) > spike_tol * scale:
            # one level of halving over a steep region
            half = h / 2.0
            if abs(half) < 1e-15 * max(1.0, abs(a0)):
                raise StepUnderflowError(f"step underflow near a_0 = {a0!r}")
            mid, _, _ = _rk4_advance(t, a0, np.asarray(aj), half)
            aj_new, _, _ = _rk4_advance(t, a0 + half, mid, half)
            if abs(float(aj_new) - aj) > 2 * spike_tol * scale:
                raise StepUnderflowError(
                    f"characteristic slope spike at a_0 = {a0!r} exceeds halving capacity"
                )
        aj = float(aj_new)
        a0 = a0 + h
        a0s.append(a0)
        ajs.append(aj)
        if domain is not None:
            (aj_lo, aj_hi), (d0_lo, d0_hi) = domain
            if not (aj_lo <= aj <= aj_hi and d0_lo <= a0 <= d0_hi):
                clipped = True
                break
    return CharacteristicPath(np.asarray(a0s), np.asarray(ajs), clipped)


def _hermite_crossing(y0, y1, m0, m1, h, target):
    """Fraction theta in [0,1] where the cubic Hermite interpolant hits target.

    y0, y1: endpoint states; m0, m1: endpoint slopes (d a_j / d a_0); h: step.
    Vectorized Newton iteration seeded by the linear crossing estimate. Raises
    NumericalFailure if the interpolant misses target at the final theta by
    more than 1e-9 (1 + |target|), e.g. when Newton stalls at a clip bound.
    """
    y0 = np.asarray(y0, dtype=float)
    denom = np.where(y1 - y0 == 0.0, 1.0, y1 - y0)
    theta = np.clip((target - y0) / denom, 0.0, 1.0)
    d0 = m0 * h
    d1 = m1 * h

    def residual(theta):
        t2 = theta * theta
        t3 = t2 * theta
        val = (
            (2 * t3 - 3 * t2 + 1) * y0
            + (t3 - 2 * t2 + theta) * d0
            + (-2 * t3 + 3 * t2) * y1
            + (t3 - t2) * d1
            - target
        )
        dval = (
            (6 * t2 - 6 * theta) * y0
            + (3 * t2 - 4 * theta + 1) * d0
            + (-6 * t2 + 6 * theta) * y1
            + (3 * t2 - 2 * theta) * d1
        )
        return val, dval

    for _ in range(12):
        val, dval = residual(theta)
        dval = np.where(dval == 0.0, 1.0, dval)
        theta = np.clip(theta - val / dval, 0.0, 1.0)
    miss = np.abs(residual(theta)[0])
    if np.any(miss > 1e-9 * (1.0 + abs(target))):
        raise NumericalFailure(
            f"Hermite crossing refinement did not converge: residual {np.max(miss):.3g} "
            f"at target a_j = {target!r}"
        )
    return theta


def _sweep_crossings(
    t,
    a0_start: np.ndarray,
    aj_states: np.ndarray,
    a_ref: float,
    step: float,
    direction: float,
    a0_limit: float,
    aj_box: tuple[float, float],
) -> np.ndarray:
    """Crossing a_0 of the anchor line for states with per-state start a_0.

    State i starts at (a0_start[i], aj_states[i]). All states march jointly in
    the given a_0 direction, each at its own a_0 with step
    direction * min(step, |a0_limit - a_0|). The a_j = a_ref crossing is
    detected per state and refined on the step's cubic Hermite interpolant
    (same O(h^4) order as RK4 itself). A state leaves the march when it
    crosses, leaves the enlarged a_j box or reaches a0_limit; the last two
    stay NaN.
    """
    out = np.full(len(aj_states), np.nan)
    y = np.asarray(aj_states, dtype=float)
    idx = np.flatnonzero(y < a_ref if direction > 0 else y > a_ref)
    y = y[idx]
    a0 = np.asarray(a0_start, dtype=float)[idx]
    lo_box, hi_box = aj_box
    while True:
        live = direction * (a0_limit - a0) > 1e-14
        idx, a0, y = idx[live], a0[live], y[live]
        if not idx.size:
            return out
        h = direction * np.minimum(step, np.abs(a0_limit - a0))
        y_new, k_start, k_end = _rk4_advance(t, a0, y, h)
        crossed = (y - a_ref) * (y_new - a_ref) <= 0.0
        if crossed.any():
            theta = _hermite_crossing(
                y[crossed], y_new[crossed], k_start[crossed], k_end[crossed], h[crossed], a_ref
            )
            out[idx[crossed]] = a0[crossed] + theta * h[crossed]
        keep = ~crossed & (y_new >= lo_box) & (y_new <= hi_box)
        idx, a0, y = idx[keep], (a0 + h)[keep], y_new[keep]


@dataclass
class OmegaFunction:
    """Characteristic level function omega(a_j, a_0) on a domain rectangle.

    Backed by a lattice of per-node crossing integrations wrapped in a bicubic
    spline. Increasing in a_0, decreasing in a_j (validated at build time);
    omega(a_ref, a_0) = a_0 by the anchoring convention.
    """

    j: int
    ratio: object  # RatioFunction or compatible callable
    a_ref: float
    domain: tuple[tuple[float, float], tuple[float, float]]
    aj_lattice: np.ndarray
    a0_lattice: np.ndarray
    lattice_values: np.ndarray  # shape (n_aj, n_a0)
    step: float  # in ln a_0 units when log_axes, else in a_0 units
    log_axes: bool = False
    monotone_ok: bool = True
    worst_monotone_violation: float = 0.0
    _spline: RectBivariateSpline | None = None

    def __post_init__(self):
        if self._spline is None:
            self._spline = RectBivariateSpline(
                self.aj_lattice, self.a0_lattice, self.lattice_values, kx=3, ky=3, s=0
            )

    def __call__(self, a_j, a_0):
        a_j = np.asarray(a_j, dtype=float)
        a_0 = np.asarray(a_0, dtype=float)
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.domain
        eps_j = 1e-9 * (aj_hi - aj_lo)
        eps_0 = 1e-9 * (a0_hi - a0_lo)
        if np.any(a_j < aj_lo - eps_j) or np.any(a_j > aj_hi + eps_j):
            raise LevelRangeError(f"a_j outside omega domain [{aj_lo}, {aj_hi}]")
        if np.any(a_0 < a0_lo - eps_0) or np.any(a_0 > a0_hi + eps_0):
            raise LevelRangeError(f"a_0 outside omega domain [{a0_lo}, {a0_hi}]")
        out = self._spline.ev(a_j, a_0)
        if np.isscalar(a_j) or (np.ndim(a_j) == 0 and np.ndim(a_0) == 0):
            return float(out)
        return out

    # -- derivatives by central finite differences on the level surface ----

    def _delta(self, lattice, points, delta):
        """FD half-step: fixed spacing, or proportional on log lattices."""
        if delta is not None:
            return np.full_like(points, delta)
        if self.log_axes:
            rel = np.log(lattice[1] / lattice[0])
            return points * rel
        return np.full_like(points, lattice[1] - lattice[0])

    def d_aj(self, a_j, a_0, delta: float | None = None):
        (aj_lo, aj_hi), _ = self.domain
        a_j, a_0 = np.broadcast_arrays(
            np.asarray(a_j, dtype=float), np.asarray(a_0, dtype=float)
        )
        d = self._delta(self.aj_lattice, a_j, delta)
        up = np.minimum(a_j + d, aj_hi)
        dn = np.maximum(a_j - d, aj_lo)
        return (self._spline.ev(up, a_0) - self._spline.ev(dn, a_0)) / (up - dn)

    def d_a0(self, a_j, a_0, delta: float | None = None):
        _, (a0_lo, a0_hi) = self.domain
        a_j, a_0 = np.broadcast_arrays(
            np.asarray(a_j, dtype=float), np.asarray(a_0, dtype=float)
        )
        d = self._delta(self.a0_lattice, a_0, delta)
        up = np.minimum(a_0 + d, a0_hi)
        dn = np.maximum(a_0 - d, a0_lo)
        return (self._spline.ev(a_j, up) - self._spline.ev(a_j, dn)) / (up - dn)

    def value_range(self, a_j) -> tuple[float, float]:
        """Attained omega range at fixed a_j over the a_0 domain."""
        _, (a0_lo, a0_hi) = self.domain
        return (
            float(self._spline.ev(a_j, a0_lo)),
            float(self._spline.ev(a_j, a0_hi)),
        )

    def pde_residual(self, n: int = 41, delta: float | None = None) -> np.ndarray:
        """|d_omega/d_a0 + t * d_omega/d_aj| on an inset validation lattice."""
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.domain
        if self.log_axes:
            aj = np.geomspace(aj_lo * 1.02, aj_hi / 1.02, n)
            a0 = np.geomspace(a0_lo * 1.02, a0_hi / 1.02, n)
        else:
            if delta is None:
                delta = self.step
            aj = np.linspace(aj_lo + delta, aj_hi - delta, n)
            a0 = np.linspace(a0_lo + delta, a0_hi - delta, n)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        d0 = self.d_a0(AJ.ravel(), A0.ravel(), delta).reshape(AJ.shape)
        dj = self.d_aj(AJ.ravel(), A0.ravel(), delta).reshape(AJ.shape)
        tv = np.asarray(self.ratio(AJ, A0), dtype=float)
        return np.abs(d0 + dj * tv)

    def invert_a0(self, a_j: float, v: float, tol: float = 1e-9) -> float:
        """a_0 with omega(a_j, a_0) = v; bisection plus secant (utility evaluation)."""
        _, (a0_lo, a0_hi) = self.domain
        try:
            return invert_monotone(lambda x: float(self._spline.ev(a_j, x)), v, a0_lo, a0_hi, tol)
        except LevelRangeError as exc:
            raise LevelRangeError(
                f"level {v!r} not attained at a_j={a_j!r}: {exc}"
            ) from exc

    def invert_a0_many(self, a_j: float, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Vectorized inversion in a_0; NaN where v is outside the attained range."""
        _, (a0_lo, a0_hi) = self.domain
        return invert_monotone_vec(
            lambda x: self._spline.ev(np.broadcast_to(a_j, np.shape(x)), x),
            np.asarray(v, dtype=float),
            a0_lo,
            a0_hi,
            tol,
        )

    def invert_aj_many(self, v: np.ndarray, a_0: float, tol: float = 1e-9) -> np.ndarray:
        """Vectorized b(v, a_0): a_j with omega(a_j, a_0) = v; NaN out of range."""
        (aj_lo, aj_hi), _ = self.domain
        return invert_monotone_vec(
            lambda x: self._spline.ev(x, np.broadcast_to(a_0, np.shape(x))),
            np.asarray(v, dtype=float),
            aj_lo,
            aj_hi,
            tol,
        )

    def export_csv(self, path, n: int = 101) -> None:
        (aj_lo, aj_hi), (a0_lo, a0_hi) = self.domain
        aj = np.linspace(aj_lo, aj_hi, n)
        a0 = np.linspace(a0_lo, a0_hi, n)
        AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
        vals = self._spline.ev(AJ.ravel(), A0.ravel())
        data = np.stack([AJ.ravel(), A0.ravel(), vals], axis=-1)
        np.savetxt(
            path, data, delimiter=",", header="a_j,a_0,omega", comments="", fmt="%.12g"
        )


def build_omega(
    t,
    domain,
    a_ref: float | None = None,
    resolution: int = 201,
    step: float | None = None,
    margin: float = 0.2,
    j: int | None = None,
    scale: str = "auto",
) -> OmegaFunction:
    """Construct omega for one alternative from its ratio surface.

    domain: ((aj_lo, aj_hi), (a0_lo, a0_hi)). For every lattice node the
    characteristic through it is integrated until it crosses a_j = a_ref; the
    crossing a_0 is the node's level value. Characteristics may leave the
    domain rectangle on their way to the anchor line: integration runs on a
    margin-enlarged a_j box and an automatically extended a_0 span.

    scale: "linear" steps uniformly in a_0, "log" in ln a_0 with log-spaced
    lattices (the right parametrization when the domain spans decades), "auto"
    picks log for positive domains wider than a factor 20 in a_0.
    """
    (aj_lo, aj_hi), (a0_lo, a0_hi) = domain
    if scale == "auto":
        use_log = a0_lo > 0 and aj_lo > 0 and a0_hi / a0_lo > 20.0
    elif scale in ("linear", "log"):
        use_log = scale == "log"
        if use_log and (a0_lo <= 0 or aj_lo <= 0):
            raise ValidationError("log scale needs a strictly positive domain")
    else:
        raise ValidationError(f"unknown scale {scale!r}")
    if a_ref is None:
        a_ref = np.sqrt(aj_lo * aj_hi) if use_log else 0.5 * (aj_lo + aj_hi)
    if not aj_lo <= a_ref <= aj_hi:
        raise ValidationError("a_ref must lie inside the a_j range")

    if use_log:
        if step is None:
            step = np.log(a0_hi / a0_lo) / 300.0
        pad = (aj_hi / aj_lo) ** margin
        aj_box = (aj_lo / pad, aj_hi * pad)
        span = np.log(a0_hi / a0_lo)
        limit_hi = np.log(a0_hi) + _SPAN_GUARD * span
        limit_lo = np.log(a0_lo) - _SPAN_GUARD * span
        aj_lattice = np.geomspace(aj_lo, aj_hi, resolution)
        a0_lattice = np.geomspace(a0_lo, a0_hi, resolution)
        starts = np.log(a0_lattice)

        def slope(aj, u):
            a0 = np.exp(np.asarray(u, dtype=float))
            return a0 * np.asarray(t(aj, a0), dtype=float)

        back = np.exp
    else:
        if step is None:
            step = (a0_hi - a0_lo) / 300.0
        pad_j = margin * (aj_hi - aj_lo)
        aj_box = (aj_lo - pad_j, aj_hi + pad_j)
        span = a0_hi - a0_lo
        limit_hi = a0_hi + _SPAN_GUARD * span
        limit_lo = a0_lo - _SPAN_GUARD * span
        aj_lattice = np.linspace(aj_lo, aj_hi, resolution)
        a0_lattice = np.linspace(a0_lo, a0_hi, resolution)
        starts = a0_lattice
        slope = t
        back = lambda s: s

    values = np.empty((resolution, resolution))
    values[aj_lattice == a_ref] = a0_lattice
    for side, direction, limit in (
        (aj_lattice < a_ref, +1.0, limit_hi),
        (aj_lattice > a_ref, -1.0, limit_lo),
    ):
        # every lattice node on this side of the anchor line, in one march
        aj_nodes, s_nodes = np.meshgrid(aj_lattice[side], starts, indexing="ij")
        values[side] = back(_sweep_crossings(
            slope, s_nodes.ravel(), aj_nodes.ravel(), a_ref, step, direction, limit, aj_box
        )).reshape(aj_nodes.shape)
    if np.isnan(values).any():
        bad = np.argwhere(np.isnan(values))
        i, c = bad[0]
        raise CoverageError(
            f"{len(bad)} lattice nodes unreachable from the anchor line a_j={a_ref}; "
            f"first at (a_j={aj_lattice[i]:.6g}, a_0={a0_lattice[c]:.6g})"
        )
    d_a0 = np.diff(values, axis=1)
    d_aj = np.diff(values, axis=0)
    worst = max(float(np.max(-d_a0, initial=0.0)), float(np.max(d_aj, initial=0.0)))
    omega = OmegaFunction(
        j=j if j is not None else getattr(t, "j", 1),
        ratio=t,
        a_ref=float(a_ref),
        domain=((aj_lo, aj_hi), (a0_lo, a0_hi)),
        aj_lattice=aj_lattice,
        a0_lattice=a0_lattice,
        lattice_values=values,
        step=float(step),
        log_axes=use_log,
        monotone_ok=bool(np.all(d_a0 > 0) and np.all(d_aj < 0)),
        worst_monotone_violation=worst,
    )
    return omega


@dataclass
class UtilityFunction:
    """w(a_j, v): the a_0-level at which omega(a_j, .) equals v."""

    j: int
    omega: OmegaFunction

    def eval(self, a_j: float, v: float, tol: float = 1e-9) -> float:
        return self.omega.invert_a0(a_j, v, tol)

    def eval_many(self, a_j: float, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        return self.omega.invert_a0_many(a_j, v, tol)

    def export_csv(self, path, n: int = 101) -> None:
        (aj_lo, aj_hi), _ = self.omega.domain
        aj = np.linspace(aj_lo, aj_hi, n)
        rows = []
        for x in aj:
            v_lo, v_hi = self.omega.value_range(x)
            vs = np.linspace(v_lo, v_hi, n)
            ws = self.eval_many(x, vs)
            rows.append(np.stack([np.full(n, x), vs, ws], axis=-1))
        np.savetxt(
            path,
            np.concatenate(rows),
            delimiter=",",
            header="a_j,v,w",
            comments="",
            fmt="%.12g",
        )


def utility_eval(w: UtilityFunction, a_j: float, v: float) -> float:
    """Monotone root-find of omega(a_j, .) = v, to 1e-9 in a_0 units."""
    return w.eval(a_j, v)


def lipschitz_diagnostic(t, domain, n: int = 201) -> float:
    """Empirical max |dt/da_j| over a dense lattice: the Picard-Lindelof constant."""
    (aj_lo, aj_hi), (a0_lo, a0_hi) = domain
    aj = np.linspace(aj_lo, aj_hi, n)
    a0 = np.linspace(a0_lo, a0_hi, n)
    AJ, A0 = np.meshgrid(aj, a0, indexing="ij")
    vals = np.asarray(t(AJ, A0), dtype=float)
    d = np.gradient(vals, aj, axis=0, edge_order=2)
    return float(np.max(np.abs(d)))
