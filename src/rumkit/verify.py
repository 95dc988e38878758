"""Round-trip validation: does the recovered structure reproduce the field?

Given the recovered utilities w_j (inverse omega maps) and the heterogeneity
density f, the implied choice probability of alternative j at an offer vector
a integrates the argmax indicator of w_j(a_j, v_j) against f(v). Matching the
input field at interior points closes the rationalizability loop. A separate
translation check probes for income effects directly: fields generated without
them are invariant under adding a common scalar to every offer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .density import DensityGrid
from .errors import UnnormalizedDensityError, ValidationError
from .field import ProbabilityField

_MASS_WINDOW = (0.95, 1.05)


def _utility_tables(utilities, density: DensityGrid, offers):
    """w_j on v-axis j for every offer: one (n_offers, n_v) table per axis.

    One batched inversion per axis, a_j as an (n_offers, 1) column. A level
    below the range omega attains at a_j gives -inf (the alternative loses
    every comparison), one above it +inf (it wins them); cells where two
    alternatives sit at +inf are undecidable and the integrators skip them.
    """
    return [
        u.omega.invert_a0_many(offers[:, j, None], np.broadcast_to(v, (len(offers), len(v))))
        for j, (u, v) in enumerate(zip(utilities, density.axes), start=1)
    ]


def _winners(ws, a0):
    """Argmax alternative over utility arrays that broadcast together.

    The outside option holds utility a0 and wins ties; -1 marks undecidable
    entries, where more than one alternative sits at +inf.
    """
    best, who, n_top = a0, 0, 0
    for j, w in enumerate(ws, start=1):
        take = w > best
        best = np.where(take, w, best)
        who = np.where(take, j, who)
        n_top = n_top + (w == np.inf)
    return np.where(n_top > 1, -1, who)


def _lerp_tables(lo, hi, frac):
    """Utility linearly interpolated from lo to hi at fraction frac.

    An infinite endpoint wins the whole half: interpolation against +/-inf
    keeps the finite end's value until the infinite corner itself.
    """
    with np.errstate(invalid="ignore"):
        w = lo + frac * (hi - lo)
    w = np.where(np.isinf(lo) & ~np.isinf(hi), hi, w)
    w = np.where(np.isinf(hi) & ~np.isinf(lo), lo, w)
    return np.where(np.isinf(lo) & np.isinf(hi), lo, w)


def _subcell_tables(tables, refine):
    """Utility at refine sub-centers of each cell along the last axis: (..., n_cells, refine)."""
    frac = (np.arange(refine) + 0.5) / refine
    return [_lerp_tables(t[..., :-1, None], t[..., 1:, None], frac) for t in tables]


def rationalized_choice_prob(
    utilities,
    density: DensityGrid,
    a,
    method: str = "grid_quadrature",
    n: int = 100_000,
    seed: int = 0,
    return_diagnostics: bool = False,
):
    """Choice probabilities implied by (utilities, density) at one offer or a batch.

    a is one offer (J+1,) or a batch (n_offers, J+1), like
    ProbabilityField.interpolate; q and the skipped-mass and leakage
    diagnostics take its leading shape. grid_quadrature assigns each v-cell's
    trapezoid mass to the winner at the cell center; monte_carlo draws cells by
    mass (inverse CDF) with seed + i for offer i, jitters uniformly within the
    cell, and judges the argmax at the jittered point using linearly
    interpolated w. Each q is renormalized over decided mass.
    """
    a = np.asarray(a, dtype=float)
    J = density.n_dims
    if a.ndim not in (1, 2) or a.shape[-1] != J + 1:
        raise ValidationError("offer vector length must be J + 1")
    offers = np.atleast_2d(a)
    masses = density.cell_masses()
    total = float(masses.sum())
    if not _MASS_WINDOW[0] <= total <= _MASS_WINDOW[1]:
        raise UnnormalizedDensityError(
            f"density mass {total:.4f} outside {_MASS_WINDOW}"
        )
    tables = _utility_tables(utilities, density, offers)
    if method == "grid_quadrature":
        # each cell's mass spread uniformly over refine^J subcells; the
        # winner is judged at subcell centers, shrinking the misallocated
        # band along indifference boundaries by the refinement factor
        refine = 4
        tables = [
            t.reshape([len(offers)] + [-1 if k == j else 1 for k in range(J)])
            for j, t in enumerate(_subcell_tables(tables, refine))
        ]
        weights = masses / refine**J
        for d in range(J):
            weights = np.repeat(weights, refine, axis=d)
        weights, unit = weights.ravel(), 1.0
    elif method == "monte_carlo":
        if n < 1:
            raise ValidationError("draw count must be >= 1")
        flat = masses.ravel()
        p = flat / flat.sum()
        weights, unit = None, total / n  # every draw carries total / n
    else:
        raise ValidationError(f"unknown method {method!r}")
    # one winner rule and one tally for both integrators, offer by offer; bin
    # 0 collects the undecidable mass
    tally = np.empty((len(offers), J + 2))
    for i, offer in enumerate(offers):
        ws = [t[i] for t in tables]
        if method == "monte_carlo":
            rng = np.random.default_rng(seed + i)
            cells = np.unravel_index(rng.choice(len(flat), size=n, p=p), masses.shape)
            u = rng.random((n, J))
            ws = [_lerp_tables(w[c], w[c + 1], uj) for w, c, uj in zip(ws, cells, u.T)]
        tally[i] = np.bincount(_winners(ws, offer[0]).ravel() + 1, weights, J + 2) * unit
    skipped, counts = tally[:, 0], tally[:, 1:]
    decided = counts.sum(axis=1)
    q = counts / np.where(decided > 0, decided, 1.0)[:, None]
    if a.ndim == 1:
        q, skipped, decided = q[0], float(skipped[0]), decided[0]
    if return_diagnostics:
        return q, {"skipped_mass": skipped, "leakage": 1.0 - decided, "mass": total}
    return q


@dataclass(frozen=True)
class VerifyReport:
    """Per-alternative error summary of the round-trip comparison."""

    max_abs_error: np.ndarray
    mean_abs_error: np.ndarray
    worst_point: tuple
    mass: float
    passed: bool
    tol: float
    method: str
    metadata: dict = dc_field(default_factory=dict)

    @property
    def overall_max(self) -> float:
        return float(np.max(self.max_abs_error))

    def to_dict(self) -> dict:
        return {
            "max_abs_error": self.max_abs_error.tolist(),
            "mean_abs_error": self.mean_abs_error.tolist(),
            "worst_point": list(self.worst_point),
            "mass": self.mass,
            "passed": self.passed,
            "tol": self.tol,
            "method": self.method,
            "metadata": self.metadata,
        }


def round_trip_report(
    field: ProbabilityField,
    utilities,
    density: DensityGrid,
    test_points,
    tol: float = 0.02,
    method: str = "grid_quadrature",
    n: int = 100_000,
    seed: int = 0,
) -> VerifyReport:
    """Compare rationalized probabilities against the field at test points."""
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    q_rec = rationalized_choice_prob(
        utilities, density, test_points, method=method, n=n, seed=seed
    )
    errs = np.abs(q_rec - field.interpolate(test_points))
    mass = float(density.cell_masses().sum())
    worst_i = int(np.argmax(errs.max(axis=1)))
    return VerifyReport(
        max_abs_error=errs.max(axis=0),
        mean_abs_error=errs.mean(axis=0),
        worst_point=tuple(test_points[worst_i]),
        mass=mass,
        passed=bool(errs.max() <= tol),
        tol=tol,
        method=method,
        metadata={"n_points": len(test_points), "draws": n, "seed": seed},
    )


def translation_invariance_check(
    field: ProbabilityField,
    shifts,
    tol: float = 5e-3,
    n_points: int = 50,
    seed: int = 0,
) -> dict:
    """Max |q(a + c*1) - q(a)| over sampled a per shift c; pass iff <= tol.

    Invariance under common translation of all offers is the observable face
    of utilities with unit slope in the numeraire (no income effects).
    """
    rng = np.random.default_rng(seed)
    lower = np.asarray(field.grid.lower)
    upper = np.asarray(field.grid.upper)
    shifts = [float(c) for c in shifts]
    c_max = max((abs(c) for c in shifts), default=0.0)
    if np.any(2 * c_max >= upper - lower):
        raise ValidationError("shifts too large for the field hull")
    lo, hi = lower + c_max, upper - c_max
    pts = lo + rng.random((n_points, field.grid.dims)) * (hi - lo)
    base = field.interpolate(pts)
    per_shift = {c: float(np.max(np.abs(field.interpolate(pts + c) - base))) for c in shifts}
    worst = max(per_shift.values(), default=0.0)
    return {
        "per_shift_max_deviation": per_shift,
        "max_deviation": worst,
        "tol": tol,
        "passed": worst <= tol,
        "n_points": n_points,
    }
