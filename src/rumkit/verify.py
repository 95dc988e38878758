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
from .field import ProbabilityField, multilinear, record_dict
from .model import winners

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


def _threshold_quadrature(utilities, density: DensityGrid, offers, tables):
    """Decided mass per alternative and undecidable mass, per offer.

    C, the node cumulative of the cell masses, interpolated multilinearly is
    the exact CDF of the cell-uniform density. Alternative k loses to utility
    w exactly below the level tau_k(w) = omega_k(a_k, w), w clipped to
    omega_k's a_0 domain (which reproduces the +/-inf utilities), so q_0 =
    C(tau(a_0)). Alternative j wins above the cut v_j = tau_j(a_0): each v_j
    cell's part above the cut carries its slab of diff(C, axis=j) at
    tau_{-j}(w_j), w_j interpolated from the node table at the part's
    midpoint. Undecidable mass lies where two v_k exceed tau_k(+inf).
    """
    J = density.n_dims
    axes = density.axes
    cum = density.cumulative_from_density()

    def tau(k, w):
        om = utilities[k].omega
        return om(offers[:, k + 1, None], np.clip(w, *om.domain[1]))

    cut = [tau(k, offers[:, :1]) for k in range(J)]
    top = [tau(k, np.inf) for k in range(J)]
    c_top = multilinear(cum, axes, top, ())
    one_above = sum(
        multilinear(cum, axes, top[:k] + [np.inf] + top[k + 1 :], ()) - c_top
        for k in range(J)
    )
    counts = [multilinear(cum, axes, cut, ())[:, 0]]
    for j, (v, t) in enumerate(zip(axes, tables)):
        lo, hi = v[:-1], v[1:]
        start = np.clip(cut[j], lo, hi)
        w = _lerp_tables(t[:, :-1], t[:, 1:], (0.5 * (start + hi) - lo) / (hi - lo))
        others = [k for k in range(J) if k != j]
        slab = multilinear(
            np.moveaxis(np.diff(cum, axis=j), j, 0),
            [axes[k] for k in others],
            [tau(k, w) for k in others],
            (np.arange(len(lo)),),
        )
        counts.append(np.sum((hi - start) / (hi - lo) * slab, axis=1))
    counts = np.column_stack(counts)
    skipped = cum[(-1,) * J] - c_top - one_above
    return counts, skipped[:, 0]


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
    diagnostics take its leading shape. Every entry must be finite and every
    a_j inside omega_j's a_j domain. grid_quadrature integrates the
    cell-uniform density over each alternative's winning region, cut by level
    thresholds (_threshold_quadrature); monte_carlo draws n cells by mass
    (inverse CDF) from default_rng(seed), jitters uniformly within each cell,
    and judges every offer's argmax at the same jittered points using
    linearly interpolated w, so each row of a batch equals a single-offer call
    at the same seed. Each q is renormalized over decided mass.
    """
    a = np.asarray(a, dtype=float)
    J = density.n_dims
    if a.ndim not in (1, 2) or a.shape[-1] != J + 1:
        raise ValidationError("offer vector length must be J + 1")
    offers = np.atleast_2d(a)
    if not np.all(np.isfinite(offers)):
        raise ValidationError("offers must be finite")
    for j, u in enumerate(utilities, start=1):
        u.omega.require_in_domain(0, offers[:, j])
    if method not in ("grid_quadrature", "monte_carlo"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "monte_carlo" and n < 1:
        raise ValidationError("draw count must be >= 1")
    masses = density.cell_masses()
    total = float(masses.sum())
    if not _MASS_WINDOW[0] <= total <= _MASS_WINDOW[1]:
        raise UnnormalizedDensityError(
            f"density mass {total:.4f} outside {_MASS_WINDOW}"
        )
    tables = _utility_tables(utilities, density, offers)
    if method == "grid_quadrature":
        counts, skipped = _threshold_quadrature(utilities, density, offers, tables)
    else:
        # one draw set shared by every offer (common random numbers), then one
        # winner rule and one tally per offer; the outside option holds utility
        # a_0 and wins ties, bin 0 collects the undecidable draws (more than one
        # alternative at +inf), and every draw carries total / n
        flat = masses.ravel()
        rng = np.random.default_rng(seed)
        cells = np.unravel_index(rng.choice(len(flat), size=n, p=flat / flat.sum()), masses.shape)
        u = rng.random((n, J)).T
        tally = np.empty((len(offers), J + 2))
        for i, offer in enumerate(offers):
            ws = [_lerp_tables(t[i][c], t[i][c + 1], uj) for t, c, uj in zip(tables, cells, u)]
            bins = winners([np.full(n, offer[0]), *ws], J + 1).astype(np.intp) + 1
            bins[sum(w == np.inf for w in ws) > 1] = 0
            tally[i] = np.bincount(bins, None, J + 2) * (total / n)
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
        return record_dict(self)


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
    q_rec, diag = rationalized_choice_prob(
        utilities, density, test_points, method=method, n=n, seed=seed,
        return_diagnostics=True,
    )
    errs = np.abs(q_rec - field.interpolate(test_points))
    worst_i = int(np.argmax(errs.max(axis=1)))
    return VerifyReport(
        max_abs_error=errs.max(axis=0),
        mean_abs_error=errs.mean(axis=0),
        worst_point=tuple(test_points[worst_i]),
        mass=diag["mass"],
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
