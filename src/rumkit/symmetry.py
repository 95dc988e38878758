"""Cross-partial ratio analysis of probability fields.

Three questions about a tabulated field:
  * does it satisfy the Daly-Zachary symmetry (all cross-partial ratios = 1)?
  * do the ratios for each pair depend only on that pair's coordinates?
  * what is the ratio surface t_jm(a_j, a_m), estimated by sieve regression?

The ratio convention throughout is

    ratio(j, m; a) = (dq_j/da_m) / (dq_m/da_j),

which for an additive-noise generator equals h'_m(a_m) / h'_j(a_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NegativeRatioError, RankDeficientBasisError, ValidationError
from .field import ProbabilityField, record_dict

BASIS_KINDS = ("polynomial", "log_polynomial")
_MAX_FAMILIES = 200  # (a_j, a_m) node pairs sampled per condition-A pair
_MAX_FAMILY_SIZE = 200  # off-pair node combinations sampled per family


def slutsky_ratio(field: ProbabilityField, k: int, l: int, points=None) -> np.ndarray:
    """(dq_k/da_l) / (dq_l/da_k) at (n, dims) hull points, or on every lattice
    node (shape grid.counts) when points is None.

    An entry whose denominator is below 1e-8 times the field's gradient_scale
    in magnitude is degenerate and comes back NaN.
    """
    if k == l:
        raise ValidationError("ratio needs two distinct alternatives")
    if points is None:
        num, den = field.node_mixed_partial(k, (l,)), field.node_mixed_partial(l, (k,))
    else:
        num, den = field.fd_stencil(k, (l,), points), field.fd_stencil(l, (k,), points)
    floor = 1e-8 * max(field.gradient_scale, 1e-300)
    # planes differenced for this call are overwritten: the quotient into num,
    # the magnitudes into den
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(num, den, out=num if num.flags.writeable else None)
    ratio[np.abs(den, out=den if den.flags.writeable else None) < floor] = np.nan
    return ratio


@dataclass
class SymmetryReport:
    """Outcome of a Daly-Zachary or condition-A style ratio test."""

    mode: str  # "daly_zachary" | "condition_a"
    tol: float
    pair_stats: dict  # key "k,l" or "j,m" -> {max_dev/spread, location, n_used, inconclusive}
    n_points: int
    vacuous: bool = False

    @property
    def inconclusive(self) -> bool:
        return any(s.get("inconclusive", False) for s in self.pair_stats.values())

    @property
    def worst(self) -> float:
        vals = [
            s["statistic"]
            for s in self.pair_stats.values()
            if not s.get("inconclusive", False)
        ]
        return max(vals) if vals else 0.0

    @property
    def passed(self) -> bool:
        if self.vacuous:
            return True
        if self.inconclusive:
            return False
        return self.worst <= self.tol

    def to_dict(self) -> dict:
        return record_dict(self, "worst", "passed", "inconclusive")


def test_daly_zachary(
    field: ProbabilityField,
    tol: float = 0.01,
    n_points: int = 100,
    seed: int = 0,
) -> SymmetryReport:
    """Max |ratio - 1| over all alternative pairs and sample points.

    n_points interior points are drawn uniformly from the hull inset by one
    node per axis (deterministic in seed). The inset keeps every sample
    where fd_stencil is a central difference.
    """
    # the node-gradient block: every pair reads two of its planes, and
    # gradient_scale and condition A (which check runs next) read views of it
    field.node_gradients
    rng = np.random.default_rng(seed)
    lo, hi = np.array([(ax[1], ax[-2]) for ax in field.grid.axes()]).T
    pts = lo + rng.random((n_points, field.grid.dims)) * (hi - lo)
    stats = {}
    for k, l in combinations(range(field.n_alternatives), 2):
        ratio = slutsky_ratio(field, k, l, pts)
        ok = ~np.isnan(ratio)
        dev = np.abs(ratio[ok] - 1.0)
        used = dev.size
        i = int(np.argmax(dev)) if used else None  # first of equal maxima
        stats[f"{k},{l}"] = {
            "statistic": float(dev[i]) if used else None,
            "location": pts[ok][i].tolist() if used else None,
            "n_used": used,
            "inconclusive": used == 0,
        }
    return SymmetryReport("daly_zachary", tol, stats, len(pts))


def test_condition_A(field: ProbabilityField, m: int, tol: float, seed: int = 0) -> SymmetryReport:
    """For each j != m, spread of ratio(j, m) across the off-pair coordinates.

    Families are grid-node sets sharing (a_j, a_m) while the remaining
    coordinates range over interior nodes; at most _MAX_FAMILIES families of
    at most _MAX_FAMILY_SIZE nodes are sampled (deterministic in seed).
    Vacuous for J = 1.
    """
    nalt = field.n_alternatives
    if not 0 <= m < nalt:
        raise ValidationError(f"pivot {m} must name an alternative 0..{nalt - 1}")
    if nalt == 2:
        return SymmetryReport("condition_a", tol, {}, 0, vacuous=True)
    rng = np.random.default_rng(seed)
    interior = [np.arange(1, n - 1) for n in field.grid.counts]
    stats = {}
    for j in range(nalt):
        if j == m:
            continue
        pairs = np.meshgrid(interior[j], interior[m], indexing="ij")
        pair_ij, pair_im = pairs[0].ravel(), pairs[1].ravel()
        if len(pair_ij) > _MAX_FAMILIES:
            sel = rng.choice(len(pair_ij), size=_MAX_FAMILIES, replace=False)
            pair_ij, pair_im = pair_ij[sel], pair_im[sel]
        off_axes = [k for k in range(nalt) if k not in (j, m)]
        off_grids = np.meshgrid(*[interior[k] for k in off_axes], indexing="ij")
        off_combos = np.stack([g.ravel() for g in off_grids], axis=-1)
        if off_combos.shape[0] > _MAX_FAMILY_SIZE:
            sel = rng.choice(off_combos.shape[0], size=_MAX_FAMILY_SIZE, replace=False)
            off_combos = off_combos[sel]
        # one gather per pair: rows are families (a_j, a_m), columns members
        idx = [None] * nalt
        idx[j], idx[m] = pair_ij[:, None], pair_im[:, None]
        for col, k in enumerate(off_axes):
            idx[k] = off_combos[None, :, col]
        ratios = slutsky_ratio(field, j, m)[tuple(idx)]
        ok = ~np.isnan(ratios)
        usable = ok.sum(axis=1) >= max(2, 0.5 * ok.shape[1])
        spread = np.where(
            usable,
            np.max(ratios, axis=1, where=ok, initial=-np.inf)
            - np.min(ratios, axis=1, where=ok, initial=np.inf),
            -np.inf,
        )
        i = int(np.argmax(spread)) if usable.any() else None  # first of equal maxima
        stats[f"{j},{m}"] = {
            "statistic": float(spread[i]) if i is not None else None,
            "location": [int(pair_ij[i]), int(pair_im[i])] if i is not None else None,
            "n_used": int(usable.sum()),
            "inconclusive": int((~usable).sum()) > 0.5 * len(pair_ij),
        }
    return SymmetryReport("condition_a", tol, stats, len(pair_ij))


# -- ratio surfaces -------------------------------------------------------


def _basis_terms(degree: int) -> list[tuple[int, int]]:
    """(p, q) exponent pairs for x_j^p x_m^q, total degree ascending."""
    terms = []
    for d in range(degree + 1):
        for p in range(d, -1, -1):
            terms.append((p, d - p))
    return terms


@dataclass
class RatioFunction:
    """Bivariate ratio surface t_jm(a_j, a_m) >= 0 on a domain rectangle: the
    least-squares polynomial (or log-polynomial) sieve fit.
    build_omega takes any callable t(a_j, a_m) in its place."""

    j: int
    pivot: int
    domain: tuple[tuple[float, float], tuple[float, float]]  # (a_j range, a_m range)
    basis: str
    degree: int
    coefficients: np.ndarray
    fit_rms: float | None = None
    fit_max_residual: float | None = None

    def __call__(self, a_j, a_m):
        a_j = np.asarray(a_j, dtype=float)
        a_m = np.asarray(a_m, dtype=float)
        if self.basis == "log_polynomial":
            xj, xm = np.log(a_j), np.log(a_m)
        else:
            xj, xm = a_j, a_m
        terms = _basis_terms(self.degree)
        acc = np.zeros(np.broadcast(xj, xm).shape)
        for c, (p, q) in zip(self.coefficients, terms):
            acc = acc + c * xj**p * xm**q
        if self.basis == "log_polynomial":
            return np.exp(acc)
        return np.maximum(acc, 0.0)

    def to_dict(self) -> dict:
        return record_dict(self)


def ratio_samples(field: ProbabilityField, j: int, m: int) -> tuple[np.ndarray, ...]:
    """(a_j, a_m, ratio) over non-degenerate interior grid nodes."""
    ratio = slutsky_ratio(field, j, m)[field.interior_slices()]
    ok = ~np.isnan(ratio)
    axes = field.grid.axes()

    def coordinate(k):  # a_k at the kept nodes, broadcast rather than meshed
        along = [1] * ratio.ndim
        along[k] = -1
        return np.broadcast_to(axes[k][1:-1].reshape(along), ratio.shape)[ok]

    return coordinate(j), coordinate(m), ratio[ok]


def fit_ratio_sieve(
    field: ProbabilityField,
    j: int,
    m: int = 0,
    basis: str = "polynomial",
    degree: int = 1,
) -> RatioFunction:
    """Least-squares projection of the ratio (or its log) on bivariate basis terms.

    Basis terms are ordered by ascending total degree, x_j powers first within a
    degree: 1, x_j, x_m, x_j^2, x_j x_m, x_m^2, ...
    """
    if basis not in BASIS_KINDS:
        raise ValidationError(f"unknown basis {basis!r}")
    if j == m or not 0 <= m < field.n_alternatives:
        raise ValidationError(
            f"pivot {m} must name an alternative 0..{field.n_alternatives - 1} other than {j}"
        )
    if degree < 0:
        raise ValidationError(f"sieve degree must be >= 0, got {degree}")
    aj, am, r = ratio_samples(field, j, m)
    terms = _basis_terms(degree)
    if len(aj) < len(terms):
        raise RankDeficientBasisError(
            f"{len(terms)} basis terms but only {len(aj)} usable samples"
        )
    if basis == "log_polynomial":
        if np.any(aj <= 0) or np.any(am <= 0):
            raise ValidationError("log_polynomial basis requires positive coordinates a_j, a_m")
        if np.any(r <= 0):
            raise NegativeRatioError(
                "log_polynomial basis requires strictly positive ratio samples"
            )
        y = np.log(r)
        xj, xm = np.log(aj), np.log(am)
    else:
        y = r
        xj, xm = aj, am
    design = np.empty((len(y), len(terms)))
    for col, (p, q) in enumerate(terms):
        np.multiply(xj**p, xm**q, out=design[:, col])
    del aj, am, r, xj, xm  # the design holds what lstsq needs
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < len(terms):
        raise RankDeficientBasisError(
            f"design matrix rank {rank} < basis size {len(terms)} "
            f"({basis} degree {degree})"
        )
    resid = design @ coef - y
    rf = RatioFunction(
        j=j,
        pivot=m,
        basis=basis,
        degree=degree,
        coefficients=coef,
        domain=(
            (field.grid.lower[j], field.grid.upper[j]),
            (field.grid.lower[m], field.grid.upper[m]),
        ),
        fit_rms=float(np.sqrt(np.mean(resid**2))),
        fit_max_residual=float(np.max(np.abs(resid))),
    )
    return rf
