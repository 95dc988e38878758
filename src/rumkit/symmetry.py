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

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegeneratePointError,
    NegativeRatioError,
    RankDeficientBasisError,
    ValidationError,
)
from .field import ProbabilityField

BASIS_KINDS = ("polynomial", "log_polynomial")


def default_eps_denom(field: ProbabilityField) -> float:
    """Degeneracy threshold: tiny relative to the field's median derivative scale."""
    g = field.node_gradients
    scale = float(np.median(np.abs(g)))
    return 1e-8 * max(scale, 1e-300)


def slutsky_ratio(
    field: ProbabilityField, k: int, l: int, a, eps_denom: float | None = None
) -> float:
    """(dq_k/da_l) / (dq_l/da_k) at a point; raises on degenerate denominators."""
    if k == l:
        raise ValidationError("ratio needs two distinct alternatives")
    if eps_denom is None:
        eps_denom = default_eps_denom(field)
    num = field.partial(k, l, a)
    den = field.partial(l, k, a)
    if abs(den) < eps_denom:
        raise DegeneratePointError(
            f"denominator derivative dq_{l}/da_{k} = {den!r} below threshold at {np.asarray(a).tolist()}"
        )
    return num / den


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
        return {
            "mode": self.mode,
            "tol": self.tol,
            "pair_stats": self.pair_stats,
            "n_points": self.n_points,
            "vacuous": self.vacuous,
            "worst": self.worst,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def test_daly_zachary(
    field: ProbabilityField,
    points=None,
    tol: float = 0.01,
    eps_denom: float | None = None,
    n_points: int = 100,
    seed: int = 0,
) -> SymmetryReport:
    """Max |ratio - 1| over all alternative pairs and sample points.

    With points=None, n_points interior points are drawn uniformly from the
    hull inset by one grid step per axis (deterministic in seed).
    """
    if eps_denom is None:
        eps_denom = default_eps_denom(field)
    if points is None:
        rng = np.random.default_rng(seed)
        lo = np.asarray(field.grid.lower) + np.asarray(field.grid.spacing)
        hi = np.asarray(field.grid.upper) - np.asarray(field.grid.spacing)
        points = lo + rng.random((n_points, field.grid.dims)) * (hi - lo)
    nalt = field.n_alternatives
    pts = [np.asarray(p, dtype=float) for p in points]
    stats = {}
    for k, l in combinations(range(nalt), 2):
        max_dev = -1.0
        loc = None
        used = 0
        for p in pts:
            try:
                r = slutsky_ratio(field, k, l, p, eps_denom)
            except DegeneratePointError:
                continue
            used += 1
            dev = abs(r - 1.0)
            if dev > max_dev:
                max_dev, loc = dev, p.tolist()
        stats[f"{k},{l}"] = {
            "statistic": max_dev if used else None,
            "location": loc,
            "n_used": used,
            "inconclusive": used == 0,
        }
    return SymmetryReport("daly_zachary", tol, stats, len(pts))


def _interior_index_arrays(field: ProbabilityField) -> list[np.ndarray]:
    return [np.arange(1, n - 1) for n in field.grid.counts]


def test_condition_A(
    field: ProbabilityField,
    m: int,
    tol: float,
    eps_denom: float | None = None,
    max_families: int = 200,
    max_family_size: int = 200,
    seed: int = 0,
) -> SymmetryReport:
    """For each j != m, spread of ratio(j, m) across the off-pair coordinates.

    Families are grid-node sets sharing (a_j, a_m) while the remaining
    coordinates range over interior nodes. Vacuous for J = 1.
    """
    nalt = field.n_alternatives
    if nalt == 2:
        return SymmetryReport("condition_a", tol, {}, 0, vacuous=True)
    if eps_denom is None:
        eps_denom = default_eps_denom(field)
    rng = np.random.default_rng(seed)
    grads = field.node_gradients
    interior = _interior_index_arrays(field)
    stats = {}
    for j in range(nalt):
        if j == m:
            continue
        num = grads[j, m]
        den = grads[m, j]
        pair_idx = [
            (ij, im)
            for ij in interior[j]
            for im in interior[m]
        ]
        if len(pair_idx) > max_families:
            sel = rng.choice(len(pair_idx), size=max_families, replace=False)
            pair_idx = [pair_idx[i] for i in sel]
        off_axes = [k for k in range(nalt) if k not in (j, m)]
        off_grids = np.meshgrid(*[interior[k] for k in off_axes], indexing="ij")
        off_combos = np.stack([g.ravel() for g in off_grids], axis=-1)
        if off_combos.shape[0] > max_family_size:
            sel = rng.choice(off_combos.shape[0], size=max_family_size, replace=False)
            off_combos = off_combos[sel]
        max_spread = -1.0
        loc = None
        n_inconclusive = 0
        for ij, im in pair_idx:
            idx = np.empty((off_combos.shape[0], nalt), dtype=int)
            idx[:, j] = ij
            idx[:, m] = im
            for col, k in enumerate(off_axes):
                idx[:, k] = off_combos[:, col]
            flat = tuple(idx[:, k] for k in range(nalt))
            nums = num[flat]
            dens = den[flat]
            ok = np.abs(dens) >= eps_denom
            if ok.sum() < max(2, 0.5 * len(ok)):
                n_inconclusive += 1
                continue
            ratios = nums[ok] / dens[ok]
            spread = float(ratios.max() - ratios.min())
            if spread > max_spread:
                max_spread = spread
                loc = [int(ij), int(im)]
        stats[f"{j},{m}"] = {
            "statistic": max_spread if max_spread >= 0 else None,
            "location": loc,
            "n_used": len(pair_idx) - n_inconclusive,
            "inconclusive": n_inconclusive > 0.5 * len(pair_idx),
        }
    return SymmetryReport("condition_a", tol, stats, len(pair_idx))


def recommend_pivot(field: ProbabilityField, eps_denom: float | None = None) -> int:
    """Pivot whose smallest |dq_m/da_j| over interior nodes is largest."""
    grads = field.node_gradients
    interior = field.interior_slices()
    best, best_val = 0, -np.inf
    for m in range(field.n_alternatives):
        worst = np.inf
        for j in range(field.n_alternatives):
            if j == m:
                continue
            worst = min(worst, float(np.abs(grads[m, j][interior]).min()))
        if worst > best_val:
            best, best_val = m, worst
    return best


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
    """Bivariate ratio surface t_jm(a_j, a_m) >= 0 on a domain rectangle.

    form is one of:
      analytic -- derived from a ChoiceModelSpec's marginal utilities
      sieve    -- least-squares polynomial (or log-polynomial) fit
      callable -- arbitrary function supplied by the caller
    """

    j: int
    pivot: int
    form: str
    domain: tuple[tuple[float, float], tuple[float, float]]  # (a_j range, a_m range)
    basis: str | None = None
    degree: int | None = None
    coefficients: np.ndarray | None = None
    fn: object = None
    fit_rms: float | None = None
    fit_max_residual: float | None = None

    def __call__(self, a_j, a_m):
        a_j = np.asarray(a_j, dtype=float)
        a_m = np.asarray(a_m, dtype=float)
        if self.form in ("analytic", "callable"):
            return np.maximum(np.asarray(self.fn(a_j, a_m), dtype=float), 0.0)
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

    @classmethod
    def from_model(cls, model, j: int, m: int = 0) -> "RatioFunction":
        fn = model.marginal_utility_ratio(j, m)
        dom = (model.domain[j], model.domain[m])
        return cls(j=j, pivot=m, form="analytic", domain=dom, fn=fn)

    @classmethod
    def from_callable(cls, fn, domain, j: int = 1, m: int = 0) -> "RatioFunction":
        return cls(j=j, pivot=m, form="callable", domain=tuple(domain), fn=fn)

    def to_dict(self) -> dict:
        if self.form != "sieve":
            raise ValidationError("only sieve ratio functions serialize to JSON")
        return {
            "j": self.j,
            "pivot": self.pivot,
            "form": self.form,
            "basis": self.basis,
            "degree": self.degree,
            "coefficients": [float(c) for c in self.coefficients],
            "domain": [list(self.domain[0]), list(self.domain[1])],
            "fit_rms": self.fit_rms,
            "fit_max_residual": self.fit_max_residual,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RatioFunction":
        return cls(
            j=int(d["j"]),
            pivot=int(d["pivot"]),
            form="sieve",
            basis=d["basis"],
            degree=int(d["degree"]),
            coefficients=np.asarray(d["coefficients"], dtype=float),
            domain=(tuple(d["domain"][0]), tuple(d["domain"][1])),
            fit_rms=d.get("fit_rms"),
            fit_max_residual=d.get("fit_max_residual"),
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "RatioFunction":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def ratio_samples(
    field: ProbabilityField, j: int, m: int, eps_denom: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_j, a_m, ratio) over non-degenerate interior grid nodes."""
    if eps_denom is None:
        eps_denom = default_eps_denom(field)
    grads = field.node_gradients
    interior = field.interior_slices()
    num = grads[j, m][interior]
    den = grads[m, j][interior]
    axes = field.grid.axes()
    mesh = np.meshgrid(*[ax[1:-1] for ax in axes], indexing="ij")
    ok = np.abs(den) >= eps_denom
    return mesh[j][ok], mesh[m][ok], num[ok] / den[ok]


def fit_ratio_sieve(
    field: ProbabilityField,
    j: int,
    m: int = 0,
    basis: str = "polynomial",
    degree: int = 1,
    eps_denom: float | None = None,
) -> RatioFunction:
    """Least-squares projection of the ratio (or its log) on bivariate basis terms.

    Basis terms are ordered by ascending total degree, x_j powers first within a
    degree: 1, x_j, x_m, x_j^2, x_j x_m, x_m^2, ...
    """
    if basis not in BASIS_KINDS:
        raise ValidationError(f"unknown basis {basis!r}")
    aj, am, r = ratio_samples(field, j, m, eps_denom)
    terms = _basis_terms(degree)
    if len(aj) < len(terms):
        raise RankDeficientBasisError(
            f"{len(terms)} basis terms but only {len(aj)} usable samples"
        )
    if basis == "log_polynomial":
        if np.any(r <= 0):
            raise NegativeRatioError(
                "log_polynomial basis requires strictly positive ratio samples"
            )
        y = np.log(r)
        xj, xm = np.log(aj), np.log(am)
    else:
        y = r
        xj, xm = aj, am
    design = np.stack([xj**p * xm**q for p, q in terms], axis=-1)
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
        form="sieve",
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


def max_ratio_gradient(t: RatioFunction, n: int = 201) -> float:
    """Empirical max |dt/da_j| over the domain; a Lipschitz diagnostic input."""
    (j_lo, j_hi), (m_lo, m_hi) = t.domain
    aj = np.linspace(j_lo, j_hi, n)
    am = np.linspace(m_lo, m_hi, n)
    AJ, AM = np.meshgrid(aj, am, indexing="ij")
    vals = t(AJ, AM)
    d = np.gradient(vals, aj, axis=0, edge_order=2)
    return float(np.max(np.abs(d)))
