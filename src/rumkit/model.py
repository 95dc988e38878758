"""Forward random-utility choice models.

A model is a set of strictly increasing sub-utilities, one per alternative,
plus an additive noise family. Choice probabilities are generated either in
closed form (iid Gumbel noise gives the usual softmax) or by Monte Carlo
simulation of the argmax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, NoClosedFormError, ValidationError
from .field import GridSpec, ProbabilityField

_MONOTONE_SAMPLES = 65
_SUM_TOL = 1e-12

UTILITY_KINDS = ("linear", "log", "power", "polynomial")
NOISE_KINDS = ("gumbel_iid", "gaussian_iid", "gaussian_correlated")


@dataclass(frozen=True)
class UtilityPrimitive:
    """One sub-utility h(a), strictly increasing on its domain.

    kinds and params:
      linear:     (b0, b1)        h(a) = b0 + b1*a, b1 > 0
      log:        (alpha,)        h(a) = alpha*ln(a), alpha > 0, needs a > 0
      power:      (c, e)          h(a) = c*a**e, c > 0, e > 0, needs a >= 0
      polynomial: (c0, ..., cn)   monotonicity checked by sampling on the domain
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValidationError(f"unknown utility kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if self.kind == "linear":
            if len(p) != 2 or p[1] <= 0:
                raise ValidationError("linear utility needs (b0, b1) with b1 > 0")
        elif self.kind == "log":
            if len(p) != 1 or p[0] <= 0:
                raise ValidationError("log utility needs (alpha,) with alpha > 0")
        elif self.kind == "power":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValidationError("power utility needs (c, e) with c > 0, e > 0")
        elif self.kind == "polynomial":
            if len(p) < 2:
                raise ValidationError("polynomial utility needs at least 2 coefficients")

    @property
    def needs_positive(self) -> bool:
        return self.kind == "log"

    def value(self, a):
        a = np.asarray(a, dtype=float)
        p = self.params
        if self.kind == "linear":
            return p[0] + p[1] * a
        if self.kind == "log":
            return p[0] * np.log(a)
        if self.kind == "power":
            return p[0] * np.power(a, p[1])
        return np.polynomial.polynomial.polyval(a, np.array(p))

    def derivative(self, a):
        a = np.asarray(a, dtype=float)
        p = self.params
        if self.kind == "linear":
            return np.full_like(a, p[1])
        if self.kind == "log":
            return p[0] / a
        if self.kind == "power":
            return p[0] * p[1] * np.power(a, p[1] - 1.0)
        der = np.polynomial.polynomial.polyder(np.array(p))
        return np.polynomial.polynomial.polyval(a, der)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise family for the random-utility terms."""

    kind: str
    scale: float = 1.0
    correlation: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if self.scale <= 0:
            raise ValidationError("noise scale must be > 0")
        if self.kind == "gaussian_correlated":
            if self.correlation is None:
                raise ValidationError("gaussian_correlated needs a correlation matrix")
            c = np.asarray(self.correlation, dtype=float)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValidationError("correlation matrix must be square")
            if not np.allclose(c, c.T, atol=1e-12):
                raise ValidationError("correlation matrix must be symmetric")
            if np.min(np.linalg.eigvalsh(c)) <= 0:
                raise ValidationError("correlation matrix must be positive definite")

    def correlation_array(self) -> np.ndarray | None:
        if self.correlation is None:
            return None
        return np.asarray(self.correlation, dtype=float)


@dataclass(frozen=True)
class ChoiceModelSpec:
    """Ground-truth generator: J+1 sub-utilities, a noise spec, and a box domain."""

    utilities: tuple[UtilityPrimitive, ...]
    noise: NoiseSpec
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        object.__setattr__(
            self, "domain", tuple((float(lo), float(hi)) for lo, hi in self.domain)
        )
        if len(self.utilities) < 2:
            raise ValidationError("need at least 2 alternatives (J >= 1)")
        if len(self.domain) != len(self.utilities):
            raise ValidationError("domain must give one interval per alternative")
        for j, ((lo, hi), u) in enumerate(zip(self.domain, self.utilities)):
            if not lo < hi:
                raise ValidationError(f"domain interval for alternative {j} is empty")
            if u.needs_positive and lo <= 0:
                raise ValidationError(
                    f"alternative {j}: {u.kind} utility requires a strictly positive domain"
                )
            xs = np.linspace(lo, hi, _MONOTONE_SAMPLES)
            vals = u.value(xs)
            if not np.all(np.diff(vals) > 0):
                raise ValidationError(
                    f"alternative {j}: utility is not strictly increasing on its domain"
                )
        corr = self.noise.correlation_array()
        if corr is not None and corr.shape[0] != len(self.utilities):
            raise ValidationError("correlation matrix size must match alternative count")

    @property
    def n_alternatives(self) -> int:
        return len(self.utilities)

    @property
    def n_choices(self) -> int:
        """J: number of inside alternatives (indices 1..J)."""
        return len(self.utilities) - 1

    def require_in_domain(self, j: int, a: float) -> None:
        lo, hi = self.domain[j]
        if not lo <= a <= hi:
            raise DomainError(
                f"a={a!r} outside domain [{lo}, {hi}] of alternative {j}"
            )

    def marginal_utility_ratio(self, j: int, m: int):
        """Analytic h'_m(a_m) / h'_j(a_j) as a function of (a_j, a_m)."""
        hj, hm = self.utilities[j], self.utilities[m]

        def ratio(a_j, a_m):
            return hm.derivative(a_m) / hj.derivative(a_j)

        return ratio

    # -- JSON wire format -------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "alternatives": self.n_alternatives,
            "utilities": [
                {"kind": u.kind, "params": list(u.params)} for u in self.utilities
            ],
            "noise": {"kind": self.noise.kind, "scale": self.noise.scale},
            "domain": [list(iv) for iv in self.domain],
        }
        if self.noise.correlation is not None:
            d["noise"]["correlation"] = [list(r) for r in self.noise.correlation]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChoiceModelSpec":
        try:
            utils = tuple(
                UtilityPrimitive(u["kind"], tuple(u["params"])) for u in d["utilities"]
            )
            noise_d = d["noise"]
            corr = noise_d.get("correlation")
            noise = NoiseSpec(
                noise_d["kind"],
                float(noise_d.get("scale", 1.0)),
                tuple(tuple(r) for r in corr) if corr is not None else None,
            )
            domain = tuple((iv[0], iv[1]) for iv in d["domain"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"malformed model document: {exc}") from exc
        if "alternatives" in d and int(d["alternatives"]) != len(utils):
            raise ValidationError(
                "utilities list length does not match declared alternative count"
            )
        return cls(utils, noise, domain)

    @classmethod
    def from_json(cls, path) -> "ChoiceModelSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def validate_prob_vector(p: np.ndarray, sum_tol: float = _SUM_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-15) or np.any(p > 1 + 1e-15):
        raise ValidationError("probability entries must lie in [0, 1]")
    if abs(p.sum() - 1.0) > sum_tol:
        raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def utility_value(model: ChoiceModelSpec, j: int, a: float) -> float:
    """h_j(a) with domain checking."""
    model.require_in_domain(j, a)
    return float(model.utilities[j].value(a))


def choice_prob_closed_form(model: ChoiceModelSpec, a) -> np.ndarray:
    """Exact choice probabilities for iid Gumbel noise (softmax of utilities)."""
    if model.noise.kind != "gumbel_iid":
        raise NoClosedFormError(
            f"no closed form for noise kind {model.noise.kind!r}; use Monte Carlo"
        )
    a = np.asarray(a, dtype=float)
    if a.shape != (model.n_alternatives,):
        raise ValidationError("offer vector length must equal alternative count")
    for j, aj in enumerate(a):
        model.require_in_domain(j, float(aj))
    logits = np.array(
        [u.value(aj) for u, aj in zip(model.utilities, a)]
    ) / model.noise.scale
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def _noise_draws(model: ChoiceModelSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    k = model.n_alternatives
    noise = model.noise
    if noise.kind == "gumbel_iid":
        return rng.gumbel(0.0, noise.scale, size=(n, k))
    if noise.kind == "gaussian_iid":
        return rng.normal(0.0, noise.scale, size=(n, k))
    chol = np.linalg.cholesky(noise.correlation_array())
    z = rng.normal(size=(n, k))
    return noise.scale * (z @ chol.T)


def _node_rng(seed: int, node_index: int) -> np.random.Generator:
    # Per-node stream keyed by (seed, node): independent of evaluation order.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node_index,)))


def choice_prob_monte_carlo(
    model: ChoiceModelSpec, a, n: int, seed: int, _node: int = 0
) -> np.ndarray:
    """Frequency of argmax_j [h_j(a_j) + eps_j] over n simulated draws.

    Ties break toward the lowest index (a measure-zero event for continuous
    noise). Deterministic given (seed, node index).
    """
    if n < 1:
        raise ValidationError("draw count must be >= 1")
    a = np.asarray(a, dtype=float)
    for j, aj in enumerate(a):
        model.require_in_domain(j, float(aj))
    base = np.array([u.value(aj) for u, aj in zip(model.utilities, a)])
    rng = _node_rng(seed, _node)
    total = base[None, :] + _noise_draws(model, rng, n)
    winners = np.argmax(total, axis=1)
    counts = np.bincount(winners, minlength=model.n_alternatives)
    return counts / float(n)


def tabulate(
    model: ChoiceModelSpec,
    grid: GridSpec,
    method: str = "closed_form",
    n: int = 100_000,
    seed: int = 0,
) -> ProbabilityField:
    """Tabulate q_j on a rectangular grid; axis k of the grid is a_k."""
    if grid.n_axes != model.n_alternatives:
        raise GridMismatchError("grid must have one axis per alternative")
    for j, (lo, hi) in enumerate(zip(grid.lower, grid.upper)):
        if lo < model.domain[j][0] or hi > model.domain[j][1]:
            raise GridMismatchError(
                f"grid axis {j} [{lo}, {hi}] exits model domain {model.domain[j]}"
            )
    if method == "closed_form":
        if model.noise.kind != "gumbel_iid":
            raise NoClosedFormError(
                f"no closed form for noise kind {model.noise.kind!r}; use Monte Carlo"
            )
        logit_axes = [
            u.value(ax) / model.noise.scale for u, ax in zip(model.utilities, grid.axes())
        ]
        mesh = np.meshgrid(*logit_axes, indexing="ij")
        logits = np.stack(mesh, axis=-1)
        logits -= logits.max(axis=-1, keepdims=True)
        w = np.exp(logits)
        values = w / w.sum(axis=-1, keepdims=True)
        provenance = f"closed_form:{model_hash(model)}"
    elif method == "monte_carlo":
        shape = grid.counts + (model.n_alternatives,)
        values = np.empty(shape)
        axes = grid.axes()
        for flat, idx in enumerate(np.ndindex(*grid.counts)):
            a = np.array([axes[k][i] for k, i in enumerate(idx)])
            values[idx] = choice_prob_monte_carlo(model, a, n, seed, _node=flat)
        provenance = f"monte_carlo:n={n}:seed={seed}:{model_hash(model)}"
    else:
        raise ValidationError(f"unknown tabulation method {method!r}")
    return ProbabilityField(grid=grid, values=values, provenance=provenance)


def tabulate_from_utilities(grid: GridSpec, utilities, scale: float = 1.0) -> ProbabilityField:
    """Softmax field for arbitrary utility callables u_j(a) of the full offer vector.

    Used to plant fields that violate the separable structure (e.g. interaction
    terms that break condition-A style restrictions).
    """
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    logits = np.stack([np.asarray(u(mesh)) / scale for u in utilities], axis=-1)
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    values = w / w.sum(axis=-1, keepdims=True)
    return ProbabilityField(grid=grid, values=values, provenance="custom_softmax")


def model_hash(model: ChoiceModelSpec) -> str:
    import hashlib

    blob = json.dumps(model.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
