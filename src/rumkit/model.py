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
from .field import GridSpec, ProbabilityField, axis0_slabs

_MONOTONE_SAMPLES = 65

UTILITY_KINDS = ("linear", "log", "power", "polynomial")
NOISE_KINDS = ("gumbel_iid", "gaussian_iid", "gaussian_correlated")


def _known_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    """Raise ValidationError on a key of doc outside allowed: a typo is not a default."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}, not one of {allowed}")


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
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError(f"domain bounds for alternative {j} must be finite")
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

    def require_in_domain(self, j: int, a) -> None:
        """Raise DomainError unless every entry of a lies in alternative j's domain."""
        lo, hi = self.domain[j]
        a = np.asarray(a, dtype=float)
        bad = a[~((lo <= a) & (a <= hi))]
        if bad.size:
            raise DomainError(f"a={bad[0]} outside domain [{lo}, {hi}] of alternative {j}")

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
            _known_keys(d, ("alternatives", "utilities", "noise", "domain"), "model document")
            _known_keys(d["noise"], ("kind", "scale", "correlation"), "noise")
            for u in d["utilities"]:
                _known_keys(u, ("kind", "params"), "utility")
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
            if "alternatives" in d and int(d["alternatives"]) != len(utils):
                raise ValidationError(
                    "utilities list length does not match declared alternative count"
                )
            return cls(utils, noise, domain)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"malformed model document: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ChoiceModelSpec":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"model file is not JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _softmax(planes, values: np.ndarray) -> np.ndarray:
    """Write the softmax over k of the logit planes, which broadcast to
    values.shape[:-1], into values[..., k]. Per slab of axis 0: the running
    maximum over k, exp(u_k - m) in place and their sum in k order into the
    spent maximum, divided straight into values; nothing reduces over the
    trailing axis, and a slab's arrays are gone before the next one's. The
    bits equal a trailing-axis softmax."""
    nodes = values.shape[:-1]
    planes = [np.broadcast_to(p, nodes) for p in planes]
    for s in axis0_slabs(nodes):
        m = planes[0][s].copy()
        for u in planes[1:]:
            np.maximum(m, u[s], out=m)
        e = [np.subtract(u[s], m) for u in planes]
        for ek in e:
            np.exp(ek, out=ek)
        # the maximum is spent: its buffer takes the sum, in k order
        np.copyto(m, e[0])
        for ek in e[1:]:
            np.add(m, ek, out=m)
        for k, ek in enumerate(e):
            np.divide(ek, m, out=values[s, ..., k])
        del m, e, ek
    return values


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
    logits = [u.value(aj) / model.noise.scale for u, aj in zip(model.utilities, a)]
    return _softmax(logits, np.empty((1, len(a))))[0]


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


def winners(planes, count: int) -> np.ndarray:
    """Index of the first maximal plane among count utility planes.

    planes yields the planes in order, so each may be built only when the
    kernel reaches it. The first has the result's shape and becomes the
    running maximum (the kernel writes into it); the others broadcast to it.
    A strict > keeps argmax's rule of taking the first of equal maxima. The
    index has the smallest unsigned dtype that holds count - 1.
    """
    planes = iter(planes)
    best = next(planes)
    who = np.zeros(best.shape, dtype=np.min_scalar_type(count - 1))
    for j, u in enumerate(planes, start=1):
        # j exceeds every index already in who, so the maximum sets it where u wins
        np.maximum(who, np.multiply(u > best, j, dtype=who.dtype), out=who)
        np.maximum(best, u, out=best)
    return who


def choice_prob_monte_carlo(model: ChoiceModelSpec, a, n: int, seed: int) -> np.ndarray:
    """Frequency of argmax_j [h_j(a_j) + eps_j] over n simulated draws per offer.

    a is one offer (J+1,) or a batch (n_offers, J+1), like
    ProbabilityField.interpolate. Every offer is judged against one shared
    draw set from SeedSequence(seed, spawn_key=(0,)) (common random numbers),
    so each row of a batch equals a single-offer call at the same seed. Ties
    break toward the lowest index (a measure-zero event for continuous noise).
    Offers go through in chunks of about _CHUNK_ENTRIES offer-draw pairs.
    """
    if n < 1:
        raise ValidationError("draw count must be >= 1")
    a = np.asarray(a, dtype=float)
    k = model.n_alternatives
    if a.ndim not in (1, 2) or a.shape[-1] != k:
        raise ValidationError("offer vector length must equal alternative count")
    offers = np.atleast_2d(a)
    base = np.empty(offers.shape)
    for j, u in enumerate(model.utilities):
        model.require_in_domain(j, offers[:, j])
        base[:, j] = u.value(offers[:, j])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    eps = np.ascontiguousarray(_noise_draws(model, rng, n).T)
    counts = np.empty(offers.shape, dtype=np.intp)
    for s in axis0_slabs((len(base), n)):
        who = winners((base[s, j, None] + eps[j] for j in range(k)), k)
        for j in range(k):
            counts[s, j] = np.count_nonzero(who == j, axis=1)
    q = counts / float(n)
    return q if a.ndim == 2 else q[0]


def tabulate(
    model: ChoiceModelSpec,
    grid: GridSpec,
    method: str = "closed_form",
    n: int = 100_000,
    seed: int = 0,
) -> ProbabilityField:
    """Tabulate q_j on a rectangular grid; axis k of the grid is a_k."""
    if grid.dims != model.n_alternatives:
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
        # axis k's logit vector, shaped (n_k, 1, ..., 1) to broadcast along axis k
        logits = [
            (u.value(ax) / model.noise.scale).reshape((-1,) + (1,) * (grid.dims - 1 - k))
            for k, (u, ax) in enumerate(zip(model.utilities, grid.axes()))
        ]
        values = _softmax(logits, np.empty(grid.counts + (grid.dims,)))
    elif method == "monte_carlo":
        offers = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        # one batch of every node's offer, in C order
        values = choice_prob_monte_carlo(model, offers.reshape(-1, grid.dims), n, seed)
        values = values.reshape(offers.shape)
    else:
        raise ValidationError(f"unknown tabulation method {method!r}")
    return ProbabilityField(grid=grid, values=values)


def tabulate_from_utilities(grid: GridSpec, utilities) -> ProbabilityField:
    """Softmax field for arbitrary utility callables u_j(a) of the full offer vector.

    Used to plant fields that violate the separable structure (e.g. interaction
    terms that break condition-A style restrictions).
    """
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    values = _softmax([u(mesh) for u in utilities], np.empty(grid.counts + (len(utilities),)))
    return ProbabilityField(grid=grid, values=values)
