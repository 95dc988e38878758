"""Exception hierarchy shared across the package."""


class RumkitError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(RumkitError):
    """A numerical procedure could not produce a trustworthy result."""


class ValidationError(RumkitError):
    """A specification object (model, grid, config) violates its invariants."""


class DomainError(ValidationError):
    """A query point lies outside its object's box: a model's domain, a field's
    hull or an omega's domain."""


class NoClosedFormError(ValidationError):
    """The noise family admits no closed-form choice probability."""


class GridMismatchError(ValidationError):
    """A grid is inconsistent with a model domain or a stored lattice."""


class RankDeficientBasisError(NumericalFailure):
    """The sieve normal equations are rank deficient."""


class NegativeRatioError(NumericalFailure):
    """A log-basis sieve fit received non-positive ratio samples."""


class CoverageError(NumericalFailure):
    """A characteristic failed to reach the anchor line inside the integration box."""


class SupportError(NumericalFailure):
    """A heterogeneity point cannot be mapped back into the tabulated field."""


class NegativeDensityError(NumericalFailure):
    """Reconstructed density is negative beyond the sign-noise tolerance."""


class UnnormalizedDensityError(NumericalFailure):
    """Density mass is too far from 1 for integration to be meaningful."""


class ProvenanceError(RumkitError):
    """Artifacts from different identification runs were mixed."""
