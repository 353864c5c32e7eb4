"""Exception taxonomy for the library.

Domain errors (bad but well-formed input) all derive from SplitJacError so the
CLI can map them to exit code 1 uniformly.  InternalInconsistency signals a bug:
two routes to the same value disagreed.
"""


class SplitJacError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularMatrix(SplitJacError):
    """A matrix that must be invertible is not."""


class IncompatibleMorphism(SplitJacError):
    """Pair of maps violates the pairing compatibility condition."""


class UnsupportedRank(SplitJacError):
    """Lattice rank outside the supported range (1 or 2)."""


class NotIsogeny(SplitJacError):
    """Operation requires an isogeny (surjective with finite kernel)."""


class ImageConditionViolated(SplitJacError):
    """Sharp map image does not contain the image of the polarization."""


class NotPrincipal(SplitJacError):
    """Polarization is required to be principal (type (1,1)) but is not."""


class ValidationError(SplitJacError):
    """Structured input fails its validity conditions."""


class NotPositiveDefinite(SplitJacError):
    """Symmetric form is not positive definite."""


class PositiveQ12(SplitJacError):
    """Selling reduction requires a nonpositive off-diagonal entry."""


class IterationCapExceeded(SplitJacError):
    """Reduction loop exceeded the iteration cap."""


class NotInSigma(SplitJacError):
    """Form lies outside the Selling cone (some parameter positive)."""


class NonPositiveLength(SplitJacError):
    """Edge/cycle length must be a positive rational."""


class WrongK(SplitJacError):
    """Boundary test applied to splitting data with the wrong k."""


class NonIntegralSlope(SplitJacError):
    """Cover slope computation produced a non-integer."""


class ConeCapExceeded(SplitJacError):
    """Fan walk produced more cones than the cap allows."""


class InternalInconsistency(SplitJacError):
    """Two independent computations of the same quantity disagree (bug)."""
