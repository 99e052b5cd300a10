"""Exception hierarchy.

Two families matter to callers: :class:`ValidationError` for rejected input
(CLI exit code 2) and :class:`NumericalError` for computations that could not
be completed (CLI exit code 3).
"""


class PolyperimError(Exception):
    """Base class for all library errors."""


class ValidationError(PolyperimError):
    """Input rejected before any computation was attempted."""


class NumericalError(PolyperimError):
    """A numerical procedure failed to produce a trustworthy result."""


# --- validation -----------------------------------------------------------

class BadDocument(ValidationError):
    """Polytope document is malformed (missing fields, bad types, bad JSON)."""


class NonConvex(ValidationError):
    """A vertex strictly violates a facet plane."""


class DegenerateFacet(ValidationError):
    """A facet is not (d-1)-dimensional or its vertices are not coplanar."""


class InvalidPolytope(ValidationError):
    """Vertex/facet incidence structure is inconsistent."""


class DimensionTooHigh(ValidationError):
    """Ambient dimension above four, or a profile dimension whose unit-ball
    volume underflows."""


class NotFullDimensional(ValidationError):
    """Vertex set does not span the stated ambient dimension."""


class UnsupportedDimension(ValidationError):
    """Operation not defined for this dimension."""


class OriginNotInterior(ValidationError):
    """Gauge origin is not strictly inside the body."""


class VolumeTooLarge(ValidationError):
    """Requested volume exceeds the validity range of a profile."""


class VolumeOutOfRange(ValidationError):
    """Requested volume outside the admissible open interval."""


class InsufficientSamples(ValidationError):
    """Too few samples, or samples span less than a decade."""


# --- numerical ------------------------------------------------------------

class RootNotBracketed(NumericalError):
    """Mollification too wide: epsilon is not below half the inradius about
    the gauge origin, so the smoothed body's radii have no proven bound."""


class NoFeasibleRegion(NumericalError):
    """Annealing never visited a region within the area tolerance."""


class ProjectionDegenerate(NumericalError):
    """A face touches the projection center; spherical image is singular."""
