"""Exception hierarchy.

Two families matter to callers: :class:`ValidationError` for rejected input
(CLI exit code 2) and :class:`NumericalError` for computations that could not
be completed (CLI exit code 3).  Every rejection the library raises is a
:class:`ValidationError`, which is also a :class:`ValueError`, so callers
that catch ``ValueError`` keep working.

Integer arguments (counts, indices, levels, dimensions and seeds) follow one
rule, held by :func:`checked_int` alone; real arguments (volumes, link
measures, angles, lengths, epsilons and the annealer's temperatures) follow
another, held by :func:`checked_real` alone.
"""

import math
import numbers


class PolyperimError(Exception):
    """Base class for all library errors."""


class ValidationError(PolyperimError, ValueError):
    """Input rejected before any computation was attempted."""


class NumericalError(PolyperimError):
    """A numerical procedure failed to produce a trustworthy result."""


# --- validation -----------------------------------------------------------

class BadDocument(ValidationError):
    """Polytope document is malformed (missing fields, bad types, bad JSON)."""


class DegenerateFacet(ValidationError):
    """A facet polygon's vertices do not span a plane."""


class InvalidPolytope(ValidationError):
    """Vertices and facets do not bound a convex body: a vertex lies on fewer
    than d facets, facets overlap, or a document's facet list is not the
    hull's."""


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


class EpsilonTooLarge(ValidationError):
    """Mollification too wide: epsilon is not below half the inradius about
    the gauge origin, so the smoothed body's radii have no proven bound."""


# --- numerical ------------------------------------------------------------

class NoFeasibleRegion(NumericalError):
    """Annealing never visited a region within the area tolerance."""


class ProjectionDegenerate(NumericalError):
    """A face touches the projection center; spherical image is singular."""


def checked_int(value, name: str, lo: int, hi: int | None = None, error=ValidationError) -> int:
    """``int(value)`` for an integer in [lo, hi] (no upper bound if ``hi`` is
    None), else raise ``error`` naming ``name``.  A bool, 2.0 or
    ``np.float64(2)`` is rejected; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        upper = "" if hi is None else f" and at most {hi}"
        raise error(f"{name} must be at least {lo}{upper}, got {value}")
    return int(value)


def checked_real(value, name: str, lo: float, hi: float = math.inf, error=ValidationError,
                 *, hi_closed: bool = False) -> float:
    """``float(value)`` for a real number in the interval from lo to hi, else
    raise ``error`` naming ``name`` and the interval.  The interval is open
    at each end unless ``hi_closed`` closes it at hi.  A bool, NaN or inf is
    rejected; ints and numpy floats pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int or fraction past the float range
        x = math.inf
    below = x <= hi if hi_closed else x < hi
    if not (lo < x and below):  # NaN fails both
        interval = f"({lo}, {hi}{']' if hi_closed else ')'}"
        raise error(f"{name} must be in {interval}, got {value}")
    return x
