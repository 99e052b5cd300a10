"""Model isoperimetric profiles and power-law fitting.

A profile maps enclosed volume V to least boundary area A(V).  Three model
families are provided in closed or inverted form:

* ``euclidean_profile``: round balls in flat n-space,
  ``A = n * w_n^(1/n) * V^((n-1)/n)`` with ``w_n`` the unit-ball volume.
* ``sphere_profile``: geodesic caps on the unit n-sphere, obtained by
  inverting the cap-volume integral by bisection.
* ``cone_profile``: balls about the apex of a metric cone whose link has
  measure ``omega``; with ``omega = |S^(n-1)|`` this reproduces flat space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .errors import GridMismatch, InsufficientSamples, VolumeOutOfRange

#: slack used by the domination predicate
DOMINATION_SLACK = 1e-9

#: bisection tolerance (in the colatitude variable) for cap inversion
THETA_TOL = 1e-12

DEFAULT_GRID_POINTS = 256


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n via the two-step recurrence."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return 1.0
    if n == 1:
        return 2.0
    return unit_ball_volume(n - 2) * 2.0 * math.pi / n


def sphere_measure(k: int) -> float:
    """Total k-dimensional measure of the unit sphere S^k in R^(k+1)."""
    if k < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return (k + 1) * unit_ball_volume(k + 1)


def euclidean_profile(n: int, volume: float) -> float:
    """Perimeter of the round ball of the given volume in R^n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if volume <= 0:
        raise VolumeOutOfRange("volume must be positive")
    if n == 1:
        return 2.0
    wn = unit_ball_volume(n)
    return n * wn ** (1.0 / n) * volume ** ((n - 1.0) / n)


def cone_profile(omega: float, n: int, volume: float) -> float:
    """Perimeter of the apex ball of the given volume on a cone with link
    measure ``omega``.

    The ball of radius r has volume ``omega * r^n / n`` and boundary area
    ``omega * r^(n-1)``, so ``A = omega^(1/n) * (n V)^((n-1)/n)``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < omega <= sphere_measure(n - 1) + 1e-12:
        raise ValueError(f"link measure {omega} outside (0, |S^{n-1}|]")
    if not 0 < volume < math.inf:
        raise VolumeOutOfRange(f"volume must be positive and finite, got {volume}")
    if n == 1:
        return float(omega)
    return omega ** (1.0 / n) * (n * volume) ** ((n - 1.0) / n)


def _cap_volume_unit(n: int, theta: float) -> float:
    """Integral of sin^(n-1) from 0 to theta (cap volume over |S^(n-1)|)."""
    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        theta = math.pi
    half = math.pi / 2.0
    full = math.sqrt(math.pi) * special.gamma(n / 2.0) / special.gamma((n + 1) / 2.0)
    if theta > half:
        return full - _cap_volume_unit(n, math.pi - theta)
    s2 = math.sin(theta) ** 2
    return 0.5 * special.beta(n / 2.0, 0.5) * special.betainc(n / 2.0, 0.5, s2)


def sphere_profile(n: int, volume: float) -> float:
    """Perimeter of the geodesic cap of the given volume on the unit n-sphere.

    The cap colatitude solving ``V(theta) = volume`` is found by bisection to
    1e-12; area is then ``|S^(n-1)| * sin(theta)^(n-1)``.  For n = 1 the
    boundary is two points, so the profile is constantly 2.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    total = sphere_measure(n)
    if not 0 < volume < total:
        raise VolumeOutOfRange(
            f"cap volume must lie in (0, {total:.12g}), got {volume}"
        )
    if n == 1:
        return 2.0
    ring = sphere_measure(n - 1)
    lo, hi = 0.0, math.pi
    while hi - lo > THETA_TOL:
        mid = 0.5 * (lo + hi)
        if ring * _cap_volume_unit(n, mid) < volume:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return ring * math.sin(theta) ** (n - 1)


# ---------------------------------------------------------------------------
# sampled profiles and comparisons
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Profile:
    """A sampled isoperimetric profile with an optional exact evaluator."""

    dimension: int
    volumes: np.ndarray
    areas: np.ndarray
    label: str = ""
    total_volume: float = math.inf
    evaluator: Callable[[float], float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.areas = np.asarray(self.areas, dtype=float)
        if self.volumes.shape != self.areas.shape or self.volumes.ndim != 1:
            raise ValueError("volumes/areas must be matching 1-d arrays")
        if len(self.volumes) and (np.diff(self.volumes) <= 0).any():
            raise ValueError("volume samples must be strictly increasing")

    @property
    def vmin(self) -> float:
        return float(self.volumes[0])

    @property
    def vmax(self) -> float:
        return float(self.volumes[-1])

    def evaluate(self, volumes) -> np.ndarray:
        v = np.atleast_1d(np.asarray(volumes, dtype=float))
        if self.evaluator is not None:
            return np.array([self.evaluator(float(x)) for x in v])
        # log-log interpolation between samples
        if (v < self.vmin - 1e-12).any() or (v > self.vmax + 1e-12).any():
            raise GridMismatch("volume grid escapes the sampled range")
        logs = np.interp(np.log(v), np.log(self.volumes), np.log(self.areas))
        return np.exp(logs)

    @classmethod
    def _sampled(cls, n, fn, vmin, vmax, points, label, total=math.inf) -> "Profile":
        if not 0 < vmin < vmax < math.inf:
            raise VolumeOutOfRange("need 0 < vmin < vmax < inf")
        grid = np.geomspace(vmin, vmax, points)
        areas = np.array([fn(v) for v in grid])
        return cls(n, grid, areas, label=label, total_volume=total, evaluator=fn)

    @classmethod
    def euclidean(cls, n, vmin, vmax, points=DEFAULT_GRID_POINTS) -> "Profile":
        return cls._sampled(
            n, lambda v: euclidean_profile(n, v), vmin, vmax, points, f"euclidean-{n}"
        )

    @classmethod
    def sphere(cls, n, vmin=None, vmax=None, points=DEFAULT_GRID_POINTS) -> "Profile":
        total = sphere_measure(n)
        vmin = total * 1e-4 if vmin is None else vmin
        vmax = total * (1 - 1e-4) if vmax is None else vmax
        return cls._sampled(
            n, lambda v: sphere_profile(n, v), vmin, vmax, points,
            f"sphere-{n}", total=total,
        )

    @classmethod
    def cone(cls, omega, n, vmin, vmax, points=DEFAULT_GRID_POINTS) -> "Profile":
        return cls._sampled(
            n, lambda v: cone_profile(omega, n, v), vmin, vmax, points,
            f"cone-{n}-w{omega:.6g}",
        )


@dataclass(frozen=True)
class DominationResult:
    holds: bool
    min_margin: float
    argmin_volume: float


def dominates(upper: Profile, lower: Profile, grid=None) -> DominationResult:
    """Check ``upper(V) >= lower(V) - 1e-9`` on a shared volume grid."""
    if upper.dimension != lower.dimension:
        raise GridMismatch(
            f"profiles have dimensions {upper.dimension} and {lower.dimension}"
        )
    if grid is None:
        lo = max(upper.vmin, lower.vmin)
        hi = min(upper.vmax, lower.vmax)
        if not lo < hi:
            raise GridMismatch("profiles have disjoint volume ranges")
        grid = np.geomspace(lo, hi, DEFAULT_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    margins = upper.evaluate(grid) - lower.evaluate(grid)
    i = int(np.argmin(margins))
    return DominationResult(
        holds=bool((margins >= -DOMINATION_SLACK).all()),
        min_margin=float(margins[i]),
        argmin_volume=float(grid[i]),
    )


@dataclass(frozen=True)
class PowerLawFit:
    coefficient: float
    exponent: float
    residual: float


def fit_power_law(volumes, areas) -> PowerLawFit:
    """Least-squares fit of ``A = c * V^t`` in log-log coordinates.

    Requires at least 8 samples spanning at least one decade of volume.
    """
    v = np.asarray(volumes, dtype=float)
    a = np.asarray(areas, dtype=float)
    if v.shape != a.shape or v.ndim != 1:
        raise InsufficientSamples("need matching 1-d sample arrays")
    if len(v) < 8:
        raise InsufficientSamples(f"need at least 8 samples, got {len(v)}")
    if (v <= 0).any() or (a <= 0).any():
        raise InsufficientSamples("samples must be positive")
    if v.max() / v.min() < 10.0:
        raise InsufficientSamples("samples must span at least a decade")
    lv, la = np.log(v), np.log(a)
    t, logc = np.polyfit(lv, la, 1)
    resid = la - (t * lv + logc)
    rms = float(np.sqrt(np.mean(resid**2)))
    return PowerLawFit(float(np.exp(logc)), float(t), rms)
