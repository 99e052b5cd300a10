"""Model isoperimetric profiles and power-law fitting.

A profile maps enclosed volume V to least boundary area A(V).  Three model
families are provided in closed form:

* ``euclidean_profile``: round balls in flat n-space,
  ``A = n * w_n^(1/n) * V^((n-1)/n)`` with ``w_n`` the unit-ball volume.
* ``sphere_profile``: geodesic caps on the unit n-sphere, whose colatitude
  comes from the inverse regularized incomplete beta function.
* ``cone_profile``: balls about the apex of a metric cone whose link has
  measure ``omega``; with ``omega = |S^(n-1)|`` this reproduces flat space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionTooHigh, InsufficientSamples, VolumeOutOfRange

DEFAULT_GRID_POINTS = 256


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n via the two-step recurrence.

    Past n = 435 the volume is below the smallest normal float, so those
    dimensions are rejected rather than returned as (nearly) zero.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    v = 1.0 if n % 2 == 0 else 2.0
    for k in range(2 + n % 2, n + 1, 2):
        v = v * 2.0 * math.pi / k
        # the factors 2 pi / k are below 1 from k = 7 on, so v only shrinks
        if v < sys.float_info.min:
            raise DimensionTooHigh(f"the unit {n}-ball volume underflows")
    return v


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


def sphere_profile(n: int, volume: float) -> float:
    """Perimeter of the geodesic cap of the given volume on the unit n-sphere.

    A cap of colatitude theta <= pi/2 fills the fraction
    ``I(sin^2 theta; n/2, 1/2) / 2`` of the sphere (I the regularized
    incomplete beta function) and has boundary area
    ``|S^(n-1)| * sin(theta)^(n-1)``; a cap and its complement share their
    boundary.  For n = 1 the boundary is two points, so the profile is
    constantly 2.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    total = sphere_measure(n)
    if not 0 < volume < total:
        raise VolumeOutOfRange(
            f"cap volume must lie in (0, {total:.12g}), got {volume}"
        )
    sin2 = special.betaincinv(n / 2.0, 0.5, 2.0 * min(volume, total - volume) / total)
    return float(sphere_measure(n - 1) * sin2 ** ((n - 1) / 2.0))


# ---------------------------------------------------------------------------
# sampled profiles
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Profile:
    """An isoperimetric profile sampled on a volume grid."""

    dimension: int
    volumes: np.ndarray
    areas: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.areas = np.asarray(self.areas, dtype=float)
        if self.volumes.shape != self.areas.shape or self.volumes.ndim != 1:
            raise ValueError("volumes/areas must be matching 1-d arrays")
        if len(self.volumes) and (np.diff(self.volumes) <= 0).any():
            raise ValueError("volume samples must be strictly increasing")

    @classmethod
    def _sampled(cls, n, fn, vmin, vmax, points, label) -> "Profile":
        if not 0 < vmin < vmax < math.inf:
            raise VolumeOutOfRange("need 0 < vmin < vmax < inf")
        grid = np.geomspace(vmin, vmax, points)
        areas = np.array([fn(v) for v in grid])
        return cls(n, grid, areas, label=label)

    @classmethod
    def euclidean(cls, n, vmin, vmax, points=DEFAULT_GRID_POINTS) -> "Profile":
        return cls._sampled(
            n, lambda v: euclidean_profile(n, v), vmin, vmax, points, f"euclidean-{n}"
        )

    @classmethod
    def sphere(cls, n, vmin, vmax, points=DEFAULT_GRID_POINTS) -> "Profile":
        return cls._sampled(
            n, lambda v: sphere_profile(n, v), vmin, vmax, points, f"sphere-{n}"
        )

    @classmethod
    def cone(cls, omega, n, vmin, vmax, points=DEFAULT_GRID_POINTS) -> "Profile":
        return cls._sampled(
            n, lambda v: cone_profile(omega, n, v), vmin, vmax, points,
            f"cone-{n}-w{omega:.6g}",
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
