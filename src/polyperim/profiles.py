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

from .errors import (
    DimensionTooHigh,
    InsufficientSamples,
    UnsupportedDimension,
    ValidationError,
    VolumeOutOfRange,
    checked_int,
    checked_real,
)

#: most volumes a grid may hold; each costs one Python call per profile
MAX_GRID_POINTS = 100_000


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n via the two-step recurrence.

    Past n = 435 the volume is below the smallest normal float, so those
    dimensions are rejected rather than returned as (nearly) zero.
    """
    n = checked_int(n, "n", 0, error=UnsupportedDimension)
    v = 1.0 if n % 2 == 0 else 2.0
    for k in range(2 + n % 2, n + 1, 2):
        v = v * 2.0 * math.pi / k
        # the factors 2 pi / k are below 1 from k = 7 on, so v only shrinks
        if v < sys.float_info.min:
            raise DimensionTooHigh(f"the unit {n}-ball volume underflows")
    return v


def sphere_measure(k: int) -> float:
    """Total k-dimensional measure of the unit sphere S^k in R^(k+1)."""
    k = checked_int(k, "k", 0, error=UnsupportedDimension)
    return (k + 1) * unit_ball_volume(k + 1)


def euclidean_profile(n: int, volume: float) -> float:
    """Perimeter of the round ball of the given volume in R^n."""
    n = checked_int(n, "n", 1, error=UnsupportedDimension)
    volume = checked_real(volume, "volume", 0.0, error=VolumeOutOfRange)
    wn = unit_ball_volume(n)
    return n * wn ** (1.0 / n) * volume ** ((n - 1.0) / n)


def cone_profile(omega: float, n: int, volume: float) -> float:
    """Perimeter of the apex ball of the given volume on a cone with link
    measure ``omega``.

    The ball of radius r has volume ``omega * r^n / n`` and boundary area
    ``omega * r^(n-1)``, so ``A = omega^(1/n) * (n V)^((n-1)/n)``.
    """
    n = checked_int(n, "n", 1, error=UnsupportedDimension)
    # the link may reach |S^(n-1)|, plus rounding
    omega = checked_real(omega, "omega", 0.0, sphere_measure(n - 1) + 1e-12, hi_closed=True)
    volume = checked_real(volume, "volume", 0.0, error=VolumeOutOfRange)
    if not math.isfinite(n * volume):
        raise VolumeOutOfRange(f"n * volume = {n} * {volume} overflows")
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
    n = checked_int(n, "n", 1, error=UnsupportedDimension)
    total = sphere_measure(n)
    volume = checked_real(volume, "volume", 0.0, total, VolumeOutOfRange)
    sin2 = special.betaincinv(n / 2.0, 0.5, 2.0 * min(volume, total - volume) / total)
    return float(sphere_measure(n - 1) * sin2 ** ((n - 1) / 2.0))


# ---------------------------------------------------------------------------
# volume grids
# ---------------------------------------------------------------------------

def volume_grid(vmin: float, vmax: float, points: int) -> np.ndarray:
    """``points`` strictly increasing volumes from ``vmin`` to ``vmax``,
    evenly spaced in log."""
    vmin = checked_real(vmin, "--vmin", 0.0, error=VolumeOutOfRange)
    vmax = checked_real(vmax, "--vmax", vmin, error=VolumeOutOfRange)
    points = checked_int(points, "--points", 1, MAX_GRID_POINTS)
    grid = np.geomspace(vmin, vmax, points)
    if (np.diff(grid) <= 0).any():
        raise ValidationError(
            f"--vmin {vmin!r} and --vmax {vmax!r} are too close for --points {points}"
        )
    return grid


@dataclass(frozen=True)
class PowerLawFit:
    coefficient: float
    exponent: float
    residual: float


def fit_power_law(volumes, areas) -> PowerLawFit:
    """Least-squares fit of ``A = c * V^t`` in log-log coordinates.

    Requires at least 8 positive, finite samples spanning at least one
    decade of volume.
    """
    v = np.asarray(volumes, dtype=float)
    a = np.asarray(areas, dtype=float)
    if v.shape != a.shape or v.ndim != 1:
        raise InsufficientSamples("need matching 1-d sample arrays")
    if len(v) < 8:
        raise InsufficientSamples(f"need at least 8 samples, got {len(v)}")
    if not ((v > 0) & (v < math.inf) & (a > 0) & (a < math.inf)).all():
        raise InsufficientSamples("samples must be positive and finite")
    if v.max() / v.min() < 10.0:
        raise InsufficientSamples("samples must span at least a decade")
    lv, la = np.log(v), np.log(a)
    t, logc = np.polyfit(lv, la, 1)
    resid = la - (t * lv + logc)
    rms = float(np.sqrt(np.mean(resid**2)))
    return PowerLawFit(float(np.exp(logc)), float(t), rms)
