"""Smooth convex approximations of a polytope from inside.

The polytope K (with a chosen strictly interior origin) is encoded by its
gauge

    F(x) = max_f (a_f . (x - o)) / (b_f - a_f . o),     K = { F <= 1 },

a convex, positively homogeneous function of x - o.  Convolving F with a
smooth bump supported on the epsilon-ball gives a smooth convex function
whose unit body Q_eps approximates K from inside.  The convolution is
discretized once and for all by a fixed product quadrature on the unit ball:

    F_eps(x) = sum_q p_q F(x - eps * z_q),     sum_q p_q = 1,  p_q > 0.

Renormalizing the weights to unit mass makes three properties of the
continuum construction hold *exactly* for the discrete object:

* convexity — F_eps is a finite positive combination of convex functions;
* containment — F_eps >= F pointwise by Jensen's inequality (the node set is
  antipodally symmetric, so the weighted node mean is zero), hence Q_eps is
  contained in K;
* monotonicity — antipodal node pairs make eps -> F_eps(x) even and convex,
  hence nondecreasing for eps >= 0, so Q_eps only shrinks as eps grows.

Containment has a converse: F is (1/r_in)-Lipschitz (unit facet normals,
offsets at least the inradius r_in) and every node lies in the open unit
ball, so F <= F_eps < F + eps / r_in.  Along a direction u with plain radius
rho(u) = 1 / F(u), the boundary radius of Q_eps therefore lies in the bracket
[(1 - eps / r_in) rho(u), rho(u)], where ``smoothed_body`` starts bisecting.

The quadrature itself is accurate: with 32 radial Gauss-Legendre nodes the
raw kernel mass matches the true integral of the bump to ~1e-9 (recorded as
``Mollifier.mass_error`` and required below MASS_TOL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (
    NumericalError,
    OriginNotInterior,
    RootNotBracketed,
    UnsupportedDimension,
)
from .polytope import TOL, Polytope
from .profiles import sphere_measure

MASS_TOL = 1e-8
RADIAL_NODES = 32
BISECT_ITERS = 48
INSIDE_TOL = 1e-12
_CHUNK = 1 << 21


@dataclass(frozen=True)
class GaugeFunction:
    """Piecewise-linear gauge of a polytope about an interior origin."""

    normals: np.ndarray
    offsets: np.ndarray
    origin: np.ndarray

    @classmethod
    def from_polytope(
        cls, poly: Polytope, origin: np.ndarray | None = None
    ) -> "GaugeFunction":
        if origin is None:
            origin = np.zeros(poly.dim)
        origin = np.asarray(origin, float)
        offsets = poly.facet_offsets - poly.facet_normals @ origin
        if np.any(offsets <= TOL):
            raise OriginNotInterior(
                "gauge origin must lie strictly inside the polytope"
            )
        return cls(normals=poly.facet_normals, offsets=offsets, origin=origin)

    @property
    def inradius(self) -> float:
        return float(self.offsets.min())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float) - self.origin
        vals = (x @ self.normals.T) / self.offsets
        return vals.max(axis=-1)


def _ball_quadrature(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Product nodes/weights for integrals over the unit ball.

    Radial: Gauss-Legendre on [0, 1] with the r^(dim-1) factor folded into
    the weights.  Angular: ``sphere_quadrature`` with 64 circle directions
    (dim 2) or 12 x 24 sphere directions (dim 3), so nodes come in exact
    antipodal pairs.
    """
    rx, rw = np.polynomial.legendre.leggauss(RADIAL_NODES)
    r = 0.5 * (rx + 1.0)
    rw = 0.5 * rw * r ** (dim - 1)
    dirs, aw = sphere_quadrature(dim, 32 if dim == 2 else 12)
    nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    weights = (rw[:, None] * aw[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class Mollifier:
    """Bump-kernel quadrature at a fixed smoothing radius.

    ``nodes`` live on the unit ball and are scaled by ``epsilon`` at use
    time; ``weights`` are renormalized to sum to exactly 1; ``mass_error``
    is the relative error of the raw quadrature mass against the true
    kernel integral (adaptive reference).
    """

    dim: int
    epsilon: float
    nodes: np.ndarray
    weights: np.ndarray
    mass_error: float

    @classmethod
    def build(cls, dim: int, epsilon: float) -> "Mollifier":
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        nodes, base = _ball_quadrature(dim)
        # the bump exp(-1/(1-r^2)); every node lies in the open unit ball
        raw = base * np.exp(-1.0 / (1.0 - np.linalg.norm(nodes, axis=1) ** 2))
        mass = float(raw.sum())
        radial, _ = quad(
            lambda s: math.exp(-1.0 / (1.0 - s * s)) * s ** (dim - 1),
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        true_mass = radial * sphere_measure(dim - 1)
        err = abs(mass / true_mass - 1.0)
        if err > MASS_TOL:
            raise NumericalError(
                f"kernel quadrature mass error {err:.3e} exceeds {MASS_TOL}"
            )
        return cls(
            dim=dim,
            epsilon=float(epsilon),
            nodes=nodes,
            weights=raw / mass,
            mass_error=err,
        )


def mollify(fn: GaugeFunction, m: Mollifier, x: np.ndarray) -> np.ndarray:
    """Evaluate the mollified gauge at a batch of points.

    For the piecewise-linear gauge the facet dot products of points and
    nodes factor apart, so the (points x nodes) evaluation reduces to a
    running maximum of rank-one sums over the facets; any other callable
    falls back to evaluating on the shifted point cloud directly.
    """
    x = np.atleast_2d(np.asarray(x, float))
    npts, q = len(x), len(m.nodes)
    step = max(1, _CHUNK // q)
    out = np.empty(npts)
    if isinstance(fn, GaugeFunction):
        d = ((x - fn.origin) @ fn.normals.T) / fn.offsets
        e = ((m.epsilon * m.nodes) @ fn.normals.T) / fn.offsets
        for lo in range(0, npts, step):
            dc = d[lo : lo + step]
            acc = dc[:, None, 0] - e[None, :, 0]
            for f in range(1, d.shape[1]):
                np.maximum(acc, dc[:, None, f] - e[None, :, f], out=acc)
            out[lo : lo + step] = acc @ m.weights
        return out
    for lo in range(0, npts, step):
        block = x[lo : lo + step]
        shifted = block[:, None, :] - m.epsilon * m.nodes[None, :, :]
        out[lo : lo + step] = fn(shifted) @ m.weights
    return out


def sphere_quadrature(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights integrating over the unit sphere S^(dim-1).

    Weights sum to the full sphere measure.  Point counts are even in every
    angular factor, keeping the set antipodally symmetric.
    """
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    if dim == 2:
        m = 2 * resolution
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    if dim == 3:
        n_theta = resolution
        n_phi = 2 * resolution
        cx, cw = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        sin_t = np.sqrt(1.0 - cx**2)
        dirs = np.stack(
            [
                np.outer(sin_t, np.cos(phi)).ravel(),
                np.outer(sin_t, np.sin(phi)).ravel(),
                np.outer(cx, np.ones(n_phi)).ravel(),
            ],
            axis=1,
        )
        w = np.outer(cw, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
        return dirs, w
    raise UnsupportedDimension(f"no sphere quadrature for dimension {dim}")


@dataclass(frozen=True)
class SmoothedBody:
    """Star-body description of { F_eps <= 1 } via radial samples."""

    polytope: Polytope
    gauge_fn: GaugeFunction
    mollifier: Mollifier
    directions: np.ndarray
    direction_weights: np.ndarray
    radii: np.ndarray

    @property
    def epsilon(self) -> float:
        return self.mollifier.epsilon

    @property
    def volume(self) -> float:
        d = self.polytope.dim
        return float(self.direction_weights @ self.radii**d) / d

    @property
    def boundary_points(self) -> np.ndarray:
        return self.radii[:, None] * self.directions + self.gauge_fn.origin

    def plain_radii(self) -> np.ndarray:
        """Radial function of the unsmoothed polytope, same directions."""
        return 1.0 / self.gauge_fn(self.directions + self.gauge_fn.origin)

    def level(self, x: np.ndarray) -> np.ndarray:
        return mollify(self.gauge_fn, self.mollifier, x)


def smoothed_body(
    poly: Polytope, epsilon: float, resolution: int | None = None
) -> SmoothedBody:
    """Compute { F_eps <= 1 } about the origin by per-direction bisection,
    each radius starting in the bracket [(1 - eps / r_in) rho(u), rho(u)]."""
    fn = GaugeFunction.from_polytope(poly)
    if epsilon >= 0.5 * fn.inradius:
        raise RootNotBracketed(
            f"epsilon {epsilon} is not below half the inradius "
            f"{fn.inradius} about the origin"
        )
    mollifier = Mollifier.build(poly.dim, epsilon)
    if resolution is None:
        resolution = 96 if poly.dim == 2 else 24
    dirs, w = sphere_quadrature(poly.dim, resolution)
    hi = 1.0 / fn(dirs)
    lo = (1.0 - epsilon / fn.inradius) * hi
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        below = mollify(fn, mollifier, mid[:, None] * dirs) < 1.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return SmoothedBody(
        polytope=poly,
        gauge_fn=fn,
        mollifier=mollifier,
        directions=dirs,
        direction_weights=w,
        radii=0.5 * (lo + hi),
    )


@dataclass(frozen=True)
class ConvexityReport:
    trials: int
    max_violation: float
    max_midpoint_violation: float
    max_gauge_gap: float


def convexity_probe(body: SmoothedBody, trials: int = 10_000, seed: int = 0) -> ConvexityReport:
    """Randomized convexity check of the mollified gauge.

    Samples point pairs inside the body (rejection from the bounding box)
    and records the worst violation of

        F_eps(lam x + (1-lam) y) <= lam F_eps(x) + (1-lam) F_eps(y)

    for random lam in (0, 1) and for the midpoint lam = 1/2, plus the worst
    of F(x) - F_eps(x) (the containment direction).  All three should be
    bounded by roundoff; violations are reported, not raised.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    d = body.polytope.dim
    lo = body.polytope.vertices.min(axis=0)
    hi = body.polytope.vertices.max(axis=0)
    need = 2 * trials
    pts, f = np.empty((0, d)), np.empty(0)
    while len(pts) < need:
        cand = rng.uniform(lo, hi, size=(2 * need, d))
        # F_eps >= F, so the exact gauge discards points outside K cheaply
        cand = cand[body.gauge_fn(cand) <= 1.0 + INSIDE_TOL][: need - len(pts)]
        level = body.level(cand)
        keep = level <= 1.0 + INSIDE_TOL
        pts, f = np.vstack([pts, cand[keep]]), np.concatenate([f, level[keep]])
    x, y = pts[:trials], pts[trials:]
    fx, fy = f[:trials], f[trials:]
    lam = rng.uniform(0.0, 1.0, size=trials)
    mix = body.level(lam[:, None] * x + (1.0 - lam[:, None]) * y)
    mid = body.level(0.5 * (x + y))
    violation = float(np.max(mix - (lam * fx + (1.0 - lam) * fy)))
    mid_violation = float(np.max(mid - 0.5 * (fx + fy)))
    gap = float(np.max(body.gauge_fn(pts) - f))
    return ConvexityReport(
        trials=trials,
        max_violation=violation,
        max_midpoint_violation=mid_violation,
        max_gauge_gap=gap,
    )
