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
ball, so F <= F_eps < F + eps / r_in.  With eps < r_in / 2 this gives
F_eps(o) < 1/2.

Along a direction u with plain radius rho(u) = 1 / F(u), the function
g(r) = F_eps(o + r u) is convex with g(0) < 1 <= g(rho(u)) (as F_eps >= F),
so it has one root in (0, rho(u)] and rises past it.  Writing
c_f = b_f - a_f . o, a subgradient at r is
s = sum_q p_q (u . a_f*(q)) / c_f*(q), with f*(q) the facet that wins at
node q.  Convexity puts the root at or below r - (g(r) - 1) / s, so
``smoothed_body`` runs Newton's method from rho(u): each step lowers r
without crossing the root, and no bracket or fallback is needed.

Each evaluation screens its points exactly.  With d_f = a_f . (x - o) / c_f
and e_qf = eps a_f . z_q / c_f, facet g can win at some node only if
d_g - min_q e_qg >= max_f (d_f - max_q e_qf).  A point with a single
surviving facet f* has F_eps = d_f* sum_q p_q - sum_q p_q e_qf* in closed
form; ties keep both facets.  A point with exactly two survivors f < g is
closed too: g wins node q exactly when s_q = e_qg - e_qf < c = d_g - d_f.
The s_q do not depend on the point, so they are sorted once per gauge and
facet pair (the mollifier keeps them, with prefix sums W of p_q and S of
p_q s_q), and a point finds the j nodes below c by binary search: F_eps is
f's closed form plus c W_j - S_j, and its radial slope gains c W_j.  The
comparison is strict, so f keeps the ties, as the dense loop does.  Points
with three or more survivors take the dense running maximum over all Q
nodes and their surviving facets.

The quadrature itself is accurate: with 32 radial Gauss-Legendre nodes the
raw kernel mass matches the true integral of the bump to ~1e-9 (recorded as
``Mollifier.mass_error`` and required below MASS_TOL).  The true integral
uses the bump's radial mass for d = 2 and 3, recorded in BUMP_RADIAL_MASS
from an adaptive ``scipy.integrate.quad``; the tests recompute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EpsilonTooLarge,
    NumericalError,
    OriginNotInterior,
    UnsupportedDimension,
)
from .polytope import TOL, Polytope
from .profiles import sphere_measure

MASS_TOL = 1e-8
#: d -> int_0^1 exp(-1/(1-s^2)) s^(d-1) ds, as scipy.integrate.quad gives it
#: with epsabs=1e-14, epsrel=1e-13 (scipy 1.17.1)
BUMP_RADIAL_MASS = {2: 0.07424775338796101, 3: 0.0351007383764877}
RADIAL_NODES = 32
NEWTON_ITERS = 48
INSIDE_TOL = 1e-12
# elements per row block of the dense mollifier loop; larger blocks make its
# temporaries, not the mesh or the body, the peak memory of a run
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GaugeFunction:
    """Piecewise-linear gauge of a polytope about an interior origin.

    Its arrays are read-only copies, so what a mollifier keeps for this
    gauge (see ``mollify``) never goes stale; gauges compare by identity.
    """

    normals: np.ndarray
    offsets: np.ndarray
    origin: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, "normals", "offsets", "origin")

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
    kernel integral (the recorded ``quad`` values in BUMP_RADIAL_MASS,
    checked in the tests).  ``nodes`` and ``weights`` are read-only copies.
    """

    dim: int
    epsilon: float
    nodes: np.ndarray
    weights: np.ndarray
    mass_error: float
    #: (gauge, f, g) -> s_q = e_qg - e_qf sorted, and prefix sums of p_q and
    #: p_q s_q in that order, each made by ``mollify`` on first use
    _pair_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _freeze_fields(self, "nodes", "weights")

    @classmethod
    def build(cls, dim: int, epsilon: float) -> "Mollifier":
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        nodes, base = _ball_quadrature(dim)
        # the bump exp(-1/(1-r^2)); every node lies in the open unit ball
        raw = base * np.exp(-1.0 / (1.0 - np.linalg.norm(nodes, axis=1) ** 2))
        mass = float(raw.sum())
        true_mass = BUMP_RADIAL_MASS[dim] * sphere_measure(dim - 1)
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


def mollify(
    fn: GaugeFunction, m: Mollifier, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the mollified gauge and its radial slope at a batch of points.

    Returns F_eps(x) and grad F_eps(x) . (x - o), the derivative of
    t -> F_eps(o + t (x - o)) at t = 1 (a subgradient where F_eps has a
    kink).  Points with one or two surviving facets take the closed forms;
    the rest take a running maximum of rank-one sums over the facets that
    survive the screen for them.
    """
    x = np.atleast_2d(np.asarray(x, float))
    d = ((x - fn.origin) @ fn.normals.T) / fn.offsets
    e = ((m.epsilon * m.nodes) @ fn.normals.T) / fn.offsets
    mass = m.weights.sum()
    # facet g can win at some node only if d_g - min_q e_qg reaches the
    # floor max_f (d_f - max_q e_qf) that every node attains
    floor = (d - e.max(axis=0)).max(axis=1, keepdims=True)
    alive = d - e.min(axis=0) >= floor
    win = alive.argmax(axis=1)
    d_win = np.take_along_axis(d, win[:, None], axis=1)[:, 0]
    value = d_win * mass - (m.weights @ e)[win]
    radial = d_win * mass
    # points with several survivors run over those facets only, grouped by
    # survivor set; the others never win, so the maximum is unchanged
    many = np.flatnonzero(alive.sum(axis=1) > 1)
    patterns, group = np.unique(alive[many], axis=0, return_inverse=True)
    q = len(m.nodes)
    step = max(1, _CHUNK // q)
    for k, pattern in enumerate(patterns):
        facets = np.flatnonzero(pattern)
        members = many[group == k]
        if len(facets) == 2:
            # f = facets[0] already holds the base; g adds c - s_q on the
            # nodes with s_q < c, a prefix of the sorted s
            f, g = facets
            key = (fn, f, g)
            if key not in m._pair_sums:
                s = e[:, g] - e[:, f]
                order = np.argsort(s, kind="stable")
                s = s[order]
                w = m.weights[order]
                m._pair_sums[key] = (
                    s,
                    np.concatenate([[0.0], np.cumsum(w)]),
                    np.concatenate([[0.0], np.cumsum(w * s)]),
                )
            s, cum_w, cum_ws = m._pair_sums[key]
            c = d[members, g] - d[members, f]
            below = np.searchsorted(s, c, side="left")
            value[members] += c * cum_w[below] - cum_ws[below]
            radial[members] += c * cum_w[below]
            continue
        for lo in range(0, len(members), step):
            rows = members[lo : lo + step]
            dc, ec = d[np.ix_(rows, facets)], e[:, facets]
            acc = dc[:, None, 0] - ec[None, :, 0]
            lin = np.repeat(dc[:, :1], q, axis=1)
            cand, wins = np.empty_like(acc), np.empty(acc.shape, bool)
            for j in range(1, len(facets)):
                np.subtract(dc[:, None, j], ec[None, :, j], out=cand)
                np.greater(cand, acc, out=wins)
                np.copyto(lin, dc[:, None, j], where=wins)
                np.maximum(acc, cand, out=acc)
            value[rows] = acc @ m.weights
            radial[rows] = lin @ m.weights
    return value, radial


def _freeze_fields(obj, *names: str) -> None:
    """Replace each array field of a frozen dataclass by a read-only copy,
    leaving the caller's array writable."""
    for name in names:
        a = np.array(getattr(obj, name), dtype=float)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


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
    #: Newton steps each direction took from its plain radius.
    newton_steps: np.ndarray

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
        return mollify(self.gauge_fn, self.mollifier, x)[0]


def smoothed_body(
    poly: Polytope, epsilon: float, resolution: int | None = None
) -> SmoothedBody:
    """Compute { F_eps <= 1 } about the origin by Newton's method along each
    direction u, started at the plain radius rho(u) = 1 / F(u).

    g(r) = F_eps(r u) is convex with g(rho(u)) >= 1, so every step
    r <- r - (g - 1) / g' stays at or above the root while it lowers r.  A
    direction stops when the step no longer lowers r, which includes every
    g <= 1; one still moving after NEWTON_ITERS evaluations raises
    NumericalError.  A polytope of dimension other than 2 or 3 and an
    epsilon of half the inradius or more are rejected before any of it.
    """
    if poly.dim not in (2, 3):
        raise UnsupportedDimension(f"smoothing needs d = 2 or 3, got d = {poly.dim}")
    fn = GaugeFunction.from_polytope(poly)
    if epsilon >= 0.5 * fn.inradius:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} is not below half the inradius "
            f"{fn.inradius} about the origin"
        )
    mollifier = Mollifier.build(poly.dim, epsilon)
    if resolution is None:
        resolution = 96 if poly.dim == 2 else 24
    dirs, w = sphere_quadrature(poly.dim, resolution)
    radii = 1.0 / fn(dirs)
    steps = np.zeros(len(dirs), dtype=int)
    active = np.arange(len(dirs))
    for _ in range(NEWTON_ITERS):
        r = radii[active]
        g, radial = mollify(fn, mollifier, r[:, None] * dirs[active])
        # radial = r g'(r), so the Newton step scales r by 1 - (g - 1) / radial
        nxt = r * (1.0 - (g - 1.0) / radial)
        moving = nxt < r
        active = active[moving]
        radii[active] = nxt[moving]
        steps[active] += 1
        if not len(active):
            break
    else:
        raise NumericalError(
            f"Newton's method left {len(active)} smoothed radii unconverged "
            f"after {NEWTON_ITERS} steps"
        )
    return SmoothedBody(
        polytope=poly,
        gauge_fn=fn,
        mollifier=mollifier,
        directions=dirs,
        direction_weights=w,
        radii=radii,
        newton_steps=steps,
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
