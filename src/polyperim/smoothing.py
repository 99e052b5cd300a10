"""Smooth convex approximations of a polytope from inside.

The polytope K (with a chosen strictly interior origin) is encoded by its
gauge

    F(x) = max_f (a_f . (x - o)) / (b_f - a_f . o),     K = { F <= 1 },

a convex, positively homogeneous function of x - o.  Convolving F with a
smooth bump supported on the epsilon-ball gives a smooth convex function
whose unit body Q_eps approximates K from inside.  The convolution is
discretized once and for all by a fixed product quadrature on the unit ball
(nodes z_q = r_i u_j, weights p_q = rho_i alpha_j):

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
without crossing the root, and no bracket or fallback is needed.  A step
that lowers r by NEWTON_ULPS * r machine epsilons or less is rounding at
the root, so the direction stops without it.

Each evaluation screens its points, facet against facet.  With
d_f = a_f . (x - o) / c_f and beta_jf = eps a_f . u_j / c_f, facet f is the
line l_f(r) = d_f - r beta_jf along ray j, and e_qf = r_i beta_jf at node q.
Facet g wins node q only if l_g >= l_f there for every f, that is
d_g - d_f + r_i (beta_jf - beta_jg) >= 0.  Antipodal directions make
G_fg = max_j (beta_jf - beta_jg) nonnegative, so with r_i <= r_max facet g
can win some node only if d_g - d_f + r_max G_fg >= 0 for every f; a slack
of SCREEN_ULPS machine epsilons of |d_g| + |d_f| + r_max (max_j beta_jg +
max_j beta_jf) keeps a facet that wins by rounding.  As G_fg is at most
max_j beta_jf - min_j beta_jg, a facet that passes also passes, up to the
slack, the single-floor test d_g - r_max min_j beta_jg >=
max_f (d_f - r_max max_j beta_jf); the pairwise test is sharper because it
takes both facets' offsets along one direction, not each along its own.
A point with a single surviving facet f* has
F_eps = d_f* sum_q p_q - sum_q p_q e_qf* in closed form; ties keep both
facets.  A point with exactly two survivors f < g is closed too: g wins
node r_i u_j exactly when r_i delta_j < c, with delta_j = beta_jg - beta_jf
and c = d_g - d_f, that is when delta_j < c / r_i.  The delta_j do not
depend on the point, so they are sorted once per facet pair, the first time
a point has that pair as its survivors, with prefix sums A of alpha_j and B
of alpha_j delta_j in that order, and a point finds the k_i directions
below c / r_i at each radius by binary search: F_eps is f's closed form
plus sum_i rho_i (c A_k_i - r_i B_k_i), and its radial slope gains
sum_i rho_i c A_k_i.  The comparison is strict, so f keeps the ties, as the
running maximum does.

Everything above that does not depend on the points (beta, the node mass,
the mean node offsets, the screen's gap matrix and slack column and the
pair tables) is built once per polytope and epsilon, in a kernel, which is
the evaluation itself.  ``smoothed_body`` builds one before Newton's method
and keeps it on the body, so the body's ``level`` and ``convexity_probe``
reuse it.

Points with three or more survivors are summed ray by ray.  Let lines a
and z win at the smallest and the largest radius (the lowest index on
ties, as everywhere).  A line highest at both ends of an interval is
highest throughout, so if a = z the ray is d_a S0 - beta_ja S1, with
S0 = sum_i rho_i and S1 = sum_i rho_i r_i.  Otherwise l_a and l_z cross at
t, and a line above that two-piece envelope anywhere is above it at t (on
each piece it is below at the outer end).  So if no live line lies above
l_a(t) by more than a few ulps, the ray splits at t into prefix sums of
rho_i and rho_i r_i.  The other rays, with a third piece or a crossing on a
node (where the lowest index among the tied lines wins), take the running
maximum over their own radii.

The quadrature itself is accurate: with 32 radial Gauss-Legendre nodes the
raw kernel mass matches the true integral of the bump to ~1e-9 (recorded as
the kernel's ``mass_error``, which ``smooth`` prints, and required below
MASS_TOL).  The true integral uses the bump's radial mass for d = 2 and 3,
recorded in BUMP_RADIAL_MASS from an adaptive ``scipy.integrate.quad``; the
tests recompute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EpsilonTooLarge,
    InsufficientSamples,
    NumericalError,
    OriginNotInterior,
    UnsupportedDimension,
    checked_int,
    checked_real,
)
from .polytope import TOL, Polytope
from .profiles import sphere_measure

MASS_TOL = 1e-8
#: d -> int_0^1 exp(-1/(1-s^2)) s^(d-1) ds, as scipy.integrate.quad gives it
#: with epsabs=1e-14, epsrel=1e-13 (scipy 1.17.1)
BUMP_RADIAL_MASS = {2: 0.07424775338796101, 3: 0.0351007383764877}
RADIAL_NODES = 32
NEWTON_ITERS = 48
NEWTON_ULPS = 4
SCREEN_ULPS = 4
INSIDE_TOL = 1e-12
# elements per (points x directions) block of the ray sums and per
# (points x facets x facets) block of the screen; larger blocks make their
# temporaries, not the mesh or the body, the peak memory of a run
_BLOCK = 1 << 13


class _Kernel:
    """The mollified gauge of a polytope at one epsilon, with the tables its
    evaluation reads that do not depend on the points (see the module
    docstring).

    The gauge is taken about the vertex mean ``origin``, with the facets'
    ``offsets`` c_f = b_f - a_f . o from it, and ``_quadrature`` gives the
    product rule.  Construction rejects, in this order, an origin within
    TOL of a facet (``OriginNotInterior``), an epsilon that is not a
    positive real (``ValidationError``) and one of half the inradius
    min_f c_f or more (``EpsilonTooLarge``).  A facet pair's tables are
    built the first time a point has that pair as its two survivors, so a
    body with many facets builds only the pairs its points meet."""

    def __init__(self, poly: Polytope, epsilon: float) -> None:
        self.origin = poly.vertices.mean(axis=0)
        self.normals = poly.facet_normals
        self.offsets = poly.facet_offsets - self.normals @ self.origin
        if (self.offsets <= TOL).any():
            raise OriginNotInterior("gauge origin must lie strictly inside the polytope")
        self.epsilon = checked_real(epsilon, "epsilon", 0.0)
        inradius = float(self.offsets.min())
        if self.epsilon >= 0.5 * inradius:
            raise EpsilonTooLarge(
                f"epsilon {self.epsilon} is not below half the inradius "
                f"{inradius} about the vertex mean"
            )
        (self.radii, self.radial_weights, self.directions, self.direction_weights,
         self.mass_error) = _quadrature(poly.dim)
        self.beta = self.facet_values(self.epsilon * self.directions)
        # the total node weight, summed as ``_quadrature`` sums the raw mass
        self.mass = np.outer(self.radial_weights, self.direction_weights).sum()
        self.mean_e = (self.radial_weights @ self.radii) * (self.direction_weights @ self.beta)
        self.gap, self.spread = _screen_tables(self.beta, self.radii[-1])
        self.pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def facet_values(self, y: np.ndarray) -> np.ndarray:
        """(a_f . y) / c_f for each point y (last axis) and facet f, summed in
        a fixed order rather than by BLAS, whose rounding depends on the
        number of rows: a point's value must not depend on the points that
        share its call."""
        return (y[..., None, :] * self.normals).sum(axis=-1) / self.offsets

    def gauge(self, x: np.ndarray) -> np.ndarray:
        """The plain gauge F at a batch of points."""
        return self.facet_values(np.asarray(x, float) - self.origin).max(axis=-1)

    def pair(self, f: int, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted delta_j = beta_jg - beta_jf and the prefix sums, each from
        0, of alpha_j and alpha_j delta_j in that order."""
        tables = self.pairs.get((f, g))
        if tables is None:
            delta = self.beta[:, g] - self.beta[:, f]
            order = np.argsort(delta, kind="stable")
            delta = delta[order]
            alpha = self.direction_weights[order]
            cum_a = np.concatenate([[0.0], np.cumsum(alpha)])
            cum_ad = np.concatenate([[0.0], np.cumsum(alpha * delta)])
            tables = self.pairs[f, g] = delta, cum_a, cum_ad
        return tables

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the mollified gauge and its radial slope at a batch of points.

        Returns F_eps(x) and grad F_eps(x) . (x - o), the derivative of
        t -> F_eps(o + t (x - o)) at t = 1 (a subgradient where F_eps has a
        kink).  Points with one or two surviving facets take the closed
        forms; the rest are summed ray by ray over the facets that survive
        the screen for them.  A point's results do not depend on the other
        points of the call, so a direction's smoothed radius does not depend
        on which other directions are still moving.
        """
        beta, radii, rho = self.beta, self.radii, self.radial_weights
        x = np.atleast_2d(np.asarray(x, float))
        d = self.facet_values(x - self.origin)
        # facet g can win some node only if d_g - d_f + r_max G_fg >= 0 (less a
        # few ulps) for every f, G_fg = max_j (beta_jf - beta_jg); G_fg is at
        # most max_j beta_jf - min_j beta_jg, so this implies the single floor
        # d_g - r_max min_j beta_jg >= max_f (d_f - r_max max_j beta_jf)
        alive = _screen(d, self.gap, self.spread)
        win = alive.argmax(axis=1)
        d_win = np.take_along_axis(d, win[:, None], axis=1)[:, 0]
        value = d_win * self.mass - self.mean_e[win]
        radial = d_win * self.mass
        count = alive.sum(axis=1)
        two = np.flatnonzero(count == 2)
        patterns, group = np.unique(alive[two], axis=0, return_inverse=True)
        step = max(1, _BLOCK // len(radii))
        for k, pattern in enumerate(patterns):
            # f already holds the base; g adds c - r_i delta_j on the nodes with
            # delta_j < c / r_i, at each radius a prefix of the sorted delta
            f, g = np.flatnonzero(pattern)
            delta, cum_a, cum_ad = self.pair(int(f), int(g))
            members = two[group == k]
            for lo in range(0, len(members), step):
                rows = members[lo : lo + step]
                c = (d[rows, g] - d[rows, f])[:, None]
                below = np.searchsorted(delta, c / radii, side="left")
                gain = c * cum_a[below]
                radial[rows] += (gain * rho).sum(axis=1)
                gain -= radii * cum_ad[below]
                value[rows] += (gain * rho).sum(axis=1)
        # the other facets never win at these points, so they drop out as -inf
        many = np.flatnonzero(count > 2)
        step = max(1, _BLOCK // len(beta))
        for lo in range(0, len(many), step):
            rows = many[lo : lo + step]
            live = np.where(alive[rows], d[rows], -np.inf)
            ray_value, ray_radial, _ = _ray_sums(live, beta, radii, rho)
            value[rows] = (ray_value * self.direction_weights).sum(axis=1)
            radial[rows] = (ray_radial * self.direction_weights).sum(axis=1)
        return value, radial


def _screen_tables(beta: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """The point-free parts of ``_screen`` for slopes ``beta`` (directions x
    facets) and largest radius ``top``: the gap matrix top G_fg, with
    G_fg = max_j (beta_jf - beta_jg), and the slack column top B_f,
    B_f = max_j beta_jf."""
    facets = beta.shape[1]
    gap = np.empty((facets, facets))
    for f in range(facets):
        np.max(beta[:, f, None] - beta, axis=0, out=gap[f])
    gap *= top
    return gap, top * beta.max(axis=0)


def _screen(d: np.ndarray, gap: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Whether facet g can win at some node r_i u_j (r_i <= top), for each
    point (row of ``d``) and facet g, given ``_screen_tables``' gap matrix
    and slack column; see the module docstring.

    g survives only if d_g - d_f + top G_fg >= -slack for every f, with a
    slack of SCREEN_ULPS machine epsilons of |d_g| + |d_f| + top (B_g + B_f).
    The slack is a sum of a g part and an f part, so the test reads
    hi_g + min_f (top G_fg - lo_f) >= 0, over blocks of points that bound
    the points x facets x facets temporary.
    """
    n, facets = d.shape
    slack = SCREEN_ULPS * np.finfo(float).eps * (abs(d) + spread)
    lo, hi = d - slack, d + slack
    alive = np.empty(d.shape, bool)
    step = max(1, _BLOCK // facets**2)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        alive[rows] = hi[rows] + (gap - lo[rows, :, None]).min(axis=1) >= 0.0
    return alive


def _ray_sums(
    d: np.ndarray, beta: np.ndarray, r: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum each point's facet lines d_f - r beta_jf along each direction j.

    ``d`` is points x facets (-inf for a facet that cannot win), ``beta``
    directions x facets, ``r`` the ascending radii and ``rho`` their
    weights.  Returns sum_i rho_i max_f l_f(r_i), sum_i rho_i d_f*(i) with
    f*(i) the lowest-index winner, both points x directions, and the way
    each ray was summed: 0 one line, 1 two pieces, 2 running maximum.
    """
    facets = np.flatnonzero((d > -np.inf).any(axis=0))
    shape = (len(d), len(beta))
    _, a = _upper(d, facets, shape, lambda f: r[0] * beta[:, f])
    _, z = _upper(d, facets, shape, lambda f: r[-1] * beta[:, f])
    cols = np.arange(len(beta))
    d_a, d_z = np.take_along_axis(d, a, axis=1), np.take_along_axis(d, z, axis=1)
    beta_a, beta_z = beta[cols, a], beta[cols, z]
    # z wins at the top, so l_a - l_z falls and crosses zero at t; a crossing
    # that rounding puts on or outside the end radii goes to the dense sum
    one = a == z
    t = np.full(shape, r[0])
    np.divide(d_a - d_z, beta_a - beta_z, out=t, where=~one & (beta_a > beta_z))
    np.clip(t, r[0], r[-1], out=t)
    high, _ = _upper(d, facets, shape, lambda f: t * beta[:, f])
    # rounding in t and in the lines' values at t stays within this slack
    slack = 4.0 * np.spacing(abs(d_a) + abs(d_z) + t * (abs(beta_a) + abs(beta_z)))
    split = np.searchsorted(r, t)
    dense = ~one & ((r[split] == t) | (high > d_a - t * beta_a + slack))
    split[one] = len(r)
    cum_w, cum_wr = (np.concatenate([[0.0], np.cumsum(w)]) for w in (rho, rho * r))
    w, wr = cum_w[split], cum_wr[split]
    radial = d_a * w + d_z * (cum_w[-1] - w)
    value = radial - beta_a * wr - beta_z * (cum_wr[-1] - wr)
    p, j = np.nonzero(dense)
    acc, arg = _upper(d[p], facets, (len(p), len(r)), lambda f: np.outer(beta[j, f], r))
    value[p, j] = (acc * rho).sum(axis=1)
    radial[p, j] = (np.take_along_axis(d[p], arg, axis=1) * rho).sum(axis=1)
    kind = (~one).astype(np.int8)
    kind[dense] = 2
    return value, radial, kind


def _upper(d, facets, shape, offset) -> tuple[np.ndarray, np.ndarray]:
    """Running maximum over ``facets`` of d[:, f, None] - offset(f), and the
    lowest facet index that attains it."""
    best, arg = np.full(shape, -np.inf), np.zeros(shape, np.intp)
    cand, wins = np.empty(shape), np.empty(shape, bool)
    for f in facets:
        np.subtract(d[:, f, None], offset(f), out=cand)
        np.greater(cand, best, out=wins)
        np.copyto(arg, f, where=wins)
        np.maximum(best, cand, out=best)
    return best, arg


def sphere_quadrature(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights integrating over the unit sphere S^(dim-1).

    Weights sum to the full sphere measure.  Point counts are even in every
    angular factor, keeping the set antipodally symmetric.
    """
    dim = checked_int(dim, "dim", 2, 3, UnsupportedDimension)
    resolution = checked_int(resolution, "resolution", 4)
    if dim == 2:
        m = 2 * resolution
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    n_phi = 2 * resolution
    cx, cw = np.polynomial.legendre.leggauss(resolution)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    sin_t = np.sqrt(1.0 - cx**2)
    dirs = np.column_stack([
        np.outer(sin_t, np.cos(phi)).ravel(),
        np.outer(sin_t, np.sin(phi)).ravel(),
        np.repeat(cx, n_phi),
    ])
    w = np.outer(cw, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return dirs, w


def _quadrature(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The bump kernel's product rule on the unit ball, node r_i u_j with
    weight rho_i alpha_j: ascending radii in (0, 1) with their weights
    (Gauss-Legendre, with r^(d-1) and the bump folded in), antipodal
    directions with theirs (``sphere_quadrature``), the weights scaled to
    sum to 1, and the relative error of the raw mass against the true
    kernel integral (the recorded ``quad`` values in BUMP_RADIAL_MASS,
    checked in the tests), which must not exceed MASS_TOL."""
    dirs, alpha = sphere_quadrature(dim, 32 if dim == 2 else 12)
    rx, rw = np.polynomial.legendre.leggauss(RADIAL_NODES)
    r = 0.5 * (rx + 1.0)
    # the bump exp(-1/(1-r^2)) times r^(d-1); every radius is below 1
    raw = 0.5 * rw * r ** (dim - 1) * np.exp(-1.0 / (1.0 - r**2))
    # summed whole, as the kernel sums the weights, so they sum to 1 to the ulp
    mass = float(np.outer(raw, alpha).sum())
    true_mass = BUMP_RADIAL_MASS[dim] * sphere_measure(dim - 1)
    err = abs(mass / true_mass - 1.0)
    if err > MASS_TOL:
        raise NumericalError(f"kernel quadrature mass error {err:.3e} exceeds {MASS_TOL}")
    return r, raw / mass, dirs, alpha, err


@dataclass(frozen=True)
class SmoothedBody:
    """Star-body description of { F_eps <= 1 } via radial samples.

    ``kernel`` holds the gauge, the quadrature and the tables evaluation
    builds from them; ``smoothed_body`` builds it once and ``level`` reuses it.
    """

    polytope: Polytope
    kernel: _Kernel = field(repr=False)
    directions: np.ndarray
    direction_weights: np.ndarray
    radii: np.ndarray
    #: Newton steps each direction took from its plain radius.
    newton_steps: np.ndarray

    @property
    def volume(self) -> float:
        d = self.polytope.dim
        return float(self.direction_weights @ self.radii**d) / d

    @property
    def boundary_points(self) -> np.ndarray:
        return self.radii[:, None] * self.directions + self.kernel.origin

    def plain_radii(self) -> np.ndarray:
        """Radial function of the unsmoothed polytope, same directions."""
        return 1.0 / self.kernel.gauge(self.directions + self.kernel.origin)

    def level(self, x: np.ndarray) -> np.ndarray:
        return self.kernel(x)[0]


def smoothed_body(
    poly: Polytope, epsilon: float, resolution: int | None = None
) -> SmoothedBody:
    """Compute { F_eps <= 1 } about the gauge origin o, the mean of the
    vertices, by Newton's method along each direction u, started at the
    plain radius rho(u) = 1 / F(o + u).

    g(r) = F_eps(o + r u) is convex with g(rho(u)) >= 1, so every step
    r <- r - (g - 1) / g' stays at or above the root while it lowers r.  A
    direction stops, without taking it, at the first step that lowers r by
    at most NEWTON_ULPS * r machine epsilons, which includes every g <= 1;
    one still moving after NEWTON_ITERS evaluations raises NumericalError.
    A polytope of dimension other than 2 or 3, and then what ``_Kernel``
    rejects (a vertex mean on the boundary, an epsilon that is not positive
    or not below half the inradius), are rejected before any of it.
    """
    if poly.dim not in (2, 3):
        raise UnsupportedDimension(f"smoothing needs d = 2 or 3, got d = {poly.dim}")
    kernel = _Kernel(poly, epsilon)
    if resolution is None:
        resolution = 96 if poly.dim == 2 else 24
    dirs, w = sphere_quadrature(poly.dim, resolution)
    radii = 1.0 / kernel.gauge(dirs + kernel.origin)
    steps = np.zeros(len(dirs), dtype=int)
    active = np.arange(len(dirs))
    for _ in range(NEWTON_ITERS):
        r = radii[active]
        g, radial = kernel(kernel.origin + r[:, None] * dirs[active])
        # radial = r g'(r), so the Newton step scales r by 1 - (g - 1) / radial
        nxt = r * (1.0 - (g - 1.0) / radial)
        moving = r - nxt > NEWTON_ULPS * np.finfo(float).eps * r
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
        kernel=kernel,
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
    trials = checked_int(trials, "trials", 1, error=InsufficientSamples)
    seed = checked_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    d = body.polytope.dim
    lo = body.polytope.vertices.min(axis=0)
    hi = body.polytope.vertices.max(axis=0)
    need = 2 * trials
    pts, f = np.empty((0, d)), np.empty(0)
    while len(pts) < need:
        cand = rng.uniform(lo, hi, size=(2 * need, d))
        # F_eps >= F, so the exact gauge discards points outside K cheaply
        cand = cand[body.kernel.gauge(cand) <= 1.0 + INSIDE_TOL][: need - len(pts)]
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
    gap = float(np.max(body.kernel.gauge(pts) - f))
    return ConvexityReport(
        trials=trials,
        max_violation=violation,
        max_midpoint_violation=mid_violation,
        max_gauge_gap=gap,
    )
