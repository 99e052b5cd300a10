import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyperim import shapes, smoothing
from polyperim.errors import (
    EpsilonTooLarge,
    InsufficientSamples,
    OriginNotInterior,
    UnsupportedDimension,
    ValidationError,
)
from polyperim.polytope import Polytope
from polyperim.smoothing import (
    BUMP_RADIAL_MASS,
    INSIDE_TOL,
    MASS_TOL,
    NEWTON_ULPS,
    _Kernel,
    _quadrature,
    _ray_sums,
    _screen,
    _screen_tables,
    convexity_probe,
    smoothed_body,
    sphere_quadrature,
)

from conftest import SMOOTHED_SHAPES


def test_gauge_values_on_square():
    kernel = _Kernel(shapes.square(), 0.1)
    pts = np.array([[0.5, 0.0], [1.0, 1.0], [2.0, 0.0], [-0.25, 0.1], [0, 0]])
    expected = [0.5, 1.0, 2.0, 0.25, 0.0]
    assert np.allclose(kernel.gauge(pts), expected, atol=1e-12)
    assert kernel.offsets.min() == pytest.approx(1.0, abs=1e-12)


def test_gauge_positive_homogeneity():
    rng = np.random.default_rng(2)
    gauge = _Kernel(shapes.cube(side=2.0), 0.1).gauge
    x = rng.normal(size=(30, 3))
    for t in (0.5, 2.0, 7.5):
        assert np.allclose(gauge(t * x), t * gauge(x), atol=1e-12)


def _nodes_and_weights(kernel):
    """The quadrature nodes r_i u_j and weights rho_i alpha_j, radius-major."""
    dim = kernel.directions.shape[1]
    nodes = (kernel.radii[:, None, None] * kernel.directions).reshape(-1, dim)
    return nodes, np.outer(kernel.radial_weights, kernel.direction_weights).ravel()


def test_gauge_origin_must_be_interior():
    # the vertex mean of a thin triangle lies within TOL of its long side,
    # which is found before any epsilon, in range or not, is looked at
    thin = Polytope([[0, 0], [1, 0], [0.5, 3e-9]])
    message = "^gauge origin must lie strictly inside the polytope$"
    with pytest.raises(OriginNotInterior, match=message):
        _Kernel(thin, 0.1)
    for eps in (0.1, -1.0):
        with pytest.raises(OriginNotInterior, match=message):
            smoothed_body(thin, eps)


@pytest.mark.parametrize("dim", [2, 3])
def test_mollifier_kernel_quadrature(dim):
    kernel = _Kernel(shapes.square() if dim == 2 else shapes.cube(), 0.1)
    nodes, weights = _nodes_and_weights(kernel)
    assert kernel.mass_error < MASS_TOL
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # antipodally paired nodes with equal weights: first moment vanishes
    assert np.allclose(weights @ nodes, 0.0, atol=1e-15)
    assert np.linalg.norm(nodes, axis=1).max() < 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_recorded_bump_radial_mass_matches_quad(dim):
    # the adaptive integral the recorded constants were taken from
    from scipy.integrate import quad

    radial, _ = quad(
        lambda s: math.exp(-1.0 / (1.0 - s * s)) * s ** (dim - 1),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert BUMP_RADIAL_MASS[dim] == pytest.approx(radial, rel=1e-13, abs=0.0)


def test_recorded_planar_bump_mass_matches_its_closed_form():
    # s = sqrt(1 - 1/t) turns the d = 2 integral into (e^-1 - E1(1)) / 2
    from scipy.special import exp1

    closed = (math.exp(-1.0) - float(exp1(1.0))) / 2.0
    assert BUMP_RADIAL_MASS[2] == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_mollifier_rejects_bad_input():
    # the dimension is checked first, before any epsilon
    for eps in (0.1, math.nan):
        with pytest.raises(UnsupportedDimension, match="^smoothing needs d = 2 or 3, got d = 4$"):
            smoothed_body(shapes.hypercube(), eps)
    for eps in (0.0, -1.0):
        with pytest.raises(ValidationError, match=r"^epsilon must be in \(0\.0, inf\), got "):
            smoothed_body(shapes.square(), eps)


def test_nan_epsilon_is_rejected_as_not_positive():
    with pytest.raises(ValidationError, match=r"epsilon must be in \(0\.0, inf\), got nan"):
        _Kernel(shapes.square(), math.nan)
    with pytest.raises(ValidationError, match=r"epsilon must be in \(0\.0, inf\), got nan"):
        smoothed_body(shapes.square(), math.nan)


def brute_mollify(fn, kernel, x):
    """F_eps of fn by direct evaluation on every node of the kernel, shifted,
    the reference that the kernel is checked against, one point at a time to
    bound memory."""
    nodes, weights = _nodes_and_weights(kernel)
    return np.array([fn(p - kernel.epsilon * nodes) @ weights for p in x])


def test_mollify_is_exact_on_linear_functions():
    """A symmetric kernel reproduces affine functions exactly."""
    rng = np.random.default_rng(8)
    kernel = _Kernel(shapes.square(), 0.15)
    a = np.array([0.7, -1.3])
    fn = lambda pts: pts @ a + 0.25  # noqa: E731
    x = rng.normal(size=(40, 2))
    assert np.allclose(brute_mollify(fn, kernel, x), fn(x), atol=1e-13)


def _survivors_matching_brute(kernel, x):
    """Check the kernel against direct evaluation, values and radial slopes
    alike, check that every facet winning some node survives the screen,
    and return each point's number of facets surviving the screen."""
    value, radial = kernel(x)
    assert np.abs(value - brute_mollify(kernel.gauge, kernel, x)).max() <= 1e-13
    # the slope is the weighted facet value d_f* of each node's winner, the
    # lowest facet index among equal values
    d, beta, alive = _screened(kernel, x)
    nodes, weights = _nodes_and_weights(kernel)
    shifted = x[:, None, :] - kernel.epsilon * nodes - kernel.origin
    win = ((shifted @ kernel.normals.T) / kernel.offsets).argmax(axis=-1)
    d_win = np.take_along_axis(d, win, axis=1)
    assert np.abs(radial - d_win @ weights).max() <= 1e-13
    assert not (_node_winners(d, beta, kernel.radii) & ~alive).any()
    return alive.sum(axis=1)


def _screened(kernel, x):
    """The facet values d and slopes beta the kernel takes for the points
    x, and which facets survive its screen."""
    d = kernel.facet_values(x - kernel.origin)
    return d, kernel.beta, _screen(d, kernel.gap, kernel.spread)


def _node_winners(d, beta, r):
    """Whether each facet wins some node r_i u_j at each point: the lowest
    index among the highest of the lines d_f - r_i beta_jf, as the ray sums
    evaluate them."""
    offsets = r[:, None] * beta[:, None, :]
    wins = np.zeros(d.shape, bool)
    for lo in range(0, len(d), 16):
        rows = np.arange(lo, min(lo + 16, len(d)))
        win = (d[rows, None, None, :] - offsets).argmax(axis=-1)
        wins[rows[:, None], win.reshape(len(rows), -1)] = True
    return wins


#: the epsilon that the dyadic rule is taken at
DYADIC_EPSILON = 0.125


def _dyadic_quadrature(dim):
    """Product rule of the radii k/8 (k = 1..7) along the 2 * dim axis
    directions, in ``_quadrature``'s form; at DYADIC_EPSILON every node
    offset, every s_q, every crossing of two facet lines and every tie below
    is exact in floating point and no comparison is decided by rounding."""
    r = np.arange(1, 8) / 8.0
    rho = 1.0 - r**2
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    alpha = np.full(2 * dim, 1.0 / (2 * dim))
    return r, rho / rho.sum(), dirs, alpha, 0.0


def test_mollify_fast_path_matches_generic(monkeypatch):
    """Points with one, two and three or more surviving facets all match
    direct evaluation, also where c = d_g - d_f equals some s_q = e_qg - e_qf
    exactly: there the lower facet f keeps node q."""
    rng = np.random.default_rng(9)
    for poly in (shapes.square(), shapes.cube(side=2.0), shapes.octahedron()):
        kernel = _Kernel(poly, 0.12)
        x = rng.uniform(-1.4, 1.4, size=(200, poly.dim))
        # on a symmetry axis two facets share d exactly (c = 0)
        axis = np.zeros(poly.dim)
        axis[:2] = 1.0
        x = np.vstack([x, np.outer([0.3, 0.7, 0.8, 0.9], axis)])
        survivors = _survivors_matching_brute(kernel, x)
        assert (survivors == 1).any() and (survivors == 2).any()
        assert (survivors >= 3).any()

    # the square's and the cube's facets with normals +x and +y (f < g by
    # index) have unit normals and offsets: d_f = a and d_g = a + s_q tie
    # node q exactly, and on the diagonal (c = 0) every node with z_x = z_y
    # ties: the cube's nodes on the z axis
    monkeypatch.setattr(smoothing, "_quadrature", _dyadic_quadrature)
    for poly in (shapes.square(), shapes.cube(side=2.0)):
        kernel = _Kernel(poly, DYADIC_EPSILON)
        a, c = kernel.normals, kernel.offsets
        axis = np.zeros(poly.dim)
        axis[:2] = 1.0
        f, g = np.sort(np.argsort(a @ axis)[-2:])
        e = ((kernel.epsilon * _nodes_and_weights(kernel)[0]) @ a.T) / c
        s = np.union1d(e[:, g] - e[:, f], [0.0])
        x = 0.75 * a[f] + (0.75 + s[:, None]) * a[g]
        assert (e[:, g] == e[:, f]).any() == (poly.dim == 3)
        assert (_survivors_matching_brute(kernel, x) == 2).all()


def _ray_inputs(kernel, x):
    """The arguments the kernel hands ``_ray_sums`` for the points x."""
    d, beta, alive = _screened(kernel, x)
    return np.where(alive, d, -np.inf), beta, kernel.radii, kernel.radial_weights


def _brute_rays(d, beta, r, rho):
    """Each ray's weighted maximum of its facet lines and weighted winner
    value, taken node by node; the lowest facet index wins ties."""
    lines = d[:, None, None, :] - r[None, None, :, None] * beta[None, :, None, :]
    win = lines.argmax(axis=-1)
    return lines.max(axis=-1) @ rho, d[np.arange(len(d))[:, None, None], win] @ rho


def test_ray_sums_match_each_node():
    """One-line, two-piece and dense rays all match the node-by-node
    maximum, also where three lines meet on a node and the lowest index
    there is neither end's winner."""
    rng = np.random.default_rng(11)
    r, rho = _quadrature(3)[:2]
    d = rng.uniform(0.8, 1.0, size=(60, 6))
    d[rng.random(d.shape) < 0.2] = -np.inf
    beta = rng.uniform(-0.3, 0.3, size=(40, 6))
    value, radial, kind = _ray_sums(d, beta, r, rho)
    expected_value, expected_radial = _brute_rays(d, beta, r, rho)
    assert np.abs(value - expected_value).max() <= 1e-13
    assert np.abs(radial - expected_radial).max() <= 1e-13
    assert set(np.unique(kind)) == {0, 1, 2}

    # 0.5 - r and r cross at the node 1/4, where the constant 1/4 ties them
    # with the lowest index
    r, rho = np.arange(1, 8) / 8.0, np.linspace(1.0, 2.0, 7)
    d, beta = np.array([[0.25, 0.5, 0.0]]), np.array([[0.0, 1.0, -1.0]])
    value, radial, kind = _ray_sums(d, beta, r, rho)
    expected_value, expected_radial = _brute_rays(d, beta, r, rho)
    assert kind[0, 0] == 2
    assert value[0, 0] == expected_value[0, 0]
    assert radial[0, 0] == expected_radial[0, 0]
    assert radial[0, 0] == 0.5 * rho[0] + 0.25 * rho[1]


@pytest.mark.parametrize("seed", range(5))
def test_mollify_ray_path_matches_brute_on_sphere_hulls(seed):
    """Points with three or more survivors on random hulls of 8 to 40 points
    of the sphere, at epsilon up to 0.45 times the inradius, match direct
    evaluation, and between them reach all three kinds of ray."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(8 + 8 * seed, 3))
    poly = Polytope.from_vertices(points / np.linalg.norm(points, axis=1, keepdims=True))
    origin = poly.vertices.mean(axis=0)
    inradius = (poly.facet_offsets - poly.facet_normals @ origin).min()
    kinds = set()
    for fraction in (0.15, 0.3, 0.45):
        kernel = _Kernel(poly, fraction * inradius)
        # near the vertices several facets survive
        near = poly.vertices[rng.integers(len(poly.vertices), size=200)]
        x = origin + rng.uniform(0.85, 1.1, size=(200, 1)) * (near - origin)
        x += rng.normal(scale=0.02, size=x.shape)
        live = _ray_inputs(kernel, x)[0]
        x = x[(live > -np.inf).sum(axis=1) >= 3][:12]
        assert len(x) == 12
        assert (_survivors_matching_brute(kernel, x) >= 3).all()
        kinds.update(np.unique(_ray_sums(*_ray_inputs(kernel, x))[2]).tolist())
    assert kinds == {0, 1, 2}


def test_mollify_cube_corner_crossings_on_nodes(monkeypatch):
    """Near a corner of the side-2 cube, along the axis direction that
    points inward on x_i, facet i's line d_i + r/8 meets the two level
    facets j at r = 8 (d_j - d_i), the node k/8 when d_j - d_i = k/64.  All
    three tie there, exactly, and the lowest index among them takes the
    node's slope, whichever of them that is."""
    monkeypatch.setattr(smoothing, "_quadrature", _dyadic_quadrature)
    kernel = _Kernel(shapes.cube(side=2.0), DYADIC_EPSILON)
    rising_lowest = set()
    # k / 64 puts the crossing on the node k / 8, odd k / 128 between nodes
    gap = np.r_[np.arange(2, 7) / 64.0, np.arange(3, 14, 2) / 128.0]
    for corner in np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T:
        facet = [int(np.argmax(kernel.normals[:, i] * c)) for i, c in enumerate(corner)]
        for i in range(3):
            x = np.tile(0.75 + gap[:, None], 3)
            x[:, i] = 0.75
            x *= corner
            assert (_survivors_matching_brute(kernel, x) == 3).all()
            kind = _ray_sums(*_ray_inputs(kernel, x))[2]
            assert (kind[:5] == 2).any() and (kind[5:] == 1).any()
            rising_lowest.add(facet[i] < min(f for j, f in enumerate(facet) if j != i))
    assert rising_lowest == {True, False}


def _probe_points(body, trials, seed):
    """Every point at which ``convexity_probe`` evaluates F_eps."""
    points = []
    level = type(body).level

    def recorded(self, x):
        points.append(x)
        return level(self, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(body), "level", recorded)
        convexity_probe(body, trials=trials, seed=seed)
    return np.vstack(points)


#: points of the octahedron eps 0.2 probe below with 1, 2 and 3 or more
#: surviving facets; the single-floor screen sent more of them ray by ray
OCTAHEDRON_PROBE_PATHS = [53, 407, 586]


@pytest.mark.parametrize("shape, resolution", [("octahedron", 10), ("cube2", None), ("square", None)])
def test_screen_keeps_every_node_winner_of_the_probe_points(shape, resolution, smoothed_bodies):
    """At every point of a seeded probe, each facet that wins some node
    survives the screen.  On the octahedron and the square the screen keeps
    exactly the winners' count, point class by point class."""
    body = smoothed_bodies(shape, 0.2, resolution)
    d, beta, alive = _screened(body.kernel, _probe_points(body, 256, 0))
    wins = _node_winners(d, beta, body.kernel.radii)
    assert not (wins & ~alive).any()
    paths = np.bincount(np.minimum(alive.sum(axis=1), 3), minlength=4)[1:]
    if shape != "cube2":
        assert paths.tolist() == np.bincount(np.minimum(wins.sum(axis=1), 3))[1:].tolist()
    if shape == "octahedron":
        assert paths.tolist() == OCTAHEDRON_PROBE_PATHS


def test_screen_keeps_facets_that_win_by_rounding():
    """Facet 0's line ties facet 1's, up to an ulp either way, at the
    largest radius of the ray where facet 1 falls fastest against it.  Where
    rounding lets facet 0 win that node, it survives the screen, which
    takes its few ulps of slack for this."""
    rng = np.random.default_rng(0)
    for poly in (shapes.square(), shapes.octahedron()):
        kernel = _Kernel(poly, 0.2)
        top, beta = kernel.radii[-1], kernel.beta
        j = np.argmax(beta[:, 1] - beta[:, 0])
        d = np.full((200, len(kernel.offsets)), -50.0)
        d[:, 1] = rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.uniform(-3.0, 0.0, 200)
        tie = (d[:, 1] - top * beta[j, 1]) + top * beta[j, 0]
        d[:, 0] = np.nextafter(tie, rng.choice([-np.inf, np.inf], 200))
        wins = _node_winners(d, beta, kernel.radii)
        assert 50 <= wins[:, 0].sum() <= 150
        assert not (wins & ~_screen(d, *_screen_tables(beta, top))).any()


@pytest.mark.parametrize("shape, resolution", [("octahedron", 10), ("cube2", None), ("square", None)])
def test_mollify_does_not_depend_on_batching(shape, resolution, smoothed_bodies):
    """Values and slopes at a point are bit for bit the same alone, in the
    whole batch and in uneven parts of it."""
    body = smoothed_bodies(shape, 0.2, resolution)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.1, 1.1, size=(120, body.polytope.dim)) * body.polytope.vertices.max()
    kernel = _Kernel(body.polytope, body.kernel.epsilon)
    batch = np.array(kernel(x))
    alone = np.hstack([kernel(point) for point in x])
    parts = np.hstack([kernel(part) for part in np.split(x, [7, 50, 51])])
    assert np.array_equal(alone, batch) and np.array_equal(parts, batch)


def test_gauge_does_not_depend_on_batching():
    """A gauge value is bit for bit the same alone and in a batch."""
    rng = np.random.default_rng(5)
    points = rng.normal(size=(40, 3))
    sphere = Polytope.from_vertices(points / np.linalg.norm(points, axis=1, keepdims=True))
    for poly in (shapes.square(), shapes.cube(side=2.0), shapes.octahedron(), sphere):
        gauge = _Kernel(poly, 0.01).gauge
        x = rng.uniform(-1.5, 1.5, size=(300, poly.dim))
        assert np.array_equal(np.array([gauge(p) for p in x]), gauge(x))


@pytest.mark.parametrize("shape", ["cube2", "octahedron"])
def test_a_body_builds_its_kernel_once(shape, monkeypatch):
    """``smoothed_body`` builds one kernel, which its Newton steps, ``level``
    and the convexity probe all reuse, and a fresh kernel agrees with the
    body's bit for bit.  On the body's boundary points the one-facet,
    two-facet and ray-by-ray paths all run."""
    built, kernel = [], smoothing._Kernel

    def counted(poly, epsilon):
        built.append(kernel(poly, epsilon))
        return built[-1]

    monkeypatch.setattr(smoothing, "_Kernel", counted)
    body = smoothed_body(SMOOTHED_SHAPES[shape](), 0.2, resolution=10)
    x = _probe_points(body, 256, 0)
    assert len(built) == 1 and body.kernel is built[0]
    # the probe met two-facet points, whose pair tables the kernel keeps
    assert body.kernel.pairs
    value, radial = smoothing._Kernel(body.polytope, body.kernel.epsilon)(x)
    assert len(built) == 2 and not built[1].pairs.keys() - body.kernel.pairs.keys()
    assert np.array_equal(value, body.level(x))
    assert np.array_equal(radial, body.kernel(x)[1])
    counts = _screened(body.kernel, body.boundary_points)[2].sum(axis=1)
    assert {1, 2} <= set(counts.tolist()) and counts.max() >= 3


def test_mollified_gauge_dominates_gauge():
    rng = np.random.default_rng(10)
    kernel = _Kernel(shapes.square(), 0.2)
    x = rng.uniform(-1.5, 1.5, size=(200, 2))
    assert np.all(kernel(x)[0] >= kernel.gauge(x) - 1e-12)


def test_mollified_gauge_untouched_away_from_corners():
    # only one facet is active within the kernel ball there, so the
    # smoothed value collapses to the plain linear gauge
    kernel = _Kernel(shapes.square(), 0.2)
    x = np.array([[0.9, 0.0], [0.0, -0.6], [1.1, 0.0]])
    assert np.allclose(kernel(x)[0], [0.9, 0.6, 1.1], atol=1e-13)


@pytest.mark.parametrize("dim, expected", [(2, 2 * math.pi), (3, 4 * math.pi)])
def test_sphere_quadrature_total_measure(dim, expected):
    dirs, w = sphere_quadrature(dim, 12)
    assert w.sum() == pytest.approx(expected, abs=1e-9)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # antipodal closure
    flipped = -dirs
    for v in flipped[:: max(1, len(flipped) // 16)]:
        assert np.min(np.linalg.norm(dirs - v, axis=1)) < 1e-9


def test_sphere_quadrature_limits():
    with pytest.raises(ValidationError):
        sphere_quadrature(2, 3)
    with pytest.raises(UnsupportedDimension):
        sphere_quadrature(4, 8)


def test_smoothed_square_is_contained_and_loses_volume():
    poly = shapes.square()
    eps_values = (0.2, 0.1)
    deficits = []
    for eps in eps_values:
        body = smoothed_body(poly, eps)
        assert np.all(body.radii <= body.plain_radii() + 1e-9)
        assert body.volume < 4.0
        deficits.append(4.0 - body.volume)
        inside = np.array([[0.0, 0.0], [0.5, -0.5]])
        outside = np.array([[1.2, 1.2], [0.99, 0.99]])
        assert (body.level(inside) <= 1.0 + INSIDE_TOL).all()
        assert not (body.level(outside) <= 1.0 + INSIDE_TOL).any()
    assert deficits[0] > deficits[1] > 0.0


def test_smoothed_cube_quick():
    body = smoothed_body(shapes.cube(side=2.0), 0.25, resolution=8)
    assert 0 < body.volume < 8.0
    assert np.all(body.radii <= body.plain_radii() + 1e-9)
    assert body.kernel.epsilon == 0.25
    assert body.level(np.array([[0.0, 0.0, 0.0]]))[0] < 1.0


@pytest.mark.parametrize("name", ["cube", "tetrahedron", "octahedron", "square"])
def test_gauge_origin_is_zero_on_the_centred_shapes(name):
    # so their smoothed bodies are the ones taken about the coordinate origin
    poly = getattr(shapes, name)()
    assert (poly.vertices.mean(axis=0) == 0.0).all()
    assert (_Kernel(poly, 0.01).origin == 0.0).all()


@pytest.mark.parametrize("name", ["square_pyramid", "triangular_prism", "triangle"])
def test_shapes_around_an_off_centre_vertex_mean_smooth(name):
    poly = getattr(shapes, name)()
    body = smoothed_body(poly, 0.05, resolution=12)
    origin = poly.vertices.mean(axis=0)
    assert np.array_equal(body.kernel.origin, origin)
    assert (body.radii <= body.plain_radii()).all()
    assert (body.radii < body.plain_radii()).any()
    assert np.abs(body.level(body.boundary_points) - 1.0).max() <= 1e-12
    # the plain radii reach the polytope's boundary from the vertex mean
    plain = origin + body.plain_radii()[:, None] * body.directions
    assert np.abs(body.kernel.gauge(plain) - 1.0).max() <= 1e-12


def test_smoothed_body_epsilon_guard():
    with pytest.raises(EpsilonTooLarge):
        smoothed_body(shapes.square(), 0.5)  # half the inradius exactly


@pytest.mark.parametrize("shape", ["square", "cube2", "octahedron"])
@pytest.mark.parametrize("eps", [1e-4, 0.2])
def test_newton_converges_in_few_steps(shape, eps, smoothed_bodies):
    body = smoothed_bodies(shape, eps, None)
    assert body.newton_steps.max() <= 12
    # a direction keeps its plain radius exactly when it took no step
    unmoved = body.radii == body.plain_radii()
    assert np.array_equal(unmoved, body.newton_steps == 0)


def test_each_counted_newton_step_lowers_its_radius(smoothed_bodies):
    """Replaying the iteration, every counted step lowers its radius r by
    more than NEWTON_ULPS * r machine epsilons, and the step each direction
    stopped at does not."""
    for shape, eps, resolution in (("octahedron", 0.2, 10), ("square", 0.2, None)):
        body = smoothed_bodies(shape, eps, resolution)
        radii = body.plain_radii()
        active = np.arange(len(radii))
        for k in range(body.newton_steps.max() + 1):
            r = radii[active]
            x = body.kernel.origin + r[:, None] * body.directions[active]
            g, radial = body.kernel(x)
            nxt = r * (1.0 - (g - 1.0) / radial)
            counted = body.newton_steps[active] > k
            progress = r - nxt > NEWTON_ULPS * np.finfo(float).eps * r
            assert np.array_equal(progress, counted)
            active = active[counted]
            radii[active] = nxt[counted]
        assert not len(active)
        assert np.array_equal(radii, body.radii)


def test_convexity_probe_memory_stays_small():
    """The ray sums' temporaries come in blocks of 2^13 (point, direction)
    elements: the probe peaks at 2.0 MiB here, 3.5 MiB with blocks twice
    that size, and 3.3 MiB with a dense maximum over all nodes in blocks of
    2^16 (point, node) elements."""
    body = smoothed_body(shapes.octahedron(), 0.2, resolution=10)
    tracemalloc.start()
    try:
        convexity_probe(body, trials=256, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20


def test_convexity_probe_on_square():
    body = smoothed_body(shapes.square(), 0.2)
    report = convexity_probe(body, trials=1500, seed=3)
    assert report.trials == 1500
    assert report.max_violation <= 1e-9
    assert report.max_midpoint_violation <= 1e-9
    assert report.max_gauge_gap <= 1e-9
    with pytest.raises(InsufficientSamples):
        convexity_probe(body, trials=0)


def test_convexity_probe_smooths_only_the_points_it_keeps(monkeypatch, smoothed_bodies):
    """F_eps runs on 2T sample points, the few that fall between Q_eps and
    K, and the 2T combinations; the box corners outside K never reach it."""
    body = smoothed_bodies("octahedron", 0.2, 10)
    evaluated = []
    level = type(body).level

    def counted(self, x):
        evaluated.append(len(x))
        return level(self, x)

    monkeypatch.setattr(type(body), "level", counted)
    convexity_probe(body, trials=500, seed=1)
    assert 4 * 500 <= sum(evaluated) <= 4.2 * 500


#: Radii recorded before the bisection started from its proven bracket:
#: criterion 7's bodies at the default resolution and the benchmark's bodies.
PINNED_RADII = json.loads(
    (Path(__file__).parent / "data" / "smoothed_radii.json").read_text()
)


@pytest.mark.parametrize("key", list(PINNED_RADII))
def test_smoothed_radii_are_pinned(key, smoothed_bodies):
    shape, eps, res = key.split("-")
    resolution = None if res == "rdefault" else int(res[1:])
    body = smoothed_bodies(shape, float(eps[3:]), resolution)
    assert np.abs(body.radii - PINNED_RADII[key]).max() <= 1e-13
