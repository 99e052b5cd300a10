import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.stats import special_ortho_group

from polyperim import polytope, shapes
from polyperim.cones import vertex_cones
from polyperim.errors import (
    BadDocument,
    DegenerateFacet,
    DimensionTooHigh,
    InvalidPolytope,
    NotFullDimensional,
    ValidationError,
)
from polyperim.mesh import subdivide
from polyperim.polytope import (
    MAX_COORD,
    TOL,
    Polytope,
    _ring_edges,
    affine_span,
    enumerate_facets,
    polytope_measure,
)

from conftest import OFF_EDGE_CUBE, assert_facet_planes_hold


def _surface_area(poly):
    return sum(polytope_measure(poly.vertices[list(f)]) for f in poly.facets)


def test_cube_facets_and_areas():
    cube = shapes.cube()
    assert len(cube.facets) == 6
    for f in cube.facets:
        assert polytope_measure(cube.vertices[list(f)]) == pytest.approx(1.0, abs=1e-12)
    assert _surface_area(cube) == pytest.approx(6.0, abs=1e-12)


def test_shape_surface_areas():
    assert _surface_area(shapes.tetrahedron()) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
    # circumradius 1 regular octahedron has edge sqrt(2)
    assert _surface_area(shapes.octahedron()) == pytest.approx(
        8 * (math.sqrt(3) / 4) * 2.0, abs=1e-12
    )
    # boundary of the square [-1,1]^2 is four edges of length 2
    assert _surface_area(shapes.square()) == pytest.approx(8.0, abs=1e-12)
    assert _surface_area(shapes.triangular_prism()) == pytest.approx(
        2 * math.sqrt(3) / 4 + 3.0, abs=1e-12
    )


def test_hypercube_structure():
    hc = shapes.hypercube()
    assert hc.dim == 4
    assert len(hc.vertices) == 16
    assert len(hc.facets) == 8
    for f in hc.facets:
        assert len(f) == 8  # cubical cells
    assert _surface_area(hc) == pytest.approx(8.0, abs=1e-9)


def _rounded_hypercube(seed, decimals):
    corners = np.array(list(itertools.product([-0.5, 0.5], repeat=4)))
    rotation = special_ortho_group.rvs(4, random_state=seed)
    return np.round(corners @ rotation.T, decimals)


@pytest.mark.parametrize("decimals", [10, 12])
def test_rounded_rotated_hypercubes_keep_their_eight_cells(decimals):
    # rounding bends the cubical cells, and Qhull then reports flat simplices
    # inside some of them: four points of a square face, nested in a cell
    for seed in range(40):
        poly = Polytope.from_vertices(_rounded_hypercube(seed, decimals))
        assert [len(f) for f in poly.facets] == [8] * 8
        assert_facet_planes_hold(poly)
        links = [c.link_volume for c in vertex_cones(poly)]
        assert np.allclose(links, 2.0 * math.pi, rtol=0.0, atol=10.0 ** (2 - decimals))


@pytest.mark.parametrize(
    "decimals, overlapping, splitting",
    [
        (8, [], list(range(40))),
        (9, [0, 1, 2, 3, 4, 5, 10, 12, 15, 19, 21, 23, 28, 37, 39], [14, 26]),
    ],
    ids=["8", "9"],
)
def test_rounded_rotated_hypercubes_load_correctly_or_are_rejected(
    decimals, overlapping, splitting
):
    # at 8 decimals rounding splits every cell into several facets that meet
    # along flat simplices, and at 9 it splits two seeds' hulls; at 9, some
    # cells' eight vertices are near no single Qhull plane, and overlapping
    # subsets of them would each count as a facet, so parts of the cell and
    # its corners would count twice
    rejected, split = [], []
    for seed in range(40):
        try:
            poly = Polytope.from_vertices(_rounded_hypercube(seed, decimals))
        except InvalidPolytope as err:
            assert "facets overlap" in str(err)
            rejected.append(seed)
            continue
        assert_facet_planes_hold(poly)
        cones = vertex_cones(poly)
        links = [c.link_volume for c in cones]
        assert np.allclose(links, 2.0 * math.pi, rtol=0.0, atol=1e-6)
        r_max = np.array([c.r_max for c in cones])
        if [len(f) for f in poly.facets] == [8] * 8:
            # a bent square face is one 2-face of its cell, not two triangles
            assert np.allclose(r_max, 1.0, rtol=0.0, atol=1e-6)
        else:
            # a split cell's stars end at the ridges inside it: a conservative
            # radius for the literal input (seed 0 reads 1/sqrt(3)), never a
            # longer one than the intended cube's
            assert np.all((r_max > 0) & (r_max <= 1 + 1e-6))
            split.append(seed)
        assert _surface_area(poly) == pytest.approx(
            ConvexHull(poly.vertices).area, rel=0.0, abs=1e-6
        )
    assert rejected == overlapping
    assert split == splitting


def test_facet_enumeration_matches_known_counts():
    for poly, count in [
        (shapes.cube(), 6),
        (shapes.tetrahedron(), 4),
        (shapes.octahedron(), 8),
        (shapes.square_pyramid(), 5),
        (shapes.triangular_prism(), 5),
    ]:
        found, normals, offsets = enumerate_facets(poly.vertices)
        assert len(found) == count
        assert sorted(tuple(sorted(f)) for f in found) == sorted(poly.facets)
        assert np.array_equal(normals, poly.facet_normals)
        assert np.array_equal(offsets, poly.facet_offsets)


def test_outward_normals():
    cube = shapes.cube()
    for fi in range(len(cube.facets)):
        n, b = cube.facet_normals[fi], cube.facet_offsets[fi]
        assert n @ cube.vertices.mean(axis=0) < b
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_serialization_roundtrip():
    for poly in (shapes.cube(), shapes.square_pyramid(), shapes.square()):
        doc = poly.serialize()
        back = Polytope.from_document(doc)
        assert np.allclose(back.vertices, poly.vertices)
        assert back.facets == poly.facets
        again = Polytope.loads(json.dumps(doc))
        assert np.allclose(again.vertices, poly.vertices)


def test_load_polytope_from_dict_and_string():
    doc = shapes.tetrahedron().serialize()
    a = Polytope.from_document(doc)
    b = Polytope.loads(json.dumps(doc))
    assert np.allclose(a.vertices, b.vertices)


def test_document_validation_errors():
    tri = [[0, 0], [1, 0], [0, 1]]
    for doc, message in [
        ([], "must be a JSON object"),
        ({"vertices": tri}, "missing field 'dim'"),
        ({"dim": "2", "vertices": [[0, 0]]}, "'dim' must be an integer"),
        ({"dim": 2, "vertices": [["a", 0, 0]]}, "bad vertex coordinates"),
        ({"dim": 2, "vertices": [[0, 0], [1]]}, "bad vertex coordinates"),
        ({"dim": 2, "vertices": [[0, 0, 0]]}, "rows of 2 coordinates"),
        ({"dim": 2, "vertices": [[0, 0], [1, math.inf], [0, 1]]}, "must be finite"),
        ({"dim": 2, "vertices": tri, "name": 5}, "'name' must be a string"),
        ({"dim": 2, "vertices": tri, "facets": {}}, "'facets' must be a list"),
    ]:
        with pytest.raises(BadDocument, match=message):
            Polytope.from_document(doc)
    with pytest.raises(BadDocument, match="not valid JSON"):
        Polytope.loads("not json")
    with pytest.raises(InvalidPolytope, match="2-dimensional"):
        Polytope.from_vertices(np.zeros(3))


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0, 3)])
@pytest.mark.parametrize("build", [Polytope, Polytope.from_vertices], ids=["init", "from_vertices"])
def test_vertex_arrays_without_rows_or_columns_are_rejected(build, shape):
    # (m, 0) arrays raised a bare IndexError from cKDTree, and (0, 3) ones
    # two numpy RuntimeWarnings before NotFullDimensional
    with pytest.raises(InvalidPolytope, match=re.escape(f"got shape {shape}")):
        build(np.zeros(shape))


@pytest.mark.parametrize(
    "vertices",
    [[["a", "b"], [1, 0], [0, 1]], [[0, 0], [1], [0, 1]], [[1 + 2j, 0], [1, 0], [0, 1]]],
    ids=["string", "ragged", "complex"],
)
@pytest.mark.parametrize("build", [Polytope, Polytope.from_vertices], ids=["init", "from_vertices"])
def test_coordinates_that_are_not_real_numbers_are_rejected(build, vertices):
    # numpy's bare ValueError or TypeError escaped here, past ValidationError
    with pytest.raises(InvalidPolytope, match="^bad vertex coordinates: "):
        build(vertices)


@pytest.mark.parametrize("name", ["square", "cube", "hypercube"])
def test_coordinates_up_to_the_bound_build_exactly(name):
    # at the bound each shape has its facets and cones, scaled exactly
    unit = getattr(shapes, name)()
    scale = MAX_COORD / np.abs(unit.vertices).max()
    poly = Polytope.from_vertices(unit.vertices * scale)
    assert poly.facets == unit.facets
    for cone, ref in zip(vertex_cones(poly), vertex_cones(unit)):
        assert cone.link_volume == pytest.approx(ref.link_volume, abs=1e-12)
        assert cone.r_max == pytest.approx(ref.r_max * scale, rel=1e-15)
    doc = unit.serialize()
    doc["vertices"] = poly.vertices.tolist()
    assert Polytope.from_document(doc).facets == unit.facets


@pytest.mark.parametrize("scale", [1.0000001, 1e50, 1e110])
def test_coordinates_past_the_bound_are_rejected(scale):
    # 1e160 made scipy's KD-tree raise a bare ValueError, 1e100 read as
    # NotFullDimensional from Qhull
    doc = shapes.cube().serialize()
    vertices = 2 * MAX_COORD * scale * np.array(doc["vertices"])
    with pytest.raises(InvalidPolytope, match="at most 1e\\+50"):
        Polytope.from_vertices(vertices)
    doc["vertices"] = vertices.tolist()
    with pytest.raises(BadDocument, match="at most 1e\\+50"):
        Polytope.from_document(doc)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Polytope(np.array([[np.nan, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])),
         "must be finite"),
        (lambda: Polytope([[0, 0], [1, 0], [0, 1], [0, 0]]), "vertices 0 and 3"),
        (lambda: Polytope(np.vstack([np.zeros(3), np.eye(3), np.zeros(3)])),
         "vertices 0 and 4"),
        (lambda: shapes.cube(side=1e60), "at most 1e\\+50"),
    ],
    ids=["nan", "repeated-triangle-vertex", "repeated-tetrahedron-vertex", "huge-cube"],
)
def test_the_constructor_checks_coordinates_as_loads_do(build, message):
    # before, NaN raised numpy's LinAlgError, the repeated vertices loaded
    # with merged facets and the cube loaded past MAX_COORD
    with pytest.raises(InvalidPolytope, match=message):
        build()


@pytest.mark.parametrize(
    "last_facet",
    [[1, 2, -1], [0, 2, 3.7], [True, 2, 3], ["1", 2, 3]],
    ids=["negative", "fractional", "bool", "string"],
)
def test_document_facet_indices_must_be_vertex_indices(last_facet):
    doc = shapes.tetrahedron().serialize()
    doc["facets"][-1] = last_facet
    with pytest.raises(BadDocument, match="facet 3"):
        Polytope.from_document(doc)


def test_construction_errors():
    sq = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

    def square_doc(facets):
        return {"dim": 2, "vertices": sq, "facets": facets}

    with pytest.raises(NotFullDimensional):
        Polytope.from_vertices([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(NotFullDimensional, match="1 vertices span 0 dimensions"):
        Polytope([[0.0, 0.0]])
    with pytest.raises(DimensionTooHigh):
        Polytope(np.eye(5))
    with pytest.raises(TypeError):
        Polytope(sq, "square")  # the name is keyword-only
    with pytest.raises(InvalidPolytope):
        Polytope.from_document(square_doc([]))
    with pytest.raises(InvalidPolytope):
        Polytope.from_document(square_doc([[0], [1, 2], [2, 3], [0, 3]]))
    poly = Polytope.from_document(square_doc([[0, 1], [1, 2], [2, 3], [0, 3]]))
    assert _surface_area(poly) == pytest.approx(4.0, abs=1e-12)


def test_nonconvex_and_orphan_vertices():
    square = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    facets = [[0, 1], [1, 2], [2, 3], [0, 3]]
    # with (3, 1) the five points bound a pentagon, so the square's four
    # facets leave its surface open
    with pytest.raises(InvalidPolytope, match="close up"):
        Polytope.from_document({"dim": 2, "vertices": square + [[3.0, 1.0]], "facets": facets})
    assert len(Polytope.from_vertices(square + [[3.0, 1.0]]).facets) == 5
    with pytest.raises(InvalidPolytope):
        # a strictly interior point is on no facet at all
        Polytope.from_document({"dim": 2, "vertices": square + [[1.0, 1.0]], "facets": facets})


@pytest.mark.parametrize(
    "shape, edit",
    [
        ("octahedron", lambda facets: facets[1:]),  # one facet removed
        ("octahedron", lambda facets: facets + facets[:1]),  # one listed twice
        ("cube", lambda facets: facets + [facets[0][:3]]),  # a piece of a facet
    ],
    ids=["missing", "duplicate", "partial"],
)
def test_facet_list_must_close_up(shape, edit):
    doc = getattr(shapes, shape)().serialize()
    doc["facets"] = edit(doc["facets"])
    with pytest.raises(InvalidPolytope, match="close up"):
        Polytope.from_document(doc)


def test_dedupe_merges_repeated_vertices():
    poly = Polytope.from_vertices(
        [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0.0, 1.0]]
    )
    assert len(poly.vertices) == 4


def test_fit_plane_and_measures():
    assert polytope_measure(np.array([[0.0, 0], [2, 0], [0, 2]])) == pytest.approx(
        2.0, abs=1e-12
    )
    tri3d = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
    assert polytope_measure(tri3d) == pytest.approx(0.5, abs=1e-12)
    # one point, or one point repeated, spans rank 0 and measures 0
    assert polytope_measure(tri3d[:1]) == 0.0
    assert polytope_measure(np.repeat(tri3d[:1], 4, axis=0)) == 0.0


def _order_polygon(points):
    """The per-facet ring order ``_ring_edges`` computes for all facets at
    once: indices of convex-polygon vertices in cyclic order around the
    centroid, one SVD and one sort per call."""
    origin, basis, rank = affine_span(points)
    if rank != 2:
        raise DegenerateFacet("polygon vertices do not span a plane")
    flat = (np.asarray(points, dtype=float) - origin) @ basis.T
    angles = np.arctan2(flat[:, 1], flat[:, 0])
    return np.argsort(angles, kind="stable")


def test_order_polygon_walks_cyclically():
    rng = np.random.default_rng(3)
    for _ in range(20):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 7))
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        perm = rng.permutation(7)
        order = _order_polygon(pts[perm])
        walked = perm[order]
        start = int(np.argmin(walked))
        rolled = np.roll(walked, -start)
        if rolled[1] > rolled[-1]:
            rolled = np.roll(rolled[::-1], 1)
        assert rolled.tolist() == list(range(7))
    with pytest.raises(DegenerateFacet, match="do not span a plane"):
        _ring_edges(np.array([[0.0, 0, 0], [1, 1, 0], [2, 2, 0], [3, 3, 0]]), [(0, 1, 2, 3)])


def test_incident_facets_of_cube_vertex():
    cube = shapes.cube()
    for v in range(8):
        assert sum(v in f for f in cube.facets) == 3


def test_vertex_on_facet_consistency():
    poly = shapes.octahedron()
    for fi, f in enumerate(poly.facets):
        side = poly.vertices @ poly.facet_normals[fi] - poly.facet_offsets[fi]
        on = set(np.flatnonzero(np.abs(side) <= TOL))
        assert on == set(f)
        # row fi of the incidence holds the facet's vertices, ascending
        assert poly.incidence[fi].indices.tolist() == list(f)


def test_ring_edges_walk_each_facet_once_in_polygon_order():
    a = 2 * np.pi * np.arange(60) / 60
    ring = np.c_[np.cos(a), np.sin(a)]
    prism = Polytope.from_vertices(np.r_[np.c_[ring, np.zeros(60)], np.c_[ring, np.ones(60)]])
    sizes = np.linspace(8, 500, 50).astype(int)
    hulls = [_unit_sphere_hull(m, 3, seed) for seed, m in enumerate(sizes)]
    # the prisms and the pyramid mix facet sizes, so several stacked passes
    # fill one ring
    for poly in [b() for b in _BUILTINS if b().dim == 3] + hulls + [prism]:
        sizes = [len(f) for f in poly.facets]
        assert poly.ring_edges.shape == (sum(sizes), 2)
        for f, edges in zip(poly.facets, np.split(poly.ring_edges, np.cumsum(sizes)[:-1])):
            # facet f's slots hold exactly its vertices, in the per-facet order
            order = np.array(f)[_order_polygon(poly.vertices[list(f)])]
            assert edges[:, 0].tolist() == order.tolist()
            # one cycle: each vertex starts one edge and ends one
            after = dict(edges.tolist())
            assert sorted(after) == sorted(after.values()) == list(f)
            walked = [f[0]]
            for _ in f[1:]:
                walked.append(after[walked[-1]])
            assert sorted(walked) == list(f) and after[walked[-1]] == f[0]
    for poly in (shapes.square(), shapes.triangle(), shapes.hypercube(), shapes.simplex4()):
        assert poly.ring_edges is None


def test_ring_edges_reject_an_edge_on_three_facets():
    # the hull has 9 facets, but their rings put edge (0, 8) on three
    assert len(enumerate_facets(np.array(OFF_EDGE_CUBE))[0]) == 9
    message = r"ring edge \(0, 8\) lies on 3 facets, expected 2"
    with pytest.raises(InvalidPolytope, match=message):
        Polytope(np.array(OFF_EDGE_CUBE))
    with pytest.raises(InvalidPolytope, match=message):
        Polytope.from_vertices(OFF_EDGE_CUBE)
    with pytest.raises(InvalidPolytope, match=message):
        Polytope.loads(json.dumps({"dim": 3, "vertices": OFF_EDGE_CUBE}))


def test_near_degenerate_cubes_build_closed_meshes_or_are_rejected():
    # the unit cube plus 1-3 points on its edges or faces, each moved
    # 10^U(-11, -7) in a random direction: some build, and some hulls are
    # rejected at construction because a ring edge is off two facets
    cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    rng = np.random.default_rng(0)
    built = rejected = 0
    for _ in range(400):
        extra = []
        for _ in range(rng.integers(1, 4)):
            # two coordinates in {0, 1} put the point on an edge, one on a face
            p = rng.random(3)
            fixed = rng.choice(3, 2 if rng.random() < 0.5 else 1, replace=False)
            p[fixed] = rng.integers(0, 2, len(fixed))
            extra.append(p)
        for p in extra:
            d = rng.normal(size=3)
            p += 10 ** rng.uniform(-11, -7) * d / np.linalg.norm(d)
        try:
            poly = Polytope(np.vstack([cube, *extra]))
        except ValidationError as exc:
            rejected += bool(re.match(r"ring edge \(\d+, \d+\) lies on \d+ facets, expected 2",
                                      str(exc)))
            continue
        built += 1
        mesh = subdivide(poly, 0)
        counts = np.bincount(mesh.tri_edges.ravel(), minlength=len(mesh.edge_lengths))
        assert (counts == 2).all()
    # 46 build here, and the rings reject 5 more
    assert built > 40 and rejected >= 3


_BUILTINS = (
    shapes.cube, shapes.hypercube, shapes.tetrahedron, shapes.octahedron,
    shapes.square_pyramid, shapes.triangular_prism, shapes.square,
    shapes.triangle, shapes.simplex4,
)


def _bits(polys) -> str:
    h = hashlib.sha256()
    for poly in polys:
        h.update(repr(poly.facets).encode())
        for array in (poly.facet_normals, poly.facet_offsets, poly.vertices):
            h.update(array.tobytes())
    return h.hexdigest()


def _unit_sphere_hull(m, d, seed):
    x = np.random.default_rng(seed).normal(size=(m, d))
    return Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])


def _without_facets(doc):
    return {k: v for k, v in doc.items() if k != "facets"}


def _facets_reversed(doc):
    return dict(doc, facets=[f[::-1] for f in doc["facets"][::-1]])


#: Re-recorded when facets took Qhull's planes in place of refitted ones:
#: facets and vertices unchanged, normals moved by at most 3.3e-16 here and
#: by 3.9e-15 on the sphere hulls below.
_BUILTIN_BITS = "97140feddb6aa92d6bda4f3aa2d22859f618972dacb6c988355de65d5cb6369f"


@pytest.mark.parametrize(
    "document",
    [None, lambda doc: doc, _without_facets, _facets_reversed],
    ids=["shapes", "document", "document-no-facets", "document-reversed"],
)
def test_builtin_polytopes_are_pinned_bit_for_bit(document):
    """Facets, planes and vertices of the nine builtin shapes, built directly
    or read back from their documents in three forms."""
    polys = [make() for make in _BUILTINS]
    if document is not None:
        polys = [Polytope.from_document(document(p.serialize())) for p in polys]
    assert _bits(polys) == _BUILTIN_BITS


def test_sphere_hulls_are_pinned_bit_for_bit():
    hulls = [_unit_sphere_hull(40, 3, seed=7), _unit_sphere_hull(24, 4, seed=11)]
    assert [len(h.facets) for h in hulls] == [76, 105]
    assert _bits(hulls) == "0ff2994d1740eb92e0565269c1e7633269852d5d0bb8c758d48f808b17fe6be0"


def test_sphere_hull_memory_does_not_grow_with_points_times_facets():
    x = np.random.default_rng(0).normal(size=(2000, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    Polytope.from_vertices(x[:100])  # first-call set-up, untraced
    tracemalloc.start()
    try:
        poly = Polytope.from_vertices(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly.facets) == 3996
    # blocks of planes peak at 9.4 MiB here; the dense 2000 x 3996 residual
    # matrices of the whole hull took 130 MiB
    assert peak < 12 * 2**20


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
_SQUARE2 = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
_SQUARE_FACETS = [[0, 1], [1, 2], [2, 3], [0, 3]]


def _edited(shape, edit):
    doc = getattr(shapes, shape)().serialize()
    return dict(doc, facets=edit(doc["facets"]))


# every way a polytope is rejected in the tests above, plus interior points
# of random clouds, which fail the incidence check
_REJECTED = {
    "collinear": lambda: Polytope.from_vertices([[0, 0], [1, 0], [2, 0]]),
    "5-d": lambda: Polytope(np.eye(5)),
    "no-facets": lambda: Polytope.from_document({"dim": 2, "vertices": _SQUARE, "facets": []}),
    "short-facet": lambda: Polytope.from_document(
        {"dim": 2, "vertices": _SQUARE, "facets": [[0], [1, 2], [2, 3], [0, 3]]}
    ),
    "pentagon": lambda: Polytope.from_document(
        {"dim": 2, "vertices": _SQUARE2 + [[3.0, 1.0]], "facets": _SQUARE_FACETS}
    ),
    "interior": lambda: Polytope.from_document(
        {"dim": 2, "vertices": _SQUARE2 + [[1.0, 1.0]], "facets": _SQUARE_FACETS}
    ),
    "missing": lambda: Polytope.from_document(_edited("octahedron", lambda f: f[1:])),
    "duplicate": lambda: Polytope.from_document(
        _edited("octahedron", lambda f: f + f[:1])
    ),
    "partial": lambda: Polytope.from_document(
        _edited("cube", lambda f: f + [f[0][:3]])
    ),
    "overlap": lambda: Polytope.from_vertices(_rounded_hypercube(1, 9)),
    **{
        f"cloud-{d}d": (
            lambda d=d: Polytope.from_vertices(np.random.default_rng(d).normal(size=(40, d)))
        )
        for d in (2, 3, 4)
    },
}


def _outcomes():
    """Facets and plane bits of seeded random hulls and the class and
    message of every rejection in ``_REJECTED``."""
    facets = []
    for seed, (m, d) in enumerate([(50, 2), (80, 3), (60, 4)]):
        found, normals, offsets = enumerate_facets(np.random.default_rng(seed).normal(size=(m, d)))
        facets.append((found, normals.tobytes(), offsets.tobytes()))
    hulls = [_unit_sphere_hull(40, 3, seed=7), _unit_sphere_hull(24, 4, seed=11)]
    failures = {}
    for name, build in _REJECTED.items():
        with pytest.raises(ValidationError) as err:
            build()
        failures[name] = (type(err.value), str(err.value))
    return facets, _bits(hulls), failures


@pytest.mark.parametrize("block", [1, 7])
def test_plane_blocks_change_no_facet_and_no_rejection(monkeypatch, block):
    monkeypatch.setattr(polytope, "_PLANE_BLOCK", 10**6)
    dense = _outcomes()
    assert [len(f[0]) for f in dense[0]] == [8, 30, 145]
    monkeypatch.setattr(polytope, "_PLANE_BLOCK", block)
    assert _outcomes() == dense
