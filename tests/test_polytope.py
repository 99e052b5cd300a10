import json
import math

import numpy as np
import pytest

from polyperim import shapes
from polyperim.errors import (
    BadDocument,
    DegenerateFacet,
    DimensionTooHigh,
    InvalidPolytope,
    NonConvex,
    NotFullDimensional,
)
from polyperim.polytope import (
    TOL,
    Polytope,
    enumerate_facets,
    fit_plane,
    load_polytope,
    order_polygon,
    polytope_measure,
)


def _surface_area(poly):
    return sum(poly.facet_measure(fi) for fi in range(len(poly.facets)))


def test_cube_facets_and_areas():
    cube = shapes.cube()
    assert len(cube.facets) == 6
    for fi in range(6):
        assert cube.facet_measure(fi) == pytest.approx(1.0, abs=1e-12)
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


def test_facet_enumeration_matches_known_counts():
    for poly, count in [
        (shapes.cube(), 6),
        (shapes.tetrahedron(), 4),
        (shapes.octahedron(), 8),
        (shapes.square_pyramid(), 5),
        (shapes.triangular_prism(), 5),
    ]:
        found = enumerate_facets(poly.vertices)
        assert len(found) == count
        assert sorted(tuple(sorted(f)) for f in found) == sorted(poly.facets)


def test_outward_normals():
    cube = shapes.cube()
    for fi in range(len(cube.facets)):
        n, b = cube.facet_normals[fi], cube.facet_offsets[fi]
        assert n @ cube.centroid < b
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_serialization_roundtrip(tmp_path):
    for poly in (shapes.cube(), shapes.square_pyramid(), shapes.square()):
        doc = poly.serialize()
        back = Polytope.from_document(doc)
        assert np.allclose(back.vertices, poly.vertices)
        assert back.facets == poly.facets
        path = tmp_path / "p.json"
        path.write_text(poly.dumps(), encoding="utf-8")
        again = load_polytope(str(path))
        assert np.allclose(again.vertices, poly.vertices)


def test_load_polytope_from_dict_and_string():
    doc = shapes.tetrahedron().serialize()
    a = load_polytope(doc)
    b = load_polytope(json.dumps(doc))
    assert np.allclose(a.vertices, b.vertices)


def test_document_validation_errors():
    with pytest.raises(BadDocument):
        Polytope.from_document({"vertices": [[0, 0], [1, 0], [0, 1]]})
    with pytest.raises(BadDocument):
        Polytope.from_document({"dim": "2", "vertices": [[0, 0]]})
    with pytest.raises(BadDocument):
        Polytope.from_document({"dim": 2, "vertices": [[0, 0, 0]]})
    with pytest.raises(BadDocument):
        Polytope.from_document(
            {"dim": 2, "vertices": [[0, 0], [1, math.inf], [0, 1]]}
        )
    with pytest.raises(BadDocument):
        Polytope.loads("not json")


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
    sq_facets = ((0, 1), (1, 2), (2, 3), (0, 3))
    with pytest.raises(NotFullDimensional):
        Polytope.from_vertices([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(DimensionTooHigh):
        Polytope(np.eye(5), facets=((0, 1, 2, 3, 4),))
    with pytest.raises(InvalidPolytope):
        Polytope(np.array(sq), facets=())
    with pytest.raises(DegenerateFacet):
        Polytope(np.array(sq), facets=((0,), (1, 2), (2, 3), (0, 3)))
    assert _surface_area(Polytope(np.array(sq), facets=sq_facets)) == pytest.approx(
        4.0, abs=1e-12
    )


def test_nonconvex_and_orphan_vertices():
    square = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    facets = ((0, 1), (1, 2), (2, 3), (0, 3))
    with pytest.raises(NonConvex):
        Polytope(np.array(square + [[3.0, 1.0]]), facets=facets)
    with pytest.raises(InvalidPolytope):
        # a strictly interior point is on no facet at all
        Polytope(np.array(square + [[1.0, 1.0]]), facets=facets)


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
    normal, offset = fit_plane(np.array([[1.0, 0, 0], [1, 1, 0], [1, 0, 1]]))
    assert abs(normal @ [1, 0, 0]) == pytest.approx(abs(offset), abs=1e-12)
    assert polytope_measure(np.array([[0.0, 0], [2, 0], [0, 2]])) == pytest.approx(
        2.0, abs=1e-12
    )
    tri3d = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
    assert polytope_measure(tri3d) == pytest.approx(0.5, abs=1e-12)


def test_order_polygon_walks_cyclically():
    rng = np.random.default_rng(3)
    for _ in range(20):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 7))
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        perm = rng.permutation(7)
        order = order_polygon(pts[perm])
        walked = perm[order]
        start = int(np.argmin(walked))
        rolled = np.roll(walked, -start)
        if rolled[1] > rolled[-1]:
            rolled = np.roll(rolled[::-1], 1)
        assert rolled.tolist() == list(range(7))


def test_scaled_polytope():
    big = shapes.cube().scaled(3.0)
    assert _surface_area(big) == pytest.approx(54.0, abs=1e-9)
    assert np.allclose(big.vertices, shapes.cube().vertices * 3.0)


def test_incident_facets_of_cube_vertex():
    cube = shapes.cube()
    for v in range(8):
        assert len(cube.incident_facets(v)) == 3


def test_vertex_on_facet_consistency():
    poly = shapes.octahedron()
    for fi, f in enumerate(poly.facets):
        side = poly.vertices @ poly.facet_normals[fi] - poly.facet_offsets[fi]
        on = set(np.flatnonzero(np.abs(side) <= TOL))
        assert on == set(f)
