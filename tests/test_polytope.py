import hashlib
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
    NotFullDimensional,
)
from polyperim.polytope import (
    TOL,
    Polytope,
    enumerate_facets,
    fit_plane,
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

    def square_doc(facets):
        return {"dim": 2, "vertices": sq, "facets": facets}

    with pytest.raises(NotFullDimensional):
        Polytope.from_vertices([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(DimensionTooHigh):
        Polytope(np.eye(5))
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
    normal, offset = fit_plane(np.array([[1.0, 0, 0], [1, 1, 0], [1, 0, 1]]))
    assert abs(normal @ [1, 0, 0]) == pytest.approx(abs(offset), abs=1e-12)
    with pytest.raises(DegenerateFacet):
        fit_plane(np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]]))
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


_BUILTIN_BITS = "581387cabd41b60d4934d627b686ca34ef1562d215f007e74f61f497630c2e3d"


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
    assert _bits(hulls) == "a4eaedb8ee266805cd2ab7ea4b734ef80c2f6695664782cbe8f7dcd73665f9d4"
