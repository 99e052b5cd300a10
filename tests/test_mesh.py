import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyperim import shapes
from polyperim.errors import UnsupportedDimension, ValidationError
from polyperim.mesh import SurfaceMesh, _edge_table, subdivide
from polyperim.polytope import Polytope, polytope_measure
from polyperim.smoothing import convexity_probe, smoothed_body
from polyperim.solver import vertex_ball_region

from conftest import facet_rings, half_edge_pairs


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_cube_triangle_counts_and_equal_areas(level):
    mesh = subdivide(shapes.cube(), level)
    assert mesh.triangle_count == 24 * 4**level
    assert mesh.total_area() == pytest.approx(6.0, abs=1e-12)
    # fan triangulation of unit squares makes every triangle the same size
    assert np.allclose(mesh.areas, 6.0 / mesh.triangle_count, atol=1e-14)


def test_tetrahedron_counts():
    mesh = subdivide(shapes.tetrahedron(), 2)
    assert mesh.triangle_count == 12 * 16
    assert mesh.total_area() == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_mesh_is_closed_and_neighbors_consistent():
    mesh = subdivide(shapes.octahedron(), 1)
    assert mesh.is_closed()
    nbrs = mesh.tri_twins // 3
    for ti in range(mesh.triangle_count):
        for nb in nbrs[ti]:
            assert ti in nbrs[nb]


def test_edge_counts_satisfy_euler_formula():
    mesh = subdivide(shapes.cube(), 1)
    V = len(mesh.positions)
    E = len(_edge_table(mesh.triangles, V)[0])
    F = mesh.triangle_count
    assert V - E + F == 2


def test_leading_positions_are_polytope_vertices():
    poly = shapes.square_pyramid()
    mesh = subdivide(poly, 2)
    assert np.allclose(mesh.positions[: len(poly.vertices)], poly.vertices)


def test_facet_of_partitions_area():
    poly = shapes.triangular_prism()
    mesh = subdivide(poly, 1)
    for fi, f in enumerate(poly.facets):
        piece = mesh.areas[mesh.facet_of == fi].sum()
        assert piece == pytest.approx(polytope_measure(poly.vertices[list(f)]), abs=1e-12)


def test_max_edge_length_halves_per_level():
    a = subdivide(shapes.cube(), 1).max_edge_length()
    b = subdivide(shapes.cube(), 2).max_edge_length()
    assert b == pytest.approx(a / 2, abs=1e-12)


def test_subdivide_rejects_wrong_dimension_and_level():
    with pytest.raises(UnsupportedDimension):
        subdivide(shapes.square(), 1)
    with pytest.raises(ValidationError):
        subdivide(shapes.cube(), -1)
    with pytest.raises(ValidationError):
        subdivide(shapes.cube(), 9)


# Recorded from ``subdivide`` once each midpoint took the id ``P + e`` of
# its edge and edges kept the ids refinement gives them;
# ``test_subdivide_matches_a_loop_reference`` checks that numbering
# independently.  Solver masks depend on the triangle numbering.
NUMBERING_DIGESTS = {
    "cube": ("dc91a2cf2ab6a037", "d87c1cd7af1ecbdc", "74c4ed1a4b123708", "bf03ea6ae8ca5e8d"),
    "tetrahedron": ("c5ee81e976ee155f", "8edc5f486da893b9", "e7d469e444a602b9", "f26e95218c218b11"),
    "square_pyramid": ("960f0a2649212090", "864eaa0547ce883c", "89e0aa544791848f", "ad68689af716f0bc"),
}


def _derived(mesh, name):
    """A mesh array by name; ``edges``, ``edge_triangles``, ``tri_neighbors``
    and ``centroids``, which a mesh does not keep, are derived from the kept
    ones and the half-edge twins."""
    if name == "edges":
        return _edge_table(mesh.triangles, len(mesh.positions))[0]
    if name == "edge_triangles":
        T = mesh.triangle_count
        first, last = half_edge_pairs(mesh.tri_edges.T.ravel())
        return np.stack([first % T, last % T], axis=1)
    if name == "tri_neighbors":
        return mesh.tri_twins // 3
    if name == "centroids":
        return mesh.triangle_centroids(np.arange(mesh.triangle_count))
    return getattr(mesh, name)


def _numbering_digest(mesh):
    h = hashlib.sha256()
    for name, dtype in (
        ("positions", "<f8"),
        ("triangles", "<i8"),
        ("edges", "<i8"),
        ("tri_neighbors", "<i8"),
    ):
        h.update(np.ascontiguousarray(_derived(mesh, name), dtype=dtype).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(NUMBERING_DIGESTS))
def test_mesh_numbering_is_pinned(name):
    poly = getattr(shapes, name)()
    for level, expected in enumerate(NUMBERING_DIGESTS[name]):
        assert _numbering_digest(subdivide(poly, level)) == expected, level


MESH_ARRAYS = (
    "positions", "triangles", "facet_of", "edges", "edge_lengths",
    "edge_triangles", "tri_edges", "tri_neighbors", "areas", "centroids",
)
KEPT_ARRAYS = (
    "positions", "triangles", "facet_of", "edge_lengths", "tri_edges", "areas",
)

# Every mesh array at levels 4 and 5, recorded with NUMBERING_DIGESTS.
MESH_DIGESTS = {
    "cube": ("f4e4843230a88971", "524ce5320050a787"),
    "octahedron": ("356b35ae772ee945", "1acb916bb286d95c"),
    "square_pyramid": ("67eb02e3cfa10db0", "5d41b5df597f5f6a"),
    "tetrahedron": ("8b6693a97b07b194", "98a043cc8afa20bc"),
    "triangular_prism": ("4eb08a681475fec5", "bc5062b69d926a8d"),
}
CUBE_LEVEL7_DIGEST = "c1a6589c1c8db29d"


def _mesh_digest(mesh):
    h = hashlib.sha256()
    for name in MESH_ARRAYS:
        array = _derived(mesh, name)
        dtype = "<f8" if array.dtype.kind == "f" else "<i8"
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(MESH_DIGESTS))
def test_every_mesh_array_is_pinned(name):
    poly = getattr(shapes, name)()
    for level, expected in zip((4, 5), MESH_DIGESTS[name]):
        assert _mesh_digest(subdivide(poly, level)) == expected, level


def test_level7_cube_arrays_are_pinned():
    assert _mesh_digest(subdivide(shapes.cube(), 7)) == CUBE_LEVEL7_DIGEST


@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(4, 60), seed=st.integers(0, 2**32 - 1), level=st.integers(0, 3))
def test_subdivide_tables_equal_the_constructors(m, seed, level):
    # the carried O(T) edge table against one np.unique of the final
    # triangles, whatever order either numbers the edges in
    x = np.random.default_rng(seed).normal(size=(m, 3))
    poly = Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])
    mesh = subdivide(poly, level)
    ends, _ = _edge_table(mesh.triangles, len(mesh.positions))
    p = mesh.positions
    lengths = np.linalg.norm(p[ends[:, 0]] - p[ends[:, 1]], axis=1)
    # each triangle side names the sorted pair of its corners
    t = mesh.triangles
    sides = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2).reshape(-1, 2)
    pairs = np.empty((len(mesh.edge_lengths), 2), dtype=np.int32)
    pairs[mesh.tri_edges.ravel()] = sides
    assert np.array_equal(pairs[mesh.tri_edges.ravel()], sides)
    order = np.lexsort(pairs.T[::-1])
    assert np.array_equal(pairs[order], ends)
    assert mesh.tri_edges.dtype == np.int32 and mesh.edge_lengths.dtype == lengths.dtype
    # lengths and areas are carried down from the fan, so they differ from
    # the values measured on the rounded final positions in the last bits
    np.testing.assert_allclose(mesh.edge_lengths[order], lengths, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mesh.areas, _measured_areas(mesh), rtol=1e-12, atol=0)
    for name in KEPT_ARRAYS:
        assert not getattr(mesh, name).flags.writeable, name


def _measured_areas(mesh):
    a, b, c = (mesh.positions[mesh.triangles[:, k]] for k in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(4, 60), seed=st.integers(0, 2**32 - 1), level=st.integers(0, 3))
def test_refinement_halves_lengths_and_quarters_areas_exactly(m, seed, level):
    # each child is a half-scale copy of a quarter of its parent, and
    # scaling by 0.5 or 0.25 is exact for normal floats
    poly = _sphere_hull(m, seed)
    parent, child = subdivide(poly, level), subdivide(poly, level + 1)
    assert child.areas.tobytes() == np.repeat(0.25 * parent.areas, 4).tobytes()
    E = len(parent.edge_lengths)
    halves, inner = child.edge_lengths[: 2 * E], child.edge_lengths[2 * E:]
    assert halves.tobytes() == np.repeat(0.5 * parent.edge_lengths, 2).tobytes()
    # the interior edges (ab, bc), (bc, ca), (ca, ab) are parallel to ca, ab, bc
    parallel = parent.edge_lengths[parent.tri_edges[:, [2, 0, 1]]]
    assert inner.tobytes() == (0.5 * parallel).tobytes()
    # closure, which the facet rings decide, against the final half-edges:
    # each edge's two half-edges lie on two triangles
    edge_of = child.tri_edges.ravel()
    first, last = half_edge_pairs(edge_of)
    assert child.is_closed() is True
    assert (edge_of[first] == edge_of[last]).all() and (first // 3 != last // 3).all()
    assert (np.bincount(edge_of, minlength=len(child.edge_lengths)) == 2).all()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(4, 60), seed=st.integers(0, 2**32 - 1), level=st.integers(0, 2))
def test_facet_of_ascends_and_gives_each_vertex_star(m, seed, level):
    # vertex_star takes each incident facet's triangles as one run of facet_of
    x = np.random.default_rng(seed).normal(size=(m, 3))
    poly = Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])
    mesh = subdivide(poly, level)
    assert (np.diff(mesh.facet_of) >= 0).all()
    for vertex in range(len(poly.vertices)):
        incident = [f for f, facet in enumerate(poly.facets) if vertex in facet]
        tris = np.flatnonzero(np.isin(mesh.facet_of, incident))
        assert sorted(mesh.vertex_star(vertex).triangles.tolist()) == tris.tolist()


def _reference_mesh(poly, level):
    """``subdivide``'s arrays built by plain loops over tuples: fan each
    facet, number the fan's edges by their sorted ends, then in each round
    give edge ``e``'s midpoint the id ``P + e``, split it into edges ``2e``
    and ``2e + 1`` and give triangle ``t`` the interior edges
    ``2E + 3t + j``."""
    rings = facet_rings(poly)
    positions = list(poly.vertices) + [poly.vertices[ring].mean(axis=0) for ring in rings]
    triangles, facet_of = [], []
    for f, ring in enumerate(rings):
        for i, v in enumerate(ring):
            triangles.append((len(poly.vertices) + f, int(v), int(ring[(i + 1) % len(ring)])))
            facet_of.append(f)

    def sides(tri):
        a, b, c = tri
        return [tuple(sorted(pair)) for pair in ((a, b), (b, c), (c, a))]

    edges = sorted({pair for tri in triangles for pair in sides(tri)})
    for _ in range(level):
        P, index = len(positions), {pair: e for e, pair in enumerate(edges)}
        positions += [0.5 * (positions[lo] + positions[hi]) for lo, hi in edges]
        halves, inner, children = [], [], []
        for e, (lo, hi) in enumerate(edges):
            halves += [(lo, P + e), (hi, P + e)]
        for tri in triangles:
            a, b, c = tri
            ab, bc, ca = (P + index[pair] for pair in sides(tri))
            children += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            inner += sides((ab, bc, ca))
        edges, triangles = halves + inner, children
        facet_of = [f for f in facet_of for _ in range(4)]
    index = {pair: e for e, pair in enumerate(edges)}
    assert len(index) == len(edges)
    positions = np.array(positions)
    lengths = np.linalg.norm(
        positions[[lo for lo, _ in edges]] - positions[[hi for _, hi in edges]], axis=1
    )
    a, b, c = (positions[[tri[k] for tri in triangles]] for k in range(3))
    return {
        "positions": positions,
        "triangles": np.array(triangles, dtype=np.int32),
        "facet_of": np.array(facet_of, dtype=np.int32),
        "tri_edges": np.array([[index[s] for s in sides(t)] for t in triangles], dtype=np.int32),
        "edge_lengths": lengths,
        "areas": 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1),
    }


def _sphere_hull(m, seed):
    x = np.random.default_rng(seed).normal(size=(m, 3))
    return Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])


@pytest.mark.parametrize(
    "make",
    [pytest.param(getattr(shapes, name), id=name) for name in sorted(MESH_DIGESTS)]
    + [pytest.param(lambda m=m, seed=seed: _sphere_hull(m, seed), id=f"sphere-{m}-{seed}")
       for m, seed in ((8, 0), (20, 1), (45, 2))],
)
def test_subdivide_matches_a_loop_reference(make):
    poly = make()
    for level in range(4):
        mesh = subdivide(poly, level)
        for name, expected in _reference_mesh(poly, level).items():
            array = getattr(mesh, name)
            assert array.dtype == expected.dtype, (level, name)
            assert array.shape == expected.shape, (level, name)
            if name in ("edge_lengths", "areas") and make is not shapes.cube:
                # measured once on the fan and carried down, where the
                # reference measures the rounded final positions; the
                # cube's positions are dyadic, so its values agree bitwise
                np.testing.assert_allclose(array, expected, rtol=1e-12, atol=0)
            else:
                assert array.tobytes() == expected.tobytes(), (level, name)


def test_mesh_arrays_are_read_only_and_inputs_stay_writable():
    tet = shapes.tetrahedron()
    mesh = subdivide(tet, 0)
    star = mesh.vertex_star(0)
    frozen = [getattr(mesh, name) for name in KEPT_ARRAYS + ("tri_twins",)]
    for array in frozen + [star.triangles, star.distances, star.prefix_area]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert tet.vertices.flags.writeable
    tet.vertices[0] = 7.0
    assert np.array_equal(mesh.positions[0], shapes.tetrahedron().vertices[0])


def test_subdivide_is_the_only_builder():
    tet = shapes.tetrahedron()
    with pytest.raises(TypeError, match="use subdivide"):
        SurfaceMesh(tet.vertices, [list(f) for f in tet.facets], [0, 1, 2, 3], 0, tet)
    with pytest.raises(TypeError, match="use subdivide"):
        SurfaceMesh()


def test_vertex_star_rejects_a_vertex_outside_the_polytope():
    mesh = subdivide(shapes.tetrahedron(), 1)
    for vertex in (-1, 4):
        message = f"vertex must be at least 0 and at most 3, got {vertex}"
        with pytest.raises(ValidationError, match=message):
            mesh.vertex_star(vertex)
    assert mesh._stars == {}


def test_meshes_beyond_int32_half_edge_ids_are_rejected_before_building():
    # 3996 facets fan into 11988 triangles, 786 million at level 8
    x = np.random.default_rng(0).normal(size=(2000, 3))
    poly = Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="a mesh of 785645568 triangles"):
            subdivide(poly, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


INDEX_ARRAYS = ("triangles", "facet_of", "tri_edges", "tri_twins")


def test_level6_cube_memory_and_index_dtypes():
    cube = shapes.cube()
    tracemalloc.start()
    try:
        mesh = subdivide(cube, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 5.6 MiB, the mesh's own size; 8.3 MiB while the last level's lengths
    # and areas were measured from positions, 9.5 MiB when the build made
    # the neighbours, 15.2 MiB when edge ends, edge triangles and centroids
    # were kept too, and 24 MiB with int64 indices and full-size float
    # temporaries
    assert peak < 9.0 * 2**20
    for name in INDEX_ARRAYS:
        assert getattr(mesh, name).dtype == np.int32, name
    assert mesh.vertex_star(0).triangles.dtype == np.int32


def test_level7_cube_build_peak():
    cube = shapes.cube()
    tracemalloc.start()
    try:
        mesh = subdivide(cube, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the build peaks at the 22.5 MiB the mesh keeps; it was 25.3 MiB when
    # the final level's lengths and areas were measured from the positions
    assert peak < 23.0 * 2**20
    assert mesh.triangle_count == 24 * 4**7


def test_a_mesh_keeps_60_bytes_per_triangle():
    mesh = subdivide(shapes.cube(), 6)
    arrays = {name for name, value in vars(mesh).items() if isinstance(value, np.ndarray)}
    assert arrays == set(KEPT_ARRAYS)
    # 60 bytes per triangle, and 48 for the two positions by which
    # P = T/2 + 2 (Euler) exceeds T/2; the half-edge twins are not kept
    # until something reads them
    T = mesh.triangle_count
    assert sum(getattr(mesh, name).nbytes for name in KEPT_ARRAYS) == 60 * T + 48
    assert "tri_twins" not in vars(mesh)


def test_tri_twins_are_derived_on_first_read_and_kept():
    mesh = subdivide(shapes.square_pyramid(), 3)
    assert "tri_twins" not in vars(mesh)
    twins = mesh.tri_twins
    assert vars(mesh)["tri_twins"] is twins and mesh.tri_twins is twins
    assert twins.dtype == np.int32 and twins.shape == mesh.triangles.shape
    with pytest.raises(ValueError, match="read-only"):
        twins[0, 0] = 0
    # the numbering digest reads the neighbours derived from the twins
    assert _numbering_digest(mesh) == NUMBERING_DIGESTS["square_pyramid"][3]


def test_a_fine_mesh_its_balls_and_a_smoothed_probe_share_a_small_peak():
    """The benchmark's geometry pass in small: a level-6 cube mesh, 16 ball
    cuts about vertex 0 and an octahedron probe at epsilon 0.2, all alive in
    one window.  The peak is 8.9 MiB; it was 12.6 MiB while the mesh built
    and kept its neighbour table, the star kept every full-size temporary
    and the mollifier kept sorted tables per facet pair."""
    tracemalloc.start()
    try:
        mesh = subdivide(shapes.cube(), 6)
        for volume in np.geomspace(0.01, 0.2, 16):
            vertex_ball_region(mesh, 0, float(volume)).cut_perimeter
        body = smoothed_body(shapes.octahedron(), 0.2, resolution=10)
        convexity_probe(body, trials=256, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "tri_twins" not in vars(mesh)
    assert peak < 9.75 * 2**20
