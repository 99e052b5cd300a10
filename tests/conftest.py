from functools import lru_cache

import numpy as np
import pytest

from polyperim import shapes
from polyperim.polytope import TOL
from polyperim.smoothing import SmoothedBody, smoothed_body


def assert_facet_planes_hold(poly):
    """Each vertex lies within ``TOL * scale`` of its own facets' planes and
    no more than that outside any facet plane."""
    limit = TOL * max(1.0, float(np.abs(poly.vertices).max()))
    side = poly.vertices @ poly.facet_normals.T - poly.facet_offsets
    assert side.max() <= limit
    for fi, f in enumerate(poly.facets):
        assert np.abs(side[list(f), fi]).max() <= limit


def facet_rings(poly):
    """Each facet's ring, in cyclic order, read off ``poly.ring_edges``."""
    sizes = [len(f) for f in poly.facets]
    return np.split(poly.ring_edges[:, 0], np.cumsum(sizes)[:-1])


def half_edge_pairs(edge_of):
    """Smaller and larger half-edge of each edge of a closed mesh, given the
    edge of every half-edge: rows 2e and 2e + 1 of their stable order."""
    first, last = np.argsort(edge_of, kind="stable").reshape(-1, 2).T
    return first, last


# the unit cube plus one vertex 2e-11 off its edge x = y = 0 and one 1.1e-9
# outside its face x = 0: its hull has 9 facets, but ring edge (0, 8) lies
# on three of them, so its rings do not close the surface and ``Polytope``
# rejects it
OFF_EDGE_CUBE = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [
    [2.1547114720948046e-11, 2.9815278652504703e-11, 0.18266865137399282],
    [-1.0876140319940513e-09, 0.81739013574259134, 0.84796942605031489],
]


SMOOTHED_SHAPES = {
    "square": shapes.square,
    "cube2": lambda: shapes.cube(side=2.0),
    "octahedron": shapes.octahedron,
}


@pytest.fixture(scope="session")
def smoothed_bodies():
    """``smoothed_body`` by shape name, epsilon and resolution (None for the
    default), each body built once per session: criterion 7 and the pinned
    radii share the default-resolution square and side-2 cube bodies."""

    @lru_cache(maxsize=None)
    def body(shape: str, epsilon: float, resolution: int | None) -> SmoothedBody:
        return smoothed_body(SMOOTHED_SHAPES[shape](), epsilon, resolution=resolution)

    return body
