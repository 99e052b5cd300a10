"""Identities checked on random convex hulls of points on the unit sphere."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from polyperim.cones import deficit_sum
from polyperim.errors import InvalidPolytope
from polyperim.mesh import subdivide
from polyperim.polytope import MERGE_TOL, Polytope


def sphere_points(m: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).normal(size=(m, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(8, 500), seed=st.integers(0, 2**32 - 1))
@example(m=500, seed=0)
def test_random_hull_identities(m, seed):
    points = sphere_points(m, seed)
    poly = Polytope.from_vertices(points)
    assert np.array_equal(poly.vertices, points)
    facet_count = len(poly.facets)

    edges = set()
    for fi in range(facet_count):
        ring = poly.facet_ring(fi).tolist()
        edges.update(frozenset(e) for e in zip(ring, ring[1:] + ring[:1]))
    assert len(poly.vertices) - len(edges) + facet_count == 2

    assert deficit_sum(poly) == pytest.approx(4.0 * math.pi, abs=1e-9)
    measures = np.array([poly.facet_measure(fi) for fi in range(facet_count)])
    assert measures.sum() == pytest.approx(ConvexHull(points).area, rel=1e-12)

    mesh = subdivide(poly, 2)
    assert mesh.is_closed()
    pieces = np.bincount(mesh.facet_of, weights=mesh.areas, minlength=facet_count)
    assert np.allclose(pieces, measures, rtol=1e-12, atol=0.0)

    # a point in the middle of a face lies on one facet only
    face_center = poly.facet_points(seed % facet_count).mean(axis=0)
    with pytest.raises(InvalidPolytope):
        Polytope.from_vertices(np.vstack([points, face_center]))

    # a near-duplicate merges into the first occurrence
    k = seed % m
    nudge = np.full(3, 0.25 * MERGE_TOL)
    merged = Polytope.from_vertices(np.insert(points, k + 1, points[k] + nudge, axis=0))
    assert np.array_equal(merged.vertices, points)
    assert merged.facets == poly.facets
