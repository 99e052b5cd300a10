"""Ready-made polytopes used throughout the tests and the CLI docs."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import checked_real
from .polytope import Polytope


def cube(side: float = 1.0) -> Polytope:
    """Axis-aligned cube centered at the origin."""
    h = checked_real(side, "side", 0.0) / 2.0
    verts = np.array(list(itertools.product((-h, h), repeat=3)))
    return Polytope(verts, name="cube")


def hypercube() -> Polytope:
    """Unit 4-cube centered at the origin; facets are its eight cubical cells."""
    verts = np.array(list(itertools.product((-0.5, 0.5), repeat=4)))
    return Polytope(verts, name="hypercube")


def tetrahedron() -> Polytope:
    """Regular tetrahedron of edge 1 centered at the origin."""
    raw = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    verts = raw * (1.0 / (2.0 * np.sqrt(2.0)))
    return Polytope(verts, name="tetrahedron")


def octahedron() -> Polytope:
    """Regular octahedron of circumradius 1 centered at the origin."""
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return Polytope(verts, name="octahedron")


def square_pyramid() -> Polytope:
    """Square pyramid of height 5 over the square [-1/2, 1/2]^2 in the z=0
    plane; the apex, on the z axis, is vertex 4."""
    verts = [[-0.5, -0.5, 0], [0.5, -0.5, 0], [0.5, 0.5, 0], [-0.5, 0.5, 0], [0, 0, 5]]
    return Polytope(verts, name="square-pyramid")


def triangular_prism() -> Polytope:
    """Prism of height 1 over the equilateral triangle of side 1."""
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    verts = np.vstack(
        [np.column_stack([tri, np.zeros(3)]), np.column_stack([tri, np.ones(3)])]
    )
    return Polytope(verts, name="triangular-prism")


def square() -> Polytope:
    """Square [-1, 1]^2 as a 2-polytope (facets are its edges)."""
    return Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]], name="square")


def triangle() -> Polytope:
    """Right triangle with legs 1 along the axes, right angle at the origin."""
    return Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], name="triangle")


def simplex4() -> Polytope:
    """Regular 4-simplex of edge 1; facets are five regular tetrahedra."""
    # Vertices of a regular simplex: orthonormal-frame construction.
    raw = np.vstack([np.eye(4), np.full(4, (1.0 - np.sqrt(5.0)) / 4.0)])
    raw -= raw.mean(axis=0)
    raw *= 1.0 / np.linalg.norm(raw[0] - raw[1])
    return Polytope(raw, name="simplex4")
