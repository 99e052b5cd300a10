"""Ready-made polytopes used throughout the tests and the CLI docs."""

from __future__ import annotations

import itertools

import numpy as np

from .polytope import Polytope


def cube(side: float = 1.0) -> Polytope:
    """Axis-aligned cube centered at the origin."""
    h = side / 2.0
    verts = np.array(list(itertools.product((-h, h), repeat=3)))
    return Polytope(verts, name="cube")


def hypercube(side: float = 1.0) -> Polytope:
    """4-cube centered at the origin; facets are its eight cubical cells."""
    h = side / 2.0
    verts = np.array(list(itertools.product((-h, h), repeat=4)))
    return Polytope(verts, name="hypercube")


def tetrahedron(edge: float = 1.0) -> Polytope:
    """Regular tetrahedron with the given edge length."""
    raw = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    verts = raw * (edge / (2.0 * np.sqrt(2.0)))
    return Polytope(verts, name="tetrahedron")


def octahedron(circumradius: float = 1.0) -> Polytope:
    r = circumradius
    verts = np.array(
        [[r, 0, 0], [-r, 0, 0], [0, r, 0], [0, -r, 0], [0, 0, r], [0, 0, -r]]
    )
    return Polytope(verts, name="octahedron")


def square_pyramid(height: float = 5.0, base: float = 1.0) -> Polytope:
    """Square pyramid: unit-ish base in the z=0 plane, apex on the z axis.

    The apex is vertex 4.
    """
    h = base / 2.0
    verts = np.array(
        [[-h, -h, 0], [h, -h, 0], [h, h, 0], [-h, h, 0], [0, 0, height]]
    )
    return Polytope(verts, name="square-pyramid")


def triangular_prism(side: float = 1.0, height: float = 1.0) -> Polytope:
    s = side
    tri = np.array([[0.0, 0.0], [s, 0.0], [s / 2.0, s * np.sqrt(3.0) / 2.0]])
    verts = np.vstack(
        [np.column_stack([tri, np.zeros(3)]), np.column_stack([tri, np.full(3, height)])]
    )
    return Polytope(verts, name="triangular-prism")


def square(half: float = 1.0) -> Polytope:
    """Square [-half, half]^2 as a 2-polytope (facets are its edges)."""
    h = half
    verts = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    return Polytope(verts, name="square")


def triangle(points=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))) -> Polytope:
    return Polytope(points, name="triangle")


def simplex4(edge: float = 1.0) -> Polytope:
    """Regular 4-simplex; facets are five regular tetrahedra."""
    # Vertices of a regular simplex: orthonormal-frame construction.
    raw = np.vstack([np.eye(4), np.full(4, (1.0 - np.sqrt(5.0)) / 4.0)])
    raw -= raw.mean(axis=0)
    raw *= edge / np.linalg.norm(raw[0] - raw[1])
    return Polytope(raw, name="simplex4")
