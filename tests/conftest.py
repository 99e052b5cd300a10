from functools import lru_cache

import pytest

from polyperim import shapes
from polyperim.smoothing import SmoothedBody, smoothed_body

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
