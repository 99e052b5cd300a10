"""Perimeter-minimizing regions on polytope surfaces and metric cones."""

__version__ = "0.1.0"

from .errors import NumericalError, PolyperimError, ValidationError
from .polytope import Polytope
from .shapes import (
    cube,
    hypercube,
    octahedron,
    simplex4,
    square,
    square_pyramid,
    tetrahedron,
    triangle,
    triangular_prism,
)
from .cones import (
    VertexCone,
    deficit_sum,
    vertex_cones,
)
from .slicing import (
    SlicePiece,
    classify_pieces,
    enumerate_pieces,
)
from .smoothing import (
    SmoothedBody,
    convexity_probe,
    smoothed_body,
)
from .profiles import (
    cone_profile,
    euclidean_profile,
    fit_power_law,
    sphere_measure,
    sphere_profile,
)
from .mesh import SurfaceMesh, subdivide
from .solver import (
    Region,
    SolverConfig,
    anisotropy_bound,
    default_config,
    minimize_perimeter,
    vertex_ball_region,
)
from .gallery import (
    cube_competitors,
    double_pyramid_report,
    spike_link_from_half_angle,
    spiked_cone_report,
    suspension_area,
)

__all__ = [
    "__version__",
    "PolyperimError",
    "ValidationError",
    "NumericalError",
    "Polytope",
    "cube",
    "hypercube",
    "tetrahedron",
    "octahedron",
    "square_pyramid",
    "triangular_prism",
    "square",
    "triangle",
    "simplex4",
    "VertexCone",
    "vertex_cones",
    "deficit_sum",
    "SlicePiece",
    "enumerate_pieces",
    "classify_pieces",
    "SmoothedBody",
    "smoothed_body",
    "convexity_probe",
    "euclidean_profile",
    "cone_profile",
    "sphere_profile",
    "sphere_measure",
    "fit_power_law",
    "SurfaceMesh",
    "subdivide",
    "Region",
    "SolverConfig",
    "default_config",
    "anisotropy_bound",
    "vertex_ball_region",
    "minimize_perimeter",
    "cube_competitors",
    "double_pyramid_report",
    "spiked_cone_report",
    "spike_link_from_half_angle",
    "suspension_area",
]
