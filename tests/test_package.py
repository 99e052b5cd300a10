import argparse
import ast
import dataclasses
import functools
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyperim
from polyperim import cli, errors, shapes
from polyperim.errors import (
    BadDocument,
    InsufficientSamples,
    PolyperimError,
    UnsupportedDimension,
    ValidationError,
    VolumeOutOfRange,
)
from polyperim.gallery import (
    SPIKE_MAX_HALF_ANGLE,
    cube_competitors,
    double_pyramid_report,
    modified_cube_faces,
    spike_link_from_half_angle,
    spiked_cone_report,
)
from polyperim.mesh import subdivide
from polyperim.polytope import Polytope
from polyperim.profiles import (
    cone_profile,
    euclidean_profile,
    sphere_measure,
    sphere_profile,
    unit_ball_volume,
    volume_grid,
)
from polyperim.slicing import enumerate_pieces, piece_count
from polyperim.smoothing import convexity_probe, smoothed_body, sphere_quadrature
from polyperim.solver import SolverConfig, default_config, minimize_perimeter, vertex_ball_region

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_export_resolves_once():
    names = polyperim.__all__
    assert len(set(names)) == len(names), [n for n in names if names.count(n) > 1]
    missing = [n for n in names if not hasattr(polyperim, n)]
    assert missing == []


def test_every_library_rejection_is_a_validation_error():
    # ValidationError is a ValueError too, so no check needs a bare one; the
    # CLI names the class of each rejection and exits 2
    assert issubclass(ValidationError, PolyperimError)
    assert issubclass(ValidationError, ValueError)
    bare = []
    for path in sorted(Path(polyperim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def _dotted(node: ast.expr) -> list[str] | None:
    """``["pp", "Polytope", "from_vertices"]`` for ``pp.Polytope.from_vertices``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_import_loads_no_scipy_integrate_or_optimize():
    # the kernel's radial mass is recorded, so neither package is needed at
    # run time; together they are about 180 scipy modules and 14 MiB
    code = (
        "import sys, polyperim, polyperim.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    src = str(Path(polyperim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_benchmark_uses_only_names_that_resolve():
    # the benchmark harness is frozen, so an API it calls must not go away,
    # nor a parameter it passes by position or keyword; a call through
    # Context.call(task, name, fn, *args, **kwargs) passes its arguments to fn
    missing = []
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "polyperim":
                        roots[alias.asname or alias.name] = importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyperim"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        importlib.import_module(f"{node.module}.{alias.name}")
                    roots[alias.asname or alias.name] = getattr(module, alias.name)

        def resolve(node):
            """The library object ``node`` names, else None."""
            chain = _dotted(node)
            if not chain or chain[0] not in roots:
                return None
            obj = roots[chain[0]]
            for name in chain[1:]:
                if not hasattr(obj, name):
                    missing.append(f"{script.name}: {'.'.join(chain)}")
                    return None
                obj = getattr(obj, name)
            return obj

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node)
            if not isinstance(node, ast.Call):
                continue
            fn, args = resolve(node.func), node.args
            through_call = isinstance(node.func, ast.Attribute) and node.func.attr == "call"
            if fn is None and through_call and len(args) > 2:
                fn, args = resolve(args[2]), args[3:]
            kwargs = {k.arg: k.value for k in node.keywords}
            if fn is None or None in kwargs or any(isinstance(a, ast.Starred) for a in args):
                continue
            try:
                inspect.signature(fn).bind(*args, **kwargs)
            except TypeError as exc:
                missing.append(f"{script.name}:{node.lineno}: {exc}")
    assert missing == []


@functools.cache
def _mesh():
    return subdivide(shapes.cube(), 1)


@functools.cache
def _body():
    return smoothed_body(shapes.square(), 0.1, resolution=4)


def _config(**given):
    return SolverConfig(**{"seed": 0, "iterations": 1, "restarts": 1, "t_initial": 1.0,
                           "cooling": 0.5, "mu": 1.0, **given})


_TRIANGLE = [[0, 0], [1, 0], [0, 1]]

# (entry point, argument, call with the value, class raised, name the message
# starts with, values out of range); a row per integer argument
INTEGER_ARGUMENTS = [
    ("subdivide", "level", lambda v: subdivide(shapes.cube(), v), ValidationError,
     "level", (-1, 9)),
    ("SurfaceMesh.vertex_star", "vertex", lambda v: _mesh().vertex_star(v),
     ValidationError, "vertex", (-1, 8)),
    ("vertex_ball_region", "vertex", lambda v: vertex_ball_region(_mesh(), v, 0.05),
     ValidationError, "vertex", (-1, 8)),
    ("SolverConfig", "seed", lambda v: _config(seed=v), ValidationError, "seed", (-1,)),
    ("SolverConfig", "iterations", lambda v: _config(iterations=v), ValidationError,
     "iterations", (0,)),
    ("SolverConfig", "restarts", lambda v: _config(restarts=v), ValidationError,
     "restarts", (0,)),
    ("default_config", "seed", lambda v: default_config(_mesh(), seed=v),
     ValidationError, "seed", (-1,)),
    ("default_config", "iterations", lambda v: default_config(_mesh(), iterations=v),
     ValidationError, "iterations", (0,)),
    ("default_config", "restarts", lambda v: default_config(_mesh(), restarts=v),
     ValidationError, "restarts", (0,)),
    ("sphere_quadrature", "dim", lambda v: sphere_quadrature(v, 8), UnsupportedDimension,
     "dim", (1, 4)),
    ("sphere_quadrature", "resolution", lambda v: sphere_quadrature(3, v),
     ValidationError, "resolution", (3,)),
    ("smoothed_body", "resolution",
     lambda v: smoothed_body(shapes.square(), 0.1, resolution=v), ValidationError,
     "resolution", (3,)),
    ("convexity_probe", "trials", lambda v: convexity_probe(_body(), trials=v),
     InsufficientSamples, "trials", (0,)),
    ("convexity_probe", "seed", lambda v: convexity_probe(_body(), trials=1, seed=v),
     ValidationError, "seed", (-1,)),
    ("enumerate_pieces", "n", lambda v: enumerate_pieces(v, 2), UnsupportedDimension,
     "n", (0,)),
    ("enumerate_pieces", "slices", lambda v: enumerate_pieces(2, v), ValidationError,
     "slices", (1,)),
    ("piece_count", "n", lambda v: piece_count(v, 2), UnsupportedDimension, "n", (0,)),
    ("piece_count", "slices", lambda v: piece_count(2, v), ValidationError, "slices", (1,)),
    ("unit_ball_volume", "n", unit_ball_volume, UnsupportedDimension, "n", (-1,)),
    ("sphere_measure", "k", sphere_measure, UnsupportedDimension, "k", (-1,)),
    ("euclidean_profile", "n", lambda v: euclidean_profile(v, 1.0),
     UnsupportedDimension, "n", (0,)),
    ("cone_profile", "n", lambda v: cone_profile(1.0, v, 1.0), UnsupportedDimension,
     "n", (0,)),
    ("sphere_profile", "n", lambda v: sphere_profile(v, 1.0), UnsupportedDimension,
     "n", (0,)),
    ("volume_grid", "points", lambda v: volume_grid(1.0, 2.0, v), ValidationError,
     "--points", (0, 100_001)),
    ("smooth", "--dirs", lambda v: cli._cmd_smooth(argparse.Namespace(dirs=v), Path()),
     ValidationError, "--dirs", (0, 100_001)),
    ("Polytope.from_document", "dim",
     lambda v: Polytope.from_document({"dim": v, "vertices": _TRIANGLE}), BadDocument,
     "field 'dim'", (0,)),
    ("Polytope.from_document", "facets",
     lambda v: Polytope.from_document(
         {"dim": 2, "vertices": _TRIANGLE, "facets": [[0, 1], [1, 2], [2, v]]}
     ), BadDocument, "facet 2 vertex index", (-1, 3)),
]


@pytest.mark.parametrize(
    "call, error, name, value",
    [
        pytest.param(call, error, name, value, id=f"{entry}-{argument}-{value!r}")
        for entry, argument, call, error, name, outside in INTEGER_ARGUMENTS
        for value in (2.5, True, np.float64(2), "2", *outside)
    ],
)
def test_integer_arguments_follow_one_rule(call, error, name, value):
    # a float, a bool, a string or a value out of range raises the site's
    # class and names the argument; bool passed range checks as 0 or 1, a
    # float reached numpy or list indexing and a string reached arithmetic
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{name} must be "), str(exc.value)


# the output dataclasses: their fields are results, not arguments
OUTPUT_CLASSES = {
    "VertexCone", "MoveCounts", "SolverResult", "CompetitorEntry", "CompetitorReport",
    "DoublePyramidReport", "SpikedConeReport", "ConvexityReport", "PowerLawFit",
    "SlicePiece", "ShapeClassSummary",
}


def _annotated(*annotations: str) -> set[tuple[str, str]]:
    """(qualified name, parameter) for every parameter with one of these
    annotations in every public function of every module, every public
    method or classmethod of a public class, and the constructor of every
    public dataclass, named by the class.  The errors module is left out:
    its helpers are the rules themselves."""
    targets = []
    for info in pkgutil.iter_modules(polyperim.__path__):
        module = importlib.import_module(f"polyperim.{info.name}")
        if module is errors:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append(obj)
            elif inspect.isclass(obj) and name not in OUTPUT_CLASSES:
                methods = (getattr(m, "__func__", m) for a, m in vars(obj).items()
                           if not a.startswith("_"))
                targets += [m for m in methods if inspect.isfunction(m)]
                if dataclasses.is_dataclass(obj):
                    targets.append(obj)
    return {
        (t.__qualname__, p.name)
        for t in targets
        for p in inspect.signature(t).parameters.values()
        if p.annotation in annotations
    }


def test_every_integer_parameter_has_a_row():
    annotated = _annotated("int", "int | None")
    rows = {(entry, argument) for entry, argument, *_ in INTEGER_ARGUMENTS}
    assert {("SurfaceMesh.vertex_star", "vertex"), ("sphere_quadrature", "dim"),
            ("SolverConfig", "seed"), ("smoothed_body", "resolution"),
            ("enumerate_pieces", "n")} <= annotated
    assert annotated - rows == set()


def _spiked_cone_cli(half_angle):
    args = argparse.Namespace(command="gallery", exhibit="spiked-cone", half_angle=half_angle,
                              spike_height=3.0, volume=1e-3)
    return cli._cmd_gallery(args, Path("out"))


# (entry point, argument, call with the value, class raised, name the message
# starts with, values out of range, a value in range: an int where the range
# holds one); a row per real argument
REAL_ARGUMENTS = [
    ("euclidean_profile", "volume", lambda v: euclidean_profile(3, v), VolumeOutOfRange,
     "volume", (0, -1.0, math.inf), 1),
    ("cone_profile", "omega", lambda v: cone_profile(v, 3, 1.0), ValidationError, "omega",
     (0, 4.0 * math.pi + 1e-9, math.inf), 1),
    ("cone_profile", "volume", lambda v: cone_profile(1.0, 3, v), VolumeOutOfRange,
     "volume", (0, -1.0, math.inf), 1),
    ("sphere_profile", "volume", lambda v: sphere_profile(2, v), VolumeOutOfRange,
     "volume", (0, 4.0 * math.pi, math.inf), 1),
    ("volume_grid", "vmin", lambda v: volume_grid(v, 2.0, 4), VolumeOutOfRange, "--vmin",
     (0, -1.0, math.inf), 1),
    ("volume_grid", "vmax", lambda v: volume_grid(1.0, v, 4), VolumeOutOfRange, "--vmax",
     (1.0, 0.5, math.inf), 2),
    ("cube_competitors", "volume", cube_competitors, VolumeOutOfRange, "volume",
     (0, 6.0, -1.0), 1),
    ("double_pyramid_report", "theta", lambda v: double_pyramid_report(v, 1e-3),
     ValidationError, "theta", (0, 2.0 * math.pi, -1.0), 1),
    ("double_pyramid_report", "volume", lambda v: double_pyramid_report(0.5, v),
     VolumeOutOfRange, "volume", (0, -1.0, math.inf), 1),
    ("double_pyramid_report", "base_link", lambda v: double_pyramid_report(0.5, 1e-3, v),
     ValidationError, "base_link", (0, 2.0 * math.pi, -1.0), 1),
    ("spike_link_from_half_angle", "gamma", spike_link_from_half_angle, ValidationError,
     "gamma", (0, SPIKE_MAX_HALF_ANGLE, -1.0), 0.1),
    ("modified_cube_faces", "rho", lambda v: modified_cube_faces(v, 3.0), ValidationError,
     "rho", (0, 0.5, -1.0), 0.25),
    ("modified_cube_faces", "spike_height", lambda v: modified_cube_faces(0.1, v),
     ValidationError, "spike_height", (0, -1.0, math.inf), 3),
    ("spiked_cone_report", "theta_p", lambda v: spiked_cone_report(v, spike_height=1.0),
     ValidationError, "theta_p", (0, math.pi, -1.0), 1),
    ("spiked_cone_report", "spike_height", lambda v: spiked_cone_report(0.5, v),
     ValidationError, "spike_height", (0, -1.0, math.inf), 3),
    ("spiked_cone_report", "reference_volume",
     lambda v: spiked_cone_report(0.5, reference_volume=v), VolumeOutOfRange,
     "reference_volume", (0, -1.0, math.inf), 1),
    ("cube", "side", shapes.cube, ValidationError, "side", (0, -1.0, math.inf), 2),
    ("smoothed_body", "epsilon", lambda v: smoothed_body(shapes.square(), v, resolution=4),
     ValidationError, "epsilon", (0, -1.0, math.inf), 0.25),
    ("vertex_ball_region", "volume", lambda v: vertex_ball_region(_mesh(), 0, v),
     VolumeOutOfRange, "volume", (0, -1.0, math.inf), 0.1),
    ("minimize_perimeter", "volume", lambda v: minimize_perimeter(_mesh(), v, _config()),
     VolumeOutOfRange, "volume", (0, 6.0, -1.0), 1),
    ("SolverConfig", "t_initial", lambda v: _config(t_initial=v), ValidationError,
     "t_initial", (0, -5.0, math.inf), 1),
    ("SolverConfig", "cooling", lambda v: _config(cooling=v), ValidationError, "cooling",
     (0, 2.0, math.nextafter(1.0, 2.0)), 1),
    ("SolverConfig", "mu", lambda v: _config(mu=v), ValidationError, "mu",
     (0, -1.0, math.inf), 1),
    ("gallery spiked-cone", "--half-angle", _spiked_cone_cli, ValidationError,
     "--half-angle", (0, 90.0, math.degrees(SPIKE_MAX_HALF_ANGLE)), 5),
]


#: an int that float() cannot convert
PAST_FLOAT = 10**400


@pytest.mark.parametrize(
    "call, error, name, value",
    [
        pytest.param(call, error, name, value,
                     id=f"{entry}-{argument}-{'10**400' if value is PAST_FLOAT else repr(value)}")
        for entry, argument, call, error, name, outside, _ in REAL_ARGUMENTS
        # base_link=None means no base vertex
        for value in ("0.1", *[None] * (argument != "base_link"), True, math.nan, PAST_FLOAT,
                      *outside)
    ],
)
def test_real_arguments_follow_one_rule(call, error, name, value):
    # a string, None, a bool, NaN, an int past the float range or a value out
    # of range raises the site's class and names the argument; a string or
    # None reached a comparison as a bare TypeError, and a bool passed as 0 or 1
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{name} must "), str(exc.value)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{entry}-{argument}-{value!r}")
        for entry, argument, call, *_, inside in REAL_ARGUMENTS
        for value in (inside, np.float64(inside))
    ],
)
def test_real_arguments_in_range_pass(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the CLI row writes its artifacts
    call(value)


def test_closed_upper_ends_print_a_bracket():
    # the link may reach |S^1| + 1e-12 and the cooling 1, both included
    assert cone_profile(sphere_measure(1) + 1e-12, 2, 1.0) > 0.0
    assert _config(cooling=1).cooling == 1.0
    with pytest.raises(ValidationError, match=r"^omega must be in \(0\.0, 6\.28318530718\d*\], got 7\.0$"):
        cone_profile(7.0, 2, 1.0)
    with pytest.raises(ValidationError, match=r"^cooling must be in \(0\.0, 1\.0\], got 1\.5$"):
        _config(cooling=1.5)


def test_every_real_parameter_has_a_row():
    annotated = _annotated("float", "float | None")
    rows = {(entry, argument) for entry, argument, *_ in REAL_ARGUMENTS}
    assert {("smoothed_body", "epsilon"), ("SolverConfig", "cooling"),
            ("cube", "side")} <= annotated
    assert annotated - rows == set()
