import argparse
import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyperim
from polyperim import cli, shapes
from polyperim.errors import (
    BadDocument,
    InsufficientSamples,
    PolyperimError,
    UnsupportedDimension,
    ValidationError,
)
from polyperim.mesh import SurfaceMesh, subdivide
from polyperim.polytope import Polytope
from polyperim.profiles import (
    cone_profile,
    euclidean_profile,
    sphere_measure,
    sphere_profile,
    unit_ball_volume,
    volume_grid,
)
from polyperim.slicing import RegularSimplexFrame, build_frame, enumerate_pieces
from polyperim.smoothing import convexity_probe, smoothed_body, sphere_quadrature
from polyperim.solver import SolverConfig, default_config, vertex_ball_region

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
    ("sphere_quadrature", "resolution", lambda v: sphere_quadrature(3, v),
     ValidationError, "resolution", (3,)),
    ("smoothed_body", "resolution",
     lambda v: smoothed_body(shapes.square(), 0.1, resolution=v), ValidationError,
     "resolution", (3,)),
    ("convexity_probe", "trials", lambda v: convexity_probe(_body(), trials=v),
     InsufficientSamples, "trials", (0,)),
    ("convexity_probe", "seed", lambda v: convexity_probe(_body(), trials=1, seed=v),
     ValidationError, "seed", (-1,)),
    ("build_frame", "n", build_frame, UnsupportedDimension, "n", (0,)),
    ("RegularSimplexFrame.generator", "i", lambda v: build_frame(2).generator(v),
     ValidationError, "i", (-1, 3)),
    ("enumerate_pieces", "n", lambda v: enumerate_pieces(v, 2), UnsupportedDimension,
     "n", (0,)),
    ("enumerate_pieces", "slices", lambda v: enumerate_pieces(2, v), ValidationError,
     "slices", (1,)),
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


def test_every_integer_parameter_has_a_row():
    targets = [getattr(polyperim, n) for n in polyperim.__all__]
    targets = [t for t in targets if inspect.isfunction(t)]
    targets += [SurfaceMesh.vertex_star, SolverConfig, RegularSimplexFrame.generator]
    annotated = {
        (t.__qualname__, p.name)
        for t in targets
        for p in inspect.signature(t).parameters.values()
        if p.annotation in ("int", "int | None")
    }
    rows = {(entry, argument) for entry, argument, *_ in INTEGER_ARGUMENTS}
    assert ("RegularSimplexFrame.generator", "i") in annotated
    assert annotated - rows == set()
