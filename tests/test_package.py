import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import polyperim
from polyperim.errors import PolyperimError, ValidationError

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
    # the benchmark harness is frozen, so an API it calls must not go away
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
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                obj = roots[chain[0]]
                for name in chain[1:]:
                    if not hasattr(obj, name):
                        missing.append(f"{script.name}: {'.'.join(chain)}")
                        break
                    obj = getattr(obj, name)
    assert missing == []
