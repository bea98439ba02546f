"""The package's modules import only what pyproject.toml declares."""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "preadaptive_control"

#: distribution name -> top-level module, where the two differ
_MODULE_OF = {"pyyaml": "yaml"}


def _declared_modules():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    return {_MODULE_OF.get(name, name) for name in names}


def _top_level_imports(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_itself_and_declared_dependencies():
    declared = _declared_modules()
    assert declared == {"numpy", "yaml"}
    allowed = set(sys.stdlib_module_names) | {"preadaptive_control"} | declared
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    stray = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in _top_level_imports(path)
        if module not in allowed
    ]
    assert stray == []


def test_benchmark_tracer_layers_resolve():
    # perfbench/tracer.py wraps each layer at the name its caller looks it up
    # by, and reads _Stepper.step's with_sens as positional argument 3; a
    # deleted or renamed function would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for owner, attr, _, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
    step = inspect.signature(tracer.simengine._Stepper.step)
    assert list(step.parameters)[1:5] == ["y", "theta", "with_sens", "exact_sens"]
