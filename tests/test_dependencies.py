"""The package is numpy-only: its sources import the standard library, numpy and itself; and
every name it exports exists."""

import ast
import re
import sys
from pathlib import Path

import convexwave
import convexwave.cusp

PACKAGE = Path(convexwave.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "convexwave"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_stdlib_numpy_and_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        assert _top_level_imports(path) - ALLOWED == set(), path.name


def test_declared_dependencies_are_numpy_alone():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    deps = ast.literal_eval(re.search(r"^dependencies\s*=\s*(\[.*?\])", text, re.M | re.S).group(1))
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps] == ["numpy"]


def test_every_exported_name_resolves():
    # a stale __all__ entry makes ``from convexwave.cusp import *`` raise
    for module in (convexwave, convexwave.cusp):
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
