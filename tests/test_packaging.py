"""Every third-party module the package imports is a declared dependency."""
import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_modules(path):
    """Top-level names of every absolute import in a file, lazy ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = {name for path in (ROOT / "src" / "qheine").glob("*.py")
                for name in imported_modules(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"qheine"}
    # mpmath is imported inside functions only, so this also checks the scan
    assert {"numpy", "mpmath"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)
