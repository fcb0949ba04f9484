"""Every third-party module the package imports is a declared dependency,
and the package runs without the test-only ones."""
import ast
import os
import pathlib
import re
import subprocess
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
    # lazy imports inside functions count too; mpmath is a test dependency only
    assert "numpy" in third_party and "mpmath" not in third_party
    assert third_party <= declared, sorted(third_party - declared)


NO_MPMATH = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now fails
from qheine import ParamSet, RatioVariant, ratio_moments, verify_identities
from qheine.cli import main
res = verify_identities(ParamSet(0.2, 0.3, 0.93, 0.88), 0.4)  # escalates
assert max(res.values()) < 1e-20, res
mixed = ParamSet(0.916261106974507, -0.4121543034970268, 0.9069117785606575,
                 0.7501997147334211)
assert len(ratio_moments(RatioVariant.SHIFT_A, mixed, 30).m) == 31
assert main(["identities", "-a", "0.2", "-b", "0.3", "-c", "0.93", "-q", "0.88",
             "-z", "0.4"]) == 0
"""


def test_runs_without_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_MPMATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
