"""The package runs on its declared runtime dependencies alone.

Every third-party module that src/lrgnn imports is listed in
pyproject.toml's dependencies, and importing the CLI pulls in no scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, lrgnn.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                    for dep in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for source in (ROOT / "src" / "lrgnn").rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"lrgnn"}
    assert "numpy" in third_party
    assert third_party <= declared
