"""pyproject.toml declares exactly the third-party modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "tierroute").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
                for requirement in project["dependencies"]}
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"tierroute"}
    assert "numpy" in third_party  # the scan sees the imports at all
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
    assert declared <= third_party, f"declared but not imported: {sorted(declared - third_party)}"
