"""Checks the package relies on must still run under ``python -O``."""

import ast
from pathlib import Path

import weylzeta

PACKAGE_DIR = Path(weylzeta.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
