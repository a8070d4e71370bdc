"""The demos are not run by the test suite, so a library name they import
could vanish unnoticed. This reads each demo's `from celab... import ...`
lines with `ast`, without running the demo, and resolves every name."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _celab_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "celab"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_celab_name_a_demo_imports_resolves(path):
    imports = _celab_imports(path)
    assert imports, f"{path.name} imports nothing from celab"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names that are gone: {missing}"
