"""The input contract, checked on the source: outside input is read only
through `celab.inputs`, so a module that parses JSON, catches a JSON error
or tells bools from numbers by itself keeps a copy of a reader's rules, and
a bare `raise ValueError` is an input check that raises no error class of
`celab.errors`."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "celab").glob("*.py"))


def _is_int_type_test(node: ast.AST) -> bool:
    """Whether `node` is a `type(x) is int` or `is not int` test, which
    tells a bool from an int by leaving bools out."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) and isinstance(kind, ast.Name)
                    and kind.id == "int" for op, kind in zip(node.ops, node.comparators)))


def _is_bool_test(node: ast.AST) -> bool:
    """Whether `node` is an isinstance call whose classes name bool or np.bool_."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
        if (isinstance(kind, ast.Name) and kind.id == "bool") or (
                isinstance(kind, ast.Attribute) and kind.attr == "bool_"):
            return True
    return False


def _own_checks(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each reader's rule `tree` states by itself."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((node.lineno, f"json.{node.attr}"))
        elif (isinstance(node, ast.Attribute) and node.attr == "JSONDecodeError") or (
                isinstance(node, ast.Name) and node.id == "JSONDecodeError"):
            found.append((node.lineno, "JSONDecodeError"))
        elif _is_bool_test(node):
            found.append((node.lineno, "isinstance(..., bool)"))
        elif _is_int_type_test(node):
            found.append((node.lineno, "type(...) is int"))
    return found


def _raised_value_errors(tree: ast.AST) -> list[int]:
    """Lines of each `raise ValueError` or `raise ValueError(...)` in `tree`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return lines


def test_the_sources_are_found():
    assert {"inputs.py", "lp.py", "pipeline.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_inputs_reads_json_or_tells_bools_from_numbers(path):
    found = _own_checks(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == "inputs.py":
        assert {what for _, what in found} == {
            "json.load", "JSONDecodeError", "isinstance(..., bool)"}
    else:
        assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_raises_a_bare_value_error(path):
    assert _raised_value_errors(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_each_own_check():
    # a copy of each rule, as an old module held it, is caught
    copies = """
import json
import numpy as np

def read(path, value):
    try:
        data = json.load(open(path))
    except json.JSONDecodeError:
        raise ValueError("not JSON")
    if isinstance(value, (bool, np.bool_)):
        raise ValueError
    return json.loads(data) if type(value) is not int else data
"""
    tree = ast.parse(copies)
    assert [what for _, what in sorted(_own_checks(tree))] == [
        "json.load", "JSONDecodeError", "isinstance(..., bool)", "json.loads",
        "type(...) is int"]
    assert sorted(_raised_value_errors(tree)) == [9, 11]
