"""Properties of the package source itself."""

import ast
from pathlib import Path

import cyclemod

SRC = Path(cyclemod.__file__).resolve().parent


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so invariants must raise explicit errors;
    # a bare AssertionError is no CyclemodError, so the CLI would not map it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, f"assert statements or AssertionError raises in src: {found}"


def test_every_imported_name_is_used():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports in src: {found}"


def test_only_decompose_reads_the_block_cut_incidence():
    # (end block, cut vertex) pairs come from decompose.leaf_blocks
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "decompose.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "incidence"]
    assert not found, f"BlockCutTree.incidence read outside decompose.py: {found}"


def test_one_copy_of_the_3_connectivity_certificate():
    # decompose.py alone defines the contraction certificate, and the two
    # 3-connectivity decisions reach it through that one helper
    defined, callers = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "_contracts_to_k4":
                defined.append(path.name)
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id == "_contracts_to_k4" for c in ast.walk(node)):
                callers.add(f"{path.stem}.{node.name}")
    assert defined == ["decompose.py"]
    assert callers == {"cycles._classify", "decompose.vertex_connectivity_at_least"}
