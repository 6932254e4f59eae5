"""Properties of the package source itself."""

import ast
from pathlib import Path

import cyclemod

SRC = Path(cyclemod.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so invariants must raise explicit errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


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
