#!/usr/bin/env python3
"""List the lines of src/cyclemod that no test runs.

    python3 tools/unreached_lines.py [PYTEST_ARGS...]

Run it from anywhere; it works on the checkout it lives in.  It runs the
tier-1 suite (pytest.main with -q --continue-on-collection-errors, plus any
PYTEST_ARGS) in this process, under a line tracer that sys.settrace and
threading.settrace install and that records only frames whose code lies in
src/cyclemod.  Then it prints each executable line that no test ran, as
`file:line: source`, and a last line with their count.  Def, class and
import lines and docstrings are not listed: they run at import or not at
all.  A line is executable when it starts a statement and the compiler
gave it code.

Subprocess children, such as a test that spawns the `cyclemod` console
script, are not traced, so a line that only a child runs is listed.  The
whole suite takes about 6 minutes under the tracer on a 2-vCPU x86-64
host.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "cyclemod"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _code_lines(code):
    """Line numbers that code, and every code object nested in it, has
    instructions on."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.update(range(first.lineno, first.end_lineno + 1))
    return found


def executable_lines(path):
    """The statement-start lines of a source file that hold code, less def,
    class and import lines and docstrings."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)}
    return (starts & _code_lines(compile(source, str(path), "exec"))) - _docstring_lines(tree)


def run_traced(pytest_args):
    """(pytest exit status, {real file path: set of lines run}) for the suite
    run under the line tracer."""
    import pytest

    hits = {}
    inside = {}
    prefix = str(PKG) + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        mine = inside.get(name)
        if mine is None:
            mine = inside[name] = os.path.realpath(name).startswith(prefix)
            if mine:
                hits[name] = set()
        return on_line if mine else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {}
    for name, lines in hits.items():
        ran.setdefault(os.path.realpath(name), set()).update(lines)
    return status, ran


def main(argv):
    status, ran = run_traced(argv)
    count = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        count += len(missed)
    print(f"{count} executable lines of src/cyclemod that no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
