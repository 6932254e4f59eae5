"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

import cyclemod

SRC = Path(cyclemod.__file__).resolve().parent
DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def test_one_low_link_walk():
    # blocks, cut vertices and the witness check all come from one Tarjan
    # DFS; a function keeping both discovery times and low-links is a copy
    walks = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                stored = {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                if {"disc", "low"} <= stored:
                    walks.append(f"{path.stem}.{node.name}")
    assert walks == ["decompose._low_link"]


def test_one_subproblem_builder():
    # paths._recurse_on alone builds a relabelled subproblem and lifts its
    # paths back; every other question about G - X is asked of G itself
    callers = {"induced": set(), "contract_set": set()}
    defined = set()
    for name in ("paths.py", "cycles.py"):
        path = SRC / name
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(top, ast.FunctionDef):
                continue
            defined.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called in callers:
                        callers[called].add(f"{path.stem}.{top.name}")
    assert callers == {
        "induced": {"paths._recurse_on"},
        "contract_set": {"paths._case_no_core"},
    }
    assert "_recurse_on_sub" not in defined


def test_only_recurse_on_derives_a_super_roots_neighbours():
    # a super root is the tuple of its options, and paths._recurse_on alone
    # works out its neighbours: no other function binds a name for them,
    # and a root passed to _recurse_on as a tuple display lists vertices only
    binders, pairs = set(), []
    for path in sorted(SRC.glob("*.py")):
        for qualname, top in _top_level_functions(path):
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound = node.id
                else:
                    bound = node.arg if isinstance(node, ast.arg) else ""
                if "attach" in bound:
                    binders.add(qualname)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_recurse_on":
                    pairs += [f"{path.name}:{node.lineno}" for arg in node.args
                              if isinstance(arg, ast.Tuple)
                              and not all(isinstance(e, ast.Name) for e in arg.elts)]
    assert binders <= {"paths._recurse_on"}, f"super-root neighbours bound in: {binders}"
    assert not pairs, f"super roots passed as (neighbours, options) pairs: {pairs}"


def _compares_roots_to_end_blocks(node):
    """Does node test a set of the two roots against an end block less its
    cut vertex, as in `{x, y}.intersection(blk) - {b}`?"""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "attr", None) == "intersection"
            and isinstance(node.left.func.value, ast.Set)
            and len(node.left.func.value.elts) == 2)


def test_the_rooted_hypothesis_is_read_once_with_no_copy_of_g_plus_xy():
    # decompose.rooted_end_blocks alone reads "G + xy is 2-connected" off
    # the end blocks of G; the engine is its one caller outside decompose,
    # and no code builds G + xy
    readers, copies = set(), []
    for path in sorted(SRC.glob("*.py")):
        for qualname, top in _top_level_functions(path):
            for node in ast.walk(top):
                if _compares_roots_to_end_blocks(node):
                    readers.add(qualname)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "with_edge":
                    copies.append(f"{path.name}:{node.lineno}")
    assert readers == {"decompose.rooted_end_blocks"}
    assert not copies, f"with_edge copies in src: {copies}"
    assert _top_level_callers(["rooted_end_blocks"])["rooted_end_blocks"] == {
        "decompose.is_rooted_2_connected",
        "paths._engine",
    }
    defined = {name for path in SRC.glob("*.py") for _q, name in _defined_names(path)}
    assert not {"_fits", "_check_hypothesis"} & defined


def test_only_attempt_catches_a_declined_construction():
    # paths._attempt alone turns a construction's error into a decline, so
    # it alone puts the trace back; the gap flag is read off the tags, and
    # no code stores it
    catchers, gap_stores, functions = set(), [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef):
                    functions.add(node.name)
                if (isinstance(node, ast.ExceptHandler) and node.type is not None
                        and "_BRANCH_ERRORS" in ast.unparse(node.type)):
                    catchers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                target = getattr(node, "attr", None) or getattr(node, "id", None)
                if target == "constructive_gap" and isinstance(node.ctx, ast.Store):
                    gap_stores.append(f"{path.name}:{node.lineno}")
    assert catchers == {"paths._attempt"}
    assert not gap_stores, f"constructive_gap assigned in src: {gap_stores}"
    assert not {"_side", "_block_paths"} & functions


def _self_calls(node, prefix):
    """Qualified names of the functions under `node`, nested ones included,
    whose body calls them by their own name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == child.name
                   for c in ast.walk(child)):
                yield name
            yield from _self_calls(child, name)
        else:
            yield from _self_calls(child, prefix)


def test_only_shallow_functions_recurse():
    # Python recursion stops at about 1000 frames, so a search that is as
    # deep as the graph is large walks an explicit stack instead
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= set(_self_calls(ast.parse(path.read_text(), filename=str(path)), path.stem))
    assert not found, f"functions that call themselves: {sorted(found)}"


def _top_level_functions(path):
    """(module.name, node) of each top-level function of a src file, and
    (module.Class.name, node) of each method of a top-level class."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.FunctionDef):
            yield f"{path.stem}.{top.name}", top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{path.stem}.{top.name}.{node.name}", node


def _top_level_callers(names):
    """For each function name in `names`, the top-level src functions and
    methods (see _top_level_functions) whose body, nested functions and
    lambdas included, calls it by that name."""
    callers = {name: set() for name in names}
    for path in sorted(SRC.glob("*.py")):
        for qualname, top in _top_level_functions(path):
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(qualname)
    return callers


def test_each_family_is_validated_where_it_is_returned():
    # a construction only builds: the engine level that returns a path
    # family validates it once, and so do the two entry points that return
    # a cycle family; each oracle validates its own answer
    assert _top_level_callers(["validate_path_family", "validate_cycle_family"]) == {
        "validate_path_family": {"paths._engine", "paths.oracle_paths"},
        "validate_cycle_family": {"cycles.oracle_cycles", "cycles.find_k_cycles"},
    }


def test_a_class_is_checked_against_its_lengths_in_one_place():
    # Family checks its class when it is built, so no builder or validator
    # checks it again; classify and semi_switch read the patterns, and
    # certify.verify checks a certificate's class with no Family built
    assert _top_level_callers(["class_holds"])["class_holds"] == {
        "families.Family.__post_init__",
        "families.classify",
        "families.semi_switch",
        "certify.verify",
    }


def test_the_engine_is_entered_only_from_outside_a_level():
    # the swap and the drop of xy happen in line, so a level dispatches
    # once; the engine re-enters only through _recurse_on, on a subproblem
    assert _top_level_callers(["_engine"])["_engine"] == {
        "paths._recurse_on",
        "paths.find_paths_length",
        "paths.find_paths_flex",
        "cycles._two_cycles_from_edge",
    }


def _reads_the_environment(node):
    """Does node name CYCLEMOD_BUDGET or reach the process environment?"""
    if isinstance(node, ast.Constant):
        return node.value == "CYCLEMOD_BUDGET"
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "getenv")
    if isinstance(node, ast.alias):
        return node.name in ("environ", "getenv")
    return False


def test_only_default_budget_reads_cyclemod_budget():
    # one place turns the environment into a search budget, so that one
    # budget per request can replace it there
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", "<module>")
            if any(_reads_the_environment(node) for node in ast.walk(top)):
                readers.add(f"{path.stem}.{owner}")
    assert readers == {"oraclekern.default_budget"}


def test_no_graph_is_rebuilt_from_another_graphs_edge_list():
    # derived graphs build their adjacency tuple directly (graph.Graph._of_adj);
    # smallgraphs.py reads networkx graphs, whose .edges() is no Graph's
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "smallgraphs.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Graph"
                    and any(isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "edges"
                            for arg in node.args + [kw.value for kw in node.keywords]
                            for c in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"Graph(...) built from another graph's edges(): {found}"


def _identifier_references(tree):
    """Names a module reads: loaded names, attributes, imported names, and
    string constants that are a dotted identifier (perfbench/tracing.py
    names the functions it wraps that way)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_IDENTIFIER.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def _is_click_command(node):
    return any("command" in ast.unparse(d) for d in node.decorator_list)


def _defined_names(path):
    """The functions, classes and constants that a src module defines at
    top level, and the methods of its classes, as (module.name, name);
    click commands are reached by name, so they are left out."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{path.stem}.{node.name}.{m.name}", m.name)
                        for m in node.body if isinstance(m, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            yield from ((f"{path.stem}.{t.id}", t.id)
                        for t in node.targets if isinstance(t, ast.Name))


def test_every_top_level_name_is_referenced():
    # a function, class, constant or method that nothing in src/, tests/
    # or perfbench/ reads is dead code
    root = SRC.parent.parent
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            used |= _identifier_references(ast.parse(path.read_text(), filename=str(path)))
    found = [qualified for path in sorted(SRC.glob("*.py"))
             for qualified, name in _defined_names(path)
             if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not found, f"names and methods that nothing references: {found}"


def _is_successive_differences(node):
    """node is a comprehension `b - a for a, b in zip(x, x[1:])`, up to names."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return False
    it = node.generators[0].iter
    return (isinstance(node.elt, ast.BinOp) and isinstance(node.elt.op, ast.Sub)
            and isinstance(it, ast.Call) and getattr(it.func, "id", None) == "zip"
            and len(it.args) == 2 and isinstance(it.args[1], ast.Subscript)
            and ast.dump(it.args[0]) == ast.dump(it.args[1].value)
            and ast.unparse(it.args[1].slice) == "1:")


def test_length_patterns_are_written_once():
    # families.pattern holds the steps of each length condition: no
    # function takes the differences of a length list, and the window scan
    # both oracles use lives next to it
    diffs, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in ("pattern", "first_window"):
                defined.append(f"{path.stem}.{node.name}")
            if any(_is_successive_differences(c) for c in ast.walk(node)):
                diffs.add(f"{path.stem}.{node.name}")
    assert not diffs, f"functions computing successive differences: {sorted(diffs)}"
    assert sorted(defined) == ["families.first_window", "families.pattern"]
