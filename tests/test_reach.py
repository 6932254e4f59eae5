"""Every construction tag that paths.py and cycles.py can record fires on a
committed public request.

REACH maps each tag to one request of the public API (find_paths_length,
find_paths_flex, find_k_cycles) whose trace records it: the smallest atlas
input for the tags that fire at n <= 7, and built inputs for the rest.  The
source scan checks that REACH names exactly the tags the two modules can
record, so a new construction site needs an input here, and a site that no
input reaches has to go.  "oracle-fallback" is the constructive-gap marker,
not a construction, and has no entry.
"""

import ast
import hashlib
from pathlib import Path

import pytest

import cyclemod
from cyclemod import certify
from cyclemod.cycles import find_k_cycles
from cyclemod.graph import Graph, complete_bipartite, complete_graph
from cyclemod.paths import ExtractionTrace, find_paths_flex, find_paths_length

SRC = Path(cyclemod.__file__).resolve().parent
GAP_MARKER = "oracle-fallback"
BRANCHES = ("I", "II", "III")


def graph(n, edges):
    """Graph on n <= 10 vertices from two-digit edge codes: "01 12" is 0-1, 1-2."""
    return Graph(n, [(int(e[0]), int(e[1])) for e in edges.split()])


def circulant(n, steps):
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def paths(g, x, y, k, flex):
    return lambda trace: (find_paths_flex if flex else find_paths_length)(g, x, y, k, trace=trace)


def cycles(g, k):
    return lambda trace: find_k_cycles(g, k, trace=trace)


REACH = {
    # cycles.py
    "branch-I": cycles(complete_graph(3), 1),
    "single-cycle": cycles(complete_graph(3), 1),
    "branch-II": cycles(complete_graph(4), 1),
    "edge-pair": cycles(complete_graph(4), 2),
    "triangle-fan": cycles(complete_graph(5), 3),
    "two-cut-glue": cycles(graph(6, "01 02 05 12 13 14 25 34 35 45"), 2),
    "branch-III": cycles(complete_bipartite(3, 3), 2),
    "bipartite-oracle": cycles(complete_bipartite(3, 3), 2),
    "antipode-x-fan": cycles(circulant(11, (1, 3)), 3),
    "antipode-fan": cycles(circulant(15, (1, 3)), 3),
    # paths.py
    "single-path": paths(graph(3, "01 02"), 1, 2, 1, False),
    "drop-xy-edge": paths(complete_graph(4), 0, 1, 2, True),
    "contract-tiny-semi": paths(graph(4, "01 02 03 12 23"), 1, 3, 2, True),
    "core-ladders": paths(graph(5, "01 04 12 13 14 23 34"), 0, 2, 2, True),
    "strip-degree-one-x": paths(graph(5, "01 13 14 23 24 34"), 0, 2, 2, True),
    "contract-neighborhood": paths(graph(6, "01 05 12 15 23 24 34 45"), 0, 3, 2, True),
    "core-semi-through-y": paths(graph(6, "01 02 04 05 12 13 14 15 23 24 25 34 35 45"),
                                 0, 3, 3, True),
    "end-block-of-x": paths(graph(7, "01 05 15 16 23 24 26 34 46 56"), 0, 3, 2, True),
    "split-common-neighborhood": paths(graph(7, "03 04 05 06 12 13 15 24 26 46"), 3, 5, 2, True),
    "block-to-t": paths(graph(7, "01 03 04 05 06 15 16 23 24 34 35 36 45 46 56"), 1, 2, 3, True),
    "core-ladders-semi": paths(graph(8, "03 04 07 12 13 14 25 26 34 56 57 67"), 0, 2, 2, True),
    "single-y-2conn": paths(
        graph(8, "03 04 05 06 07 13 14 15 16 17 23 24 25 26 27 34 36 45 57 67"), 0, 1, 3, True),
    "single-y-two-t": paths(
        graph(8, "01 02 03 04 07 12 13 14 15 16 23 24 27 34 37 47 57 67"), 5, 6, 3, True),
}


@pytest.mark.parametrize("tag", sorted(REACH))
def test_tag_fires_on_a_public_request(tag):
    trace = ExtractionTrace()
    REACH[tag](trace)
    assert tag in trace.branches, trace.branches
    assert not trace.constructive_gap


# SHA-256 of the single-y-2conn request's certificate
SINGLE_Y_2CONN_SHA256 = "ac8aa729123dbdb9bfa7f2ec6d1ba6c8c19bfe217b96763f2c57a9b9ead7d2bb"


def test_single_y_2conn_certificate_is_pinned():
    g = graph(8, "03 04 05 06 07 13 14 15 16 17 23 24 25 26 27 34 36 45 57 67")
    trace = ExtractionTrace()
    fam = find_paths_flex(g, 0, 1, 3, trace=trace)
    assert trace.branches[-1] == "single-y-2conn"
    cert = certify.make_certificate(g, "paths", 3, fam, x=0, y=1, trace=trace)
    assert hashlib.sha256(certify.to_json(cert).encode()).hexdigest() == SINGLE_Y_2CONN_SHA256


def _emitted_tags(path):
    """Tags the module can record: the literal tag of each _attempt call
    (a tag of None records nothing), record call and _from_oracle call, a
    module constant passed as one, the "branch-{...}" record expanded over
    the three branches, and the ("tag", function) pairs of a site table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    consts = {node.targets[0].id: node.value.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
              and isinstance(node.targets[0], ast.Name)}
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

    def tags_of(arg):
        if isinstance(arg, ast.Constant):
            return {arg.value}
        if isinstance(arg, ast.Name):  # a parameter forwards its callers' tags
            return {consts[arg.id]} if arg.id in consts else set()
        if isinstance(arg, ast.JoinedStr):
            (prefix,) = [v.value for v in arg.values if isinstance(v, ast.Constant)]
            return {prefix + b for b in BRANCHES}
        raise AssertionError(f"{path.name}:{arg.lineno}: tag is not a literal")

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "_attempt":
                tag = node.args[1]
                if not (isinstance(tag, ast.Constant) and tag.value is None):
                    found |= tags_of(tag)
            elif name == "record":
                found |= tags_of(node.args[0])
            elif name == "_from_oracle":
                found |= tags_of(node.args[-1])
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Constant) and isinstance(node.elts[0].value, str)
              and isinstance(node.elts[1], ast.Name) and node.elts[1].id in functions):
            found.add(node.elts[0].value)
    return found


def test_every_tag_in_the_source_has_a_reaching_request():
    emitted = _emitted_tags(SRC / "paths.py") | _emitted_tags(SRC / "cycles.py")
    assert GAP_MARKER in emitted
    emitted.discard(GAP_MARKER)
    assert sorted(emitted - set(REACH)) == [], "tags with no reaching request"
    assert sorted(set(REACH) - emitted) == [], "REACH names tags the source cannot record"
