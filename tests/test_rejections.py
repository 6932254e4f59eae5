"""Input rejections across the package, each named by its reason."""

from dataclasses import replace

import pytest

from cyclemod.core import Core, h_ladder_path, verify_core
from cyclemod.cycles import check_witness, find_k_cycles
from cyclemod.decompose import (
    block_cut_tree,
    feasible_end_blocks,
    find_2_separation,
    is_rooted_2_connected,
    vertex_connectivity_at_least,
)
from cyclemod.errors import InvalidArgument, InvalidWitness
from cyclemod.families import UNCLASSIFIED, Family, FamilyClass
from cyclemod.generate import GenSpec, satisfies
from cyclemod.graph import Graph, complete_graph, cycle_graph, parse_graph, shortest_path
from cyclemod.oraclekern import DEFAULT_BUDGET, default_budget
from cyclemod.smallgraphs import connected_graphs

K4 = complete_graph(4)
# S = {0, 1} and T = {2, 3, 4} of K_{2,3}, with y = 5 on its own
CORE = Core(s=(0, 1), t=(2, 3, 4), x=0, y=5, component_c=(5,))
K23 = Graph(6, [(s, t) for s in CORE.s for t in CORE.t])


@pytest.mark.parametrize("call, error, prefix", [
    (lambda: h_ladder_path(CORE, 0, 5, 1), InvalidArgument, "endpoints must lie in the core"),
    (lambda: h_ladder_path(CORE, 0, 2, 0), InvalidArgument, "need distinct endpoints"),
    (lambda: h_ladder_path(CORE, 0, 2, 2), InvalidArgument, "parity of length does not match"),
    (lambda: h_ladder_path(CORE, 0, 2, 7), InvalidArgument, "not enough unused core vertices"),
    (lambda: verify_core(K23, Core(s=(0,), t=(2,), x=0, y=5, component_c=(5,))),
     False, "C1: |T|=1 < |S|=1 or |S| < 2"),
    (lambda: verify_core(K23.without_edge(1, 3), CORE), False, "C1: missing edge 1-3"),
    (lambda: verify_core(K23, Core(s=(0, 1), t=(2, 3, 4), x=5, y=4, component_c=())),
     False, "C2: roots misplaced"),
    # 5 has both S vertices as neighbours, so it belongs in T
    (lambda: verify_core(Graph(7, K23.edges() + [(0, 5), (1, 5)]), replace(CORE, y=6)),
     False, "C3: vertex 5"),
    # 5 has all three T vertices as neighbours, one more than l + 1
    (lambda: verify_core(Graph(7, K23.edges() + [(2, 5), (3, 5), (4, 5)]), replace(CORE, y=6)),
     False, "C4: vertex 5"),
    (lambda: check_witness(K4, (0, 1, 0)), False, "repeated vertex"),
    (lambda: check_witness(cycle_graph(5), (0, 1, 2, 4, 3)), False, "missing cycle edge 2-4"),
    (lambda: check_witness(complete_graph(5), (0, 1, 2, 3, 4)), False, "not induced at"),
    (lambda: find_k_cycles(K4, 0), InvalidArgument, "k must be positive"),
    (lambda: Family(((0, 1, 2), (0, 3, 4, 2)), FamilyClass(UNCLASSIFIED)),
     InvalidWitness, "lengths [2, 3] do not admit the reading"),
    (lambda: block_cut_tree(Graph(0)), InvalidArgument, "empty graph"),
    (lambda: is_rooted_2_connected(K4, 0, 0), InvalidArgument, "roots must be two distinct"),
    (lambda: vertex_connectivity_at_least(K4, 4), InvalidArgument, "t must be 2 or 3"),
    (lambda: vertex_connectivity_at_least(complete_graph(3), 3), InvalidArgument,
     "graph too small to ask about 3-connectivity"),
    (lambda: find_2_separation(Graph(4, [(0, 1), (1, 2), (2, 3)])), InvalidArgument,
     "find_2_separation expects a 2-connected graph"),
    (lambda: feasible_end_blocks(K4, 9), InvalidArgument, "y out of range"),
    (lambda: GenSpec(n=5, min_degree=2, connectivity=4), InvalidArgument,
     "connectivity must be 2 or 3"),
    (lambda: GenSpec(n=5, min_degree=-1), InvalidArgument, "min degree must be nonnegative"),
    (lambda: Graph(0).min_degree(), InvalidArgument, "empty graph has no minimum degree"),
    (lambda: shortest_path(K4, 0, 1, forbidden={1}), InvalidArgument, "endpoint is forbidden"),
    (lambda: parse_graph("p\n"), InvalidArgument, "line 1: malformed header"),
    (lambda: parse_graph("0 1\n0 1 2\n"), InvalidArgument, "line 2: expected 'u v'"),
    (lambda: parse_graph("0 a\n"), InvalidArgument, "line 1: expected integers"),
    (lambda: parse_graph("0 -1\n"), InvalidArgument, "line 1: negative vertex id"),
    (lambda: parse_graph("2 2\n"), InvalidArgument, "line 1: self-loop"),
    (lambda: connected_graphs(8), InvalidArgument, "the atlas covers up to 7 vertices"),
], ids=[
    "ladder-endpoint-off-core", "ladder-length-0", "ladder-parity", "ladder-too-long",
    "core-c1-sizes", "core-c1-edge", "core-c2-roots", "core-c3", "core-c4",
    "witness-repeated-vertex", "witness-missing-edge", "witness-not-induced", "cycles-k-0",
    "family-unclassified", "decompose-empty-graph", "decompose-bad-roots",
    "connectivity-t-4", "connectivity-too-small", "separation-not-2-connected",
    "end-blocks-y-out-of-range", "genspec-connectivity", "genspec-min-degree",
    "graph-empty-min-degree", "graph-forbidden-endpoint", "parse-bare-header",
    "parse-three-fields", "parse-not-integers", "parse-negative-id", "parse-self-loop",
    "atlas-past-7",
])
def test_each_rejection_names_its_reason(call, error, prefix):
    # `error` is the exception raised, or False for a check that reports
    # (False, reason) instead of raising
    if error is False:
        ok, reason = call()
        assert not ok and reason.startswith(prefix), reason
    else:
        with pytest.raises(error) as info:
            call()
        assert str(info.value).startswith(prefix)


def test_inputs_read_without_a_rejection(monkeypatch):
    # a comment line is skipped, a malformed budget falls back to the
    # default, a graph too small for a 2-separation has none, and a
    # non-bipartite draw misses a bipartite spec
    assert parse_graph("# a triangle\n0 1\n1 2  # last edge next\n0 2\n") == complete_graph(3)
    monkeypatch.setenv("CYCLEMOD_BUDGET", "lots")
    assert default_budget() == DEFAULT_BUDGET == 10**7
    assert find_2_separation(complete_graph(3)) is None
    assert not satisfies(complete_graph(3), GenSpec(n=3, min_degree=2, bipartite=True))
    assert repr(K4) == "Graph(n=4, m=6)"
