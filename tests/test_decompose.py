"""Block-cut decomposition and connectivity predicates."""

import itertools

import networkx as nx
from hypothesis import given, strategies as st

from cyclemod.graph import Graph, complete_graph, cycle_graph, is_connected
from cyclemod.decompose import (
    block_cut_tree,
    feasible_end_blocks,
    find_2_separation,
    is_2_connected,
    is_rooted_2_connected,
    leaf_blocks,
    two_separations,
    vertex_connectivity_at_least,
)
from cyclemod.smallgraphs import connected_graphs as atlas_connected


def _nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def connected_random(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    # a random tree skeleton keeps the sample connected
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return Graph(n, sorted(edges))


connected_graphs = st.composite(connected_random)()


def test_block_cut_tree_two_triangles():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bct = block_cut_tree(g)
    assert bct.cut_vertices == (2,)
    assert sorted(bct.blocks) == [(0, 1, 2), (2, 3, 4)]
    assert sorted(bct.end_blocks) == [0, 1]


def test_is_2_connected_basics():
    assert is_2_connected(cycle_graph(4))
    assert not is_2_connected(Graph(3, [(0, 1), (1, 2)]))
    assert not is_2_connected(Graph(2, [(0, 1)]))


def test_rooted_2_connected():
    # a path 0-2-1: adding the edge 01 closes it into a triangle
    g = Graph(3, [(0, 2), (1, 2)])
    assert is_rooted_2_connected(g, 0, 1)
    # two triangles joined at a cut vertex: roots must cover both end blocks
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert is_rooted_2_connected(g, 0, 4)
    assert not is_rooted_2_connected(g, 0, 1)
    assert not is_rooted_2_connected(g, 0, 2)


def _rooted_via_blocks(g, x, y):
    """Reference reading of rooted 2-connectivity: connected, order >= 3,
    <= 2 end blocks, every end block contains x or y as a non-cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    bct = block_cut_tree(g)
    if len(bct.end_blocks) > 2:
        return False
    cuts = set(bct.cut_vertices)
    for i in bct.end_blocks:
        blk = set(bct.blocks[i])
        if not ((x in blk and x not in cuts) or (y in blk and y not in cuts)):
            return False
    return True


def test_rooted_2_connected_matches_end_block_reading():
    checked = 0
    for n in range(3, 8):
        for g in atlas_connected(n):
            for x, y in itertools.combinations(range(n), 2):
                assert is_rooted_2_connected(g, x, y) == _rooted_via_blocks(g, x, y), (g.edges(), x, y)
                checked += 1
    assert checked == 19845  # root pairs of the 994 connected graphs with 3 <= n <= 7


def test_find_2_separation():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    sep = find_2_separation(g)
    assert sep is not None
    u, v = sep.cut
    assert not nx.is_connected(_nx(g).subgraph(set(range(6)) - {u, v}))
    assert find_2_separation(complete_graph(4)) is None


def test_two_separations_enumerates_every_cut_pair_in_order():
    # a 6-cycle: the 2-cuts are exactly the non-adjacent pairs
    g = cycle_graph(6)
    seps = list(two_separations(g))
    assert [s.cut for s in seps] == [
        (u, v) for u, v in itertools.combinations(range(6), 2) if not g.has_edge(u, v)
    ]
    for sep in seps:
        assert set(sep.a) & set(sep.b) == set(sep.cut)
        assert set(sep.a) | set(sep.b) == set(range(6))
        assert min(set(sep.a) - set(sep.cut)) < min(set(sep.b) - set(sep.cut))
    assert find_2_separation(g) == seps[0]


def test_vertex_connectivity_examples():
    assert vertex_connectivity_at_least(complete_graph(5), 3)
    assert not vertex_connectivity_at_least(cycle_graph(5), 3)
    # every atlas graph on 4..7 vertices, with a cut vertex or disconnected too
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() >= 4:
            g = Graph(G.number_of_nodes(), sorted(tuple(sorted(e)) for e in G.edges()))
            assert vertex_connectivity_at_least(g, 3) == (nx.node_connectivity(G) >= 3)


def test_feasible_end_blocks():
    c = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blocks, single = feasible_end_blocks(c, 0)
    assert not single
    assert any(set(blk) == {2, 3, 4} for blk, b in blocks)


def old_end_block_scan(g):
    # the (end block, cut vertex) scan the construction sites used to write
    # out over BlockCutTree.incidence
    bct = block_cut_tree(g)
    out = []
    for i in bct.end_blocks:
        bs = [v for j, v in bct.incidence if j == i]
        if bs:
            out.append((bct.blocks[i], bs[0]))
    return out


def old_feasible_end_blocks(g, y):
    bct = block_cut_tree(g)
    if len(bct.blocks) == 1:
        return [], True
    out = [(blk, b) for blk, b in old_end_block_scan(g) if not (y in blk and y != b)]
    out.sort(key=lambda item: min(item[0]))
    return out, False


def test_leaf_blocks_match_the_incidence_scan():
    for n in range(1, 8):
        for g in atlas_connected(n):
            leaves = leaf_blocks(g)
            assert leaves == old_end_block_scan(g)
            bct = block_cut_tree(g)
            assert (leaves == []) == (len(bct.blocks) == 1)
            for blk, b in leaves:
                assert b in blk and b in bct.cut_vertices
            for y in range(n):
                assert feasible_end_blocks(g, y) == old_feasible_end_blocks(g, y)


@given(connected_graphs)
def test_cut_vertices_match_networkx(g):
    bct = block_cut_tree(g)
    assert sorted(bct.cut_vertices) == sorted(nx.articulation_points(_nx(g)))


@given(connected_graphs)
def test_blocks_match_networkx(g):
    bct = block_cut_tree(g)
    ours = sorted(sorted(b) for b in bct.blocks if len(b) > 1)
    theirs = sorted(sorted(b) for b in nx.biconnected_components(_nx(g)))
    assert ours == theirs


@given(connected_graphs)
def test_2_connected_matches_networkx(g):
    G = _nx(g)
    theirs = g.n >= 3 and nx.is_biconnected(G)
    assert is_2_connected(g) == theirs


@given(connected_graphs, st.sampled_from([2, 3]))
def test_connectivity_threshold_matches_networkx(g, t):
    if g.n < t + 1:
        return
    assert vertex_connectivity_at_least(g, t) == (nx.node_connectivity(_nx(g)) >= t)
