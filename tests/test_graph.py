"""Graph value type and basic algorithms."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from cyclemod.errors import InvalidArgument
from cyclemod.generate import GenSpec, generate
from cyclemod.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    components,
    contract_set,
    cycle_graph,
    format_graph,
    girth,
    induced,
    is_bipartite,
    is_connected,
    parse_graph,
    shortest_path,
)
from cyclemod.oraclekern import cycle_length_set
from cyclemod.smallgraphs import two_connected_graphs


def random_graph(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, picks)


graphs = st.composite(random_graph)()


def test_construction_and_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])  # duplicate merged
    assert g.m == 3
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.min_degree() == 1


def test_rejects_bad_edges():
    with pytest.raises(InvalidArgument):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidArgument):
        Graph(3, [(1, 1)])


def test_with_and_without_edge_are_persistent():
    g = complete_graph(3)
    g2 = g.without_edge(0, 1)
    assert g.has_edge(0, 1) and not g2.has_edge(0, 1)
    assert g2.with_edge(0, 1) == g


def test_induced_relabels_and_maps_back():
    g = complete_graph(5)
    sub, to_orig = induced(g, {1, 3, 4})
    assert sub.n == 3 and sub.m == 3
    assert to_orig == [1, 3, 4]


def test_contract_set_merges_parallel_edges():
    g = cycle_graph(5)
    h, to_new, s = contract_set(g, {1, 2})
    assert h.n == 4
    assert to_new[1] == to_new[2] == s
    assert h.has_edge(to_new[0], s) and h.has_edge(to_new[3], s)


# -- derived graphs against the graph rebuilt from an edge list --------------


def _derived_corpus():
    """Every atlas graph with n <= 7, then seeded generated graphs with
    n = 8..16."""
    for G in nx.graph_atlas_g()[1:]:
        yield _from_networkx(G)
    for n in range(8, 17):
        for d in (2, 3, 4):
            yield generate(GenSpec(n=n, min_degree=d, seed=n + d))


def _assert_rebuilt(h, n, edges):
    want = Graph(n, edges)
    assert h == want and h.edges() == want.edges() and hash(h) == hash(want)
    assert all(type(nbrs) is frozenset for nbrs in h.adj)


def test_derived_graphs_equal_the_graphs_rebuilt_from_their_edge_lists():
    checked = 0
    for g in _derived_corpus():
        n, edges = g.n, g.edges()
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    h = g.without_edge(v, u)
                    _assert_rebuilt(h, n, [e for e in edges if e != (u, v)])
                else:
                    h = g.with_edge(v, u)
                    _assert_rebuilt(h, n, edges + [(u, v)])
                    assert g.with_edge(u, v).with_edge(u, v) == h
                # only the neighborhoods of u and v are new
                assert all(h.adj[w] is g.adj[w] for w in range(n) if w not in (u, v))
        for v in range(n):
            for s in ({v}, set(g.adj[v]) | {v}, set(range(n)) - {v} or {v}):
                sub, to_orig = induced(g, s)
                inv = {o: i for i, o in enumerate(to_orig)}
                assert to_orig == sorted(s)
                _assert_rebuilt(sub, len(s), [(inv[a], inv[b]) for a, b in edges
                                              if a in inv and b in inv])
                h, to_new, super_id = contract_set(g, s)
                assert super_id == n - len(s) and all(to_new[w] == super_id for w in s)
                merged = {tuple(sorted((to_new[a], to_new[b]))) for a, b in edges
                          if to_new[a] != to_new[b]}
                _assert_rebuilt(h, super_id + 1, sorted(merged))
        checked += 1
    assert checked == 1252 + 9 * 3


def test_derived_graphs_check_their_input():
    g = cycle_graph(5)
    for u, v in ((0, 5), (5, 0), (-1, 2), (2, -1)):
        with pytest.raises(InvalidArgument):
            g.with_edge(u, v)
        with pytest.raises(InvalidArgument):
            g.without_edge(u, v)
    for v in (0, 4):
        with pytest.raises(InvalidArgument):
            g.with_edge(v, v)
        with pytest.raises(InvalidArgument):
            g.without_edge(v, v)
    with pytest.raises(InvalidArgument):
        g.without_edge(0, 2)  # no such edge
    for s in ({0, 5}, {-1}):
        with pytest.raises(InvalidArgument):
            induced(g, s)
        with pytest.raises(InvalidArgument):
            contract_set(g, s)
    with pytest.raises(InvalidArgument):
        contract_set(g, set())
    # a failed call leaves g as it was
    assert g == cycle_graph(5)


def test_bipartite_detection():
    assert is_bipartite(complete_bipartite(2, 3)) is not None
    assert is_bipartite(cycle_graph(5)) is None
    sides = is_bipartite(cycle_graph(6))
    assert sorted(len(s) for s in sides) == [3, 3]


def test_connectivity_and_components():
    g = Graph(5, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert components(g) == [[0, 1], [2, 3], [4]]
    assert components(g, ignore=(0, 3)) == [[1], [2], [4]]
    assert is_connected(complete_graph(4), ignore=(0,))


def _from_networkx(G):
    return Graph(G.number_of_nodes(), G.edges())


def test_girth_is_the_shortest_cycle_length():
    assert girth(Graph(4, [(0, 1), (1, 2), (1, 3)])) is None
    count = 0
    for n in range(3, 8):
        for g in two_connected_graphs(n):
            assert girth(g) == min(cycle_length_set(g)), g
            count += 1
    assert count == 538
    for n in range(8, 13):
        for bipartite in (False, True):
            for seed in range(2):
                g = generate(GenSpec(n=n, min_degree=3, bipartite=bipartite, seed=seed))
                assert girth(g) == min(cycle_length_set(g)), g


def test_girth_scans_past_its_floor_when_no_cycle_meets_it():
    # the scan stops early only at 3, or at 4 in a bipartite graph
    assert girth(_from_networkx(nx.petersen_graph())) == 5
    heawood = _from_networkx(nx.heawood_graph())
    assert is_bipartite(heawood) is not None and girth(heawood) == 6
    assert girth(Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])) is None
    # C4, a path, then the only triangle in the last component
    four = [(i, (i + 1) % 4) for i in range(4)]
    assert girth(Graph(9, four + [(4, 5), (6, 7), (7, 8), (6, 8)])) == 3
    # bipartite: C6, then the only 4-cycle in the last component
    six = [(i, (i + 1) % 6) for i in range(6)]
    assert girth(Graph(10, six + [(6, 7), (7, 8), (8, 9), (6, 9)])) == 4


def test_shortest_path_with_forbidden():
    g = cycle_graph(6)
    assert shortest_path(g, 0, 3) in ((0, 1, 2, 3), (0, 5, 4, 3))
    assert shortest_path(g, 0, 3, forbidden=(1,)) == (0, 5, 4, 3)


def test_parse_format_round_trip_explicit():
    text = "p 4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert parse_graph(format_graph(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(InvalidArgument):
        parse_graph("p x y\n")
    with pytest.raises(InvalidArgument):
        parse_graph("p 2 1\n0 5\n")


@given(graphs)
def test_parse_format_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@given(graphs)
def test_components_match_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    ours = sorted(sorted(c) for c in components(g))
    theirs = sorted(sorted(c) for c in nx.connected_components(G))
    assert ours == theirs


@given(graphs)
def test_bipartite_matches_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    assert (is_bipartite(g) is not None) == nx.is_bipartite(G)
