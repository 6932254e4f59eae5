"""Block-cut decomposition and connectivity predicates."""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from cyclemod import cycles, decompose, graph
from cyclemod.errors import Disconnected
from cyclemod.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    induced,
    is_connected,
)
from cyclemod.decompose import (
    BlockCutTree,
    Separation2,
    block_cut_tree,
    cut_vertices,
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


def test_block_cut_tree_of_one_and_two_vertices():
    assert block_cut_tree(Graph(1)) == BlockCutTree(((0,),), (), (), (0,))
    assert block_cut_tree(Graph(2, [(0, 1)])) == BlockCutTree(((0, 1),), (), (), (0,))
    with pytest.raises(Disconnected):
        block_cut_tree(Graph(2))


def test_low_link_matches_networkx_with_deleted_sets():
    # cut vertices and blocks of G - S for |S| = 0..3, and None exactly when
    # G - S is disconnected; bridges and pendant paths come from the sparse
    # draws
    rng = random.Random(19)
    disconnected = 0
    for _ in range(400):
        n = rng.randint(5, 14)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(n - 1, 3 * n))}
        g = Graph(n, sorted(edges))
        without = rng.sample(range(n), rng.randint(0, 3))
        G = _nx(g)
        G.remove_nodes_from(without)
        walk = decompose._low_link(g, without)
        if not nx.is_connected(G):
            assert walk is None, (g.edges(), without)
            disconnected += 1
            continue
        cuts, blocks = walk
        assert cuts == set(nx.articulation_points(G)), (g.edges(), without)
        theirs = sorted(sorted(b) for b in nx.biconnected_components(G))
        assert sorted(sorted(b) for b in blocks) == (theirs or [sorted(G)])
    assert 50 < disconnected < 350


def test_3_connectivity_of_random_cubic_graphs():
    # the contraction certificate leaves some cubic 3-connected graphs
    # undecided (6 of these 65); the 2-separation scan must then prove them
    undecided = 0
    for n in range(6, 31, 2):
        for seed in range(6):
            G = nx.random_regular_graph(3, n, seed=seed)
            g = Graph(n, G.edges())
            want = nx.node_connectivity(G) >= 3
            assert vertex_connectivity_at_least(g, 3) == want, (n, seed)
            assert (cycles.branch_of(g) != "I") == want, (n, seed)
            undecided += want and not decompose._contracts_to_k4(g, graph.adj_masks(g))
    assert undecided >= 1


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
    # is_rooted_2_connected reads the end blocks of one walk of G; the
    # definition, a walk of the copy G + xy, and the block-cut tree reading
    # are its references
    checked = 0
    for n in range(3, 8):
        for g in atlas_connected(n):
            for x, y in itertools.combinations(range(n), 2):
                want = is_2_connected(g.with_edge(x, y))
                assert want == _rooted_via_blocks(g, x, y), (g.edges(), x, y)
                assert is_rooted_2_connected(g, x, y) == want, (g.edges(), x, y)
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


def pair_scan_two_separations(g):
    # the O(n^2 (n + m)) pair scan two_separations used to run, kept as the
    # reference for the low-link walk
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if is_connected(g, ignore=(u, v)):  # cheaper than components(); most pairs pass
                continue
            a_side = set(components(g, ignore=(u, v))[0]) | {u, v}
            b_side = (set(range(g.n)) - a_side) | {u, v}
            yield Separation2(a=tuple(sorted(a_side)), b=tuple(sorted(b_side)), cut=(u, v))


def _atlas():
    for G in nx.graph_atlas_g():
        yield G, Graph(G.number_of_nodes(), sorted(tuple(sorted(e)) for e in G.edges()))


def test_two_separations_match_the_pair_scan_on_the_atlas():
    checked = certified = 0
    for _G, g in _atlas():
        seps = list(two_separations(g))
        assert seps == list(pair_scan_two_separations(g)), g.edges()
        if decompose._contracts_to_k4(g, graph.adj_masks(g)):
            assert seps == [] and g.n >= 4, g.edges()
            certified += 1
        checked += 1
    assert checked == 1253  # every atlas graph, disconnected ones included
    assert certified == 157  # every 3-connected one


def _random_graph(rng):
    # expected degree 3 to 12, so that disconnected graphs, graphs with a
    # cut vertex, 2-connected graphs with a 2-cut and 3-connected graphs
    # all occur (each at least 350 times in the 3,000)
    n = rng.randint(2, 30)
    p = min(1.0, rng.choice((3, 4, 5, 6, 8, 12)) / n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_two_separations_match_the_pair_scan_on_random_graphs():
    rng = random.Random(20191)
    kinds = Counter()
    for _ in range(3000):
        g = _random_graph(rng)
        seps = list(two_separations(g))
        assert seps == list(pair_scan_two_separations(g)), g.edges()
        if decompose._contracts_to_k4(g, graph.adj_masks(g)):
            assert seps == [] and g.n >= 4, g.edges()
            kinds["certified"] += 1
        if g.n >= 4 and not seps:
            kinds["3-connected, n >= 4"] += 1
        if not is_connected(g):
            kinds["disconnected"] += 1
        elif not is_2_connected(g):
            kinds["cut vertex"] += 1
        else:
            kinds["2-cut" if seps else "3-connected"] += 1
    assert min(kinds[k] for k in ("disconnected", "cut vertex", "2-cut", "3-connected")) >= 350, kinds
    # the contraction certificate proves every 3-connected one (1,369)
    assert kinds["certified"] == kinds["3-connected, n >= 4"], kinds


def test_cut_predicates_match_networkx_on_the_atlas():
    for G, g in _atlas():
        assert is_2_connected(g) == (g.n >= 3 and nx.is_biconnected(G))
        if g.n and nx.is_connected(G):
            assert cut_vertices(g) == tuple(sorted(nx.articulation_points(G)))
        elif g.n:
            with pytest.raises(Disconnected):
                cut_vertices(g)


def circulant(n, steps):
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def generalized_petersen(n, k):
    """GP(n, k): the n-cycle 0..n-1, spokes i -- n + i, and inner edges
    n + i -- n + (i + k) mod n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges + [(n + i, n + (i + k) % n) for i in range(n)])


def structured_graphs():
    for n in range(3, 25):
        rim = [(i, (i + 1) % n) for i in range(n)]
        yield f"W_{n}", Graph(n + 1, rim + [(i, n) for i in range(n)])
        yield f"prism_{n}", Graph(2 * n, rim + [(n + u, n + v) for u, v in rim]
                                  + [(i, n + i) for i in range(n)])
        yield f"Mobius_{n}", circulant(2 * n, (1, n))
    for n in range(7, 40):
        yield f"C_{n}(1, 3)", circulant(n, (1, 3))
        yield f"C_{n}(1, 4)", circulant(n, (1, 4))
    for s in range(1, 8):
        for t in range(s, 8):
            yield f"K_{s},{t}", complete_bipartite(s, t)
    for n in range(5, 16):
        for k in range(1, (n - 1) // 2 + 1):
            yield f"GP({n}, {k})", generalized_petersen(n, k)


def test_the_contraction_certificate_on_structured_families():
    # sound on every graph, and it proves every 3-connected one here with
    # no scan, the generalised Petersen graphs included
    three_connected = certified = 0
    for name, g in structured_graphs():
        seps = list(two_separations(g)) if g.n >= 4 else None
        three_connected += seps == []
        if decompose._contracts_to_k4(g, graph.adj_masks(g)):
            assert seps == [], name
            certified += 1
    assert certified == three_connected == 194


def test_two_separations_run_no_pair_scan(monkeypatch):
    # one low-link walk per deleted vertex but the last, which has no partner
    # above it: on a 2-connected graph neither a per-pair connectivity test
    # nor a block-cut tree is built
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graph, "is_connected", counted("is_connected", graph.is_connected))
    monkeypatch.setattr(decompose, "is_connected", counted("is_connected", decompose.is_connected))
    monkeypatch.setattr(decompose, "block_cut_tree", counted("block_cut_tree", decompose.block_cut_tree))
    monkeypatch.setattr(decompose, "_low_link", counted("walk", decompose._low_link))
    g = circulant(60, (1, 4))
    assert list(two_separations(g)) == []
    assert calls == Counter(walk=59)
    calls.clear()
    g = circulant(60, (1,))  # the 60-cycle: every non-adjacent pair is a 2-cut
    assert len(list(two_separations(g))) == 60 * 59 // 2 - 60
    assert calls == Counter(walk=59)


def test_vertex_connectivity_examples():
    assert vertex_connectivity_at_least(complete_graph(5), 3)
    assert not vertex_connectivity_at_least(cycle_graph(5), 3)
    # every atlas graph on 4..7 vertices, with a cut vertex or disconnected too
    for G, g in _atlas():
        if g.n >= 4:
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


def _mapped(leaves, to_orig):
    return [(tuple(to_orig[v] for v in blk), to_orig[b]) for blk, b in leaves]


def test_leaf_blocks_match_the_incidence_scan():
    deleted = 0
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
            # the walks of G - X in g's own ids against the relabelled copy
            for size in (1, 2):
                for X in itertools.combinations(range(n), size):
                    if n == size or not is_connected(g, ignore=X):
                        continue
                    sub, to_orig = induced(g, set(range(n)) - set(X))
                    assert leaf_blocks(g, X) == _mapped(leaf_blocks(sub), to_orig)
                    assert is_2_connected(g, X) == is_2_connected(sub)
                    for i, y in enumerate(to_orig):
                        feas, single = feasible_end_blocks(sub, i)
                        assert feasible_end_blocks(g, y, X) == (_mapped(feas, to_orig), single)
                    deleted += 1
    assert deleted == 21556  # graphs and X with G - X connected and non-empty


def test_a_chain_of_a_thousand_k5_blocks():
    # K5 number i on 4i .. 4i + 4, each sharing its last vertex with the
    # next: a ring of K5s cut open at one shared vertex, seeded relabeling
    blocks = 1000
    order = list(range(4 * blocks + 1))
    random.Random(7).shuffle(order)
    edges = [(order[4 * i + a], order[4 * i + b])
             for i in range(blocks) for a, b in itertools.combinations(range(5), 2)]
    g = Graph(4 * blocks + 1, edges)
    bct = block_cut_tree(g)
    assert len(bct.blocks) == blocks and len(bct.cut_vertices) == blocks - 1
    assert list(bct.blocks) == sorted(tuple(sorted(b)) for b in nx.biconnected_components(_nx(g)))
    first, last = (tuple(sorted(order[4 * i + a] for a in range(5))) for i in (0, blocks - 1))
    assert sorted(bct.blocks[i] for i in bct.end_blocks) == sorted([first, last])
    leaves = leaf_blocks(g)
    assert leaves == old_end_block_scan(g)
    assert sorted(leaves) == sorted([(first, order[4]), (last, order[4 * blocks - 4])])


@given(connected_graphs)
def test_cut_vertices_match_networkx(g):
    theirs = sorted(nx.articulation_points(_nx(g)))
    assert sorted(block_cut_tree(g).cut_vertices) == theirs
    assert list(cut_vertices(g)) == theirs


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
