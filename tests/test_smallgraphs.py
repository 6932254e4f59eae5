"""Small-graph enumeration and its independent cross-check."""

from itertools import combinations, permutations

from cyclemod.decompose import is_2_connected
from cyclemod.graph import Graph
from cyclemod.smallgraphs import connected_graphs, two_connected_graphs


def canonical_key(g):
    """Minimum upper-triangle adjacency bitstring over all relabelings."""
    n = g.n
    pairs = list(combinations(range(n), 2))
    best = None
    for perm in permutations(range(n)):
        key = tuple(1 if g.has_edge(perm[u], perm[v]) else 0 for u, v in pairs)
        if best is None or key < best:
            best = key
    return (n, best)


def brute_force_two_connected(n):
    """Independent enumeration by edge subsets of K_n, deduplicated by
    canonical_key.  Affordable at n <= 5; used to cross-check the atlas."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) < n:  # a 2-connected graph needs >= n edges
            continue
        g = Graph(n, edges)
        if not is_2_connected(g):
            continue
        key = canonical_key(g)
        if key in seen:
            continue
        seen.add(key)
        out.append(g)
    return out

# numbers of 2-connected graphs up to isomorphism, by order
EXPECTED_2CONN = {3: 1, 4: 3, 5: 10, 6: 56, 7: 468}


def test_two_connected_counts():
    for n in range(3, 8):
        assert len(two_connected_graphs(n)) == EXPECTED_2CONN[n]


def test_connected_counts_small():
    assert len(connected_graphs(3)) == 2
    assert len(connected_graphs(4)) == 6
    assert len(connected_graphs(5)) == 21


def test_canonical_key_isomorphism_invariant():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = Graph(4, [(0, 2), (2, 1), (1, 3), (0, 3)])  # relabeled 4-cycle
    assert canonical_key(g) == canonical_key(h)
    square_plus = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert canonical_key(g) != canonical_key(square_plus)


def test_brute_force_cross_checks_atlas():
    for n in (3, 4, 5):
        ours = {canonical_key(g) for g in brute_force_two_connected(n)}
        atlas = {canonical_key(g) for g in two_connected_graphs(n)}
        assert ours == atlas
