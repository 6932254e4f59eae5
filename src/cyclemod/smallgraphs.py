"""Enumeration of small graphs for exhaustive desk-scale checks.

The graph atlas shipped with networkx lists all graphs on up to 7
vertices up to isomorphism; we filter it down to the connected /
2-connected ones.  A brute-force enumerator over edge subsets of K_n
(deduplicated by the minimum adjacency string over all vertex
permutations) provides an independent cross-check at n <= 5.
"""

from itertools import combinations, permutations

from .graph import Graph
from .decompose import is_2_connected
from .errors import InvalidArgument


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


def connected_graphs(n):
    """All connected graphs on exactly n vertices (3 <= n <= 7), one per
    isomorphism class, from the atlas."""
    if not 1 <= n <= 7:
        raise InvalidArgument("the atlas covers up to 7 vertices")
    import networkx as nx  # only the atlas needs it; keeps `cyclemod` startup light

    out = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() != n or not nx.is_connected(G):
            continue
        out.append(Graph(n, list(G.edges())))
    return out


def two_connected_graphs(n):
    """All 2-connected graphs on exactly n vertices, one per class."""
    return [g for g in connected_graphs(n) if is_2_connected(g)]


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
