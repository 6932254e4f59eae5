"""Enumeration of small graphs for exhaustive desk-scale checks.

The graph atlas shipped with networkx lists all graphs on up to 7
vertices up to isomorphism; we filter it down to the connected /
2-connected ones.  The tests cross-check it at n <= 5 against a
brute-force enumeration over edge subsets of K_n.
"""

from .graph import Graph
from .decompose import is_2_connected
from .errors import InvalidArgument


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
