"""Connectivity structure: blocks, cut vertices, end blocks, 2-separations,
and the rooted 2-connectivity test for a graph with two roots (x, y).

(G, x, y) is rooted 2-connected iff G + xy is 2-connected.  rooted_end_blocks
reads that off one walk of G, with no copy of G + xy: for G connected with
n >= 3, G + xy is 2-connected iff G has at most two end blocks and each
holds x or y as a non-cut vertex.  (G + xy 2-connected has no bridge, so G
is connected.)  Proof.  A single block on n >= 3 vertices is 2-connected
and holds both roots.  Otherwise each end block B has one cut vertex b, and
B - b holds no cut vertex, so these sets are disjoint.  If: with two end
blocks the block-cut tree is a path, and G - v, for each cut vertex v, has
two components, one holding B1 - b1 and its root, the other B2 - b2 and
the other root, which xy joins; any other v leaves G connected.  Only if:
G + xy - b is connected and meets B - b and the rest of G - b, which only
xy can join, so a root lies in B - b; a root lies in one such set at most,
so there are at most two end blocks.  The tests check the reading against
is_2_connected(G + xy) on every root pair of every connected graph on
3..7 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Disconnected, InvalidArgument
from .graph import adj_masks, component_of, is_connected, mask_bits


@dataclass(frozen=True)
class BlockCutTree:
    blocks: tuple          # tuple of sorted vertex tuples
    cut_vertices: tuple    # sorted
    incidence: tuple       # (block index, cut vertex) pairs
    end_blocks: tuple      # indices of blocks with <= 1 incident cut vertex


@dataclass(frozen=True)
class Separation2:
    a: tuple
    b: tuple
    cut: tuple  # the two shared vertices


def _low_link(g, without=()):
    """(cut vertices, blocks) of G - without: the cut vertices as a set,
    each block as a list of its vertices; None when G - without is
    disconnected.  A lone vertex is one block of its own.

    One iterative low-link DFS (Tarjan 1972) from the smallest vertex left.
    A deleted vertex counts as visited with a discovery time later than any
    other, so it is never entered and an edge to it never lowers a low-link.
    Each frame keeps the height of the vertex stack at the moment its vertex
    was pushed; when the vertex closes a block at its parent, the block is
    the parent plus the stack above that height, cut off in time
    proportional to the block.
    """
    n = g.n
    adj = g.adj
    disc = [0] * n  # 0: not yet visited; discovery times start at 1
    low = [0] * n
    for v in without:
        disc[v] = n + 1
    root = next((v for v in range(n) if not disc[v]), None)
    if root is None:
        return set(), []
    disc[root] = low[root] = seen = 1
    cuts = set()
    blocks = []
    root_children = 0
    verts = [root]
    stack = [(root, -1, iter(adj[root]), 0)]
    while stack:
        v, parent, children, height = stack[-1]
        for w in children:
            if not disc[w]:
                seen += 1
                disc[w] = low[w] = seen
                stack.append((w, v, iter(adj[w]), len(verts)))
                verts.append(w)
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent < 0:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= disc[parent]:
                blocks.append([parent] + verts[height:])
                del verts[height:]
                cuts.add(parent)
    if seen < n - len(set(without)):
        return None
    if not blocks:
        blocks.append([root])
    elif root_children < 2:
        cuts.discard(root)
    return cuts, blocks


def _connected_walk(g, without=()):
    """_low_link(g, without) of a connected, non-empty G - without."""
    walk = _low_link(g, without)
    if walk is None:
        raise Disconnected("needs a connected graph")
    if not walk[1]:
        raise InvalidArgument("empty graph")
    return walk


def block_cut_tree(g, without=()):
    """Blocks, cut vertices, incidence, end blocks of G - without, which
    must be connected and non-empty; vertices keep their ids in g."""
    cuts, found = _connected_walk(g, without)
    blocks = sorted(tuple(sorted(blk)) for blk in found)
    incidence = tuple((i, v) for i, blk in enumerate(blocks) for v in blk if v in cuts)
    end_blocks = tuple(i for i, blk in enumerate(blocks) if len(cuts.intersection(blk)) <= 1)
    return BlockCutTree(tuple(blocks), tuple(sorted(cuts)), incidence, end_blocks)


def _leaves(cuts, blocks):
    """(sorted block, cut vertex) of each block of a walk with one cut
    vertex, by block: the end blocks, none for a single block."""
    hits = [(tuple(sorted(blk)), cuts.intersection(blk)) for blk in blocks]
    return sorted((blk, *hit) for blk, hit in hits if len(hit) == 1)


def leaf_blocks(g, without=()):
    """(block, cut vertex) for each end block of a connected G - without,
    in block-index order; empty when it is a single block."""
    return _leaves(*_connected_walk(g, without))


def cut_vertices(g):
    """Sorted cut vertices of a connected graph."""
    return tuple(sorted(_connected_walk(g)[0]))


def is_2_connected(g, without=()):
    """G - without has n >= 3, is connected and has no cut vertex; the
    vertex set `without` holds distinct vertices of g."""
    if g.n - len(without) < 3:
        return False
    walk = _low_link(g, without)
    return walk is not None and not walk[0]


def rooted_end_blocks(g, x, y):
    """The end blocks of G as leaf_blocks(g) gives them (empty when G is
    2-connected) if G + xy is 2-connected, else None: the reading of the
    module docstring, on one low-link walk of g."""
    walk = _low_link(g) if g.n >= 3 else None
    leaves = None if walk is None else _leaves(*walk)
    if leaves is None or len(leaves) > 2 or any(
            not {x, y}.intersection(blk) - {b} for blk, b in leaves):
        return None
    return leaves


def is_rooted_2_connected(g, x, y):
    """True iff G + xy is 2-connected."""
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise InvalidArgument("roots must be two distinct vertices of g")
    return rooted_end_blocks(g, x, y) is not None


def two_separations(g):
    """Every 2-separation (A, B) of g, by lexicographic cut pair (u, v).

    A is the component of G - {u, v} holding its smallest vertex id, plus
    u and v; B is the rest of the graph plus u and v.  The partners v > u
    of u are the cut vertices of G - u, from one low-link walk; only when
    G - u is itself disconnected is each pair tested on its own.  The last
    vertex has no partner above it, so it gets no walk.
    """
    n = g.n
    for u in range(n - 1):
        walk = _low_link(g, (u,))
        if walk is None:
            partners = (v for v in range(u + 1, n) if not is_connected(g, ignore=(u, v)))
        else:
            partners = sorted(v for v in walk[0] if v > u)
        for v in partners:
            root = next(w for w in range(n) if w != u and w != v)
            a_side = component_of(g, root, (u, v)) | {u, v}
            b_side = (set(range(n)) - a_side) | {u, v}
            yield Separation2(a=tuple(sorted(a_side)), b=tuple(sorted(b_side)), cut=(u, v))


def _contracts_to_k4(g, masks):
    """True when contracting edges of G, both ends of degree >= 3 each
    time, reaches a graph H with 2 * delta(H) > |H| (K4 at the latest):
    then G is 3-connected.  False means undecided, never "not 3-connected".

    Contraction lemma: let n >= 5, deg(x), deg(y) >= 3 and G/xy
    3-connected; then G is 3-connected.  Let S, |S| <= 2, separate G.  If
    S avoids {x, y}, the edge xy lies in one component of G - S, so S
    separates G/xy.  If S = {x, y}, then G - S is G/xy less the merged
    vertex z.  If S holds x but not y (or the reverse), {z} | (S - {x})
    separates G/xy unless the component of y in G - S is {y} alone, and
    then deg(y) <= 2.  Each case is a contradiction.

    Dense stop: H on >= 4 vertices with 2 * delta(H) > |H| is 3-connected.
    For |S| <= 2 and non-adjacent u, v outside S, N(u) - S and N(v) - S
    have >= delta - |S| vertices each among the |H| - |S| - 2 left, so
    they meet.  Induction over the contractions then proves G 3-connected.

    Every 3-connected graph on >= 5 vertices has an edge whose contraction
    stays 3-connected (Thomassen 1980).  The greedy choice here can miss
    it (on some cubic graphs): contract the smallest vertex x of minimum
    degree into the neighbour y that shares the fewest neighbours with it,
    then has the lowest degree, then the smallest id.  Degrees sit in
    bitmask buckets, so a step costs O(deg x) mask operations.  The walk
    contracts a copy of `masks`, the adjacency bitmasks of g, so the caller
    can hand the same masks on to a later search.
    """
    n = g.n
    if n < 4:
        return False
    adj = list(masks)
    deg = [len(s) for s in g.adj]
    buckets = [0] * n  # degree -> bitmask of the vertices left with it
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    d = min(deg)
    for order in range(n, 3, -1):
        # a step lowers a degree by at most 1, so the minimum is >= d - 1
        d = max(d - 1, 0)
        while not buckets[d]:
            d += 1
        if 2 * d > order:
            return True
        if d < 3:
            return False
        x_bit = buckets[d] & -buckets[d]
        x = x_bit.bit_length() - 1
        near = adj[x]
        y = best = None
        for w in mask_bits(near):
            key = ((adj[w] & near).bit_count(), deg[w])
            if best is None or key < best:
                y, best = w, key
        y_bit = 1 << y
        buckets[d] ^= x_bit
        for w in mask_bits(near & adj[y]):  # lose x, already next to y
            adj[w] ^= x_bit
            buckets[deg[w]] ^= 1 << w
            deg[w] -= 1
            buckets[deg[w]] |= 1 << w
        for w in mask_bits(near & ~adj[y] & ~y_bit):  # x becomes y
            adj[w] ^= x_bit | y_bit
        adj[y] = (adj[y] | near) & ~(x_bit | y_bit)
        buckets[deg[y]] ^= y_bit
        deg[y] = adj[y].bit_count()
        buckets[deg[y]] |= y_bit
    return False


def vertex_connectivity_at_least(g, t):
    """Decide kappa(G) >= t for t in {2, 3}.

    For t = 3, _contracts_to_k4 proves most 3-connected graphs 3-connected
    with no scan (its docstring has the proof); the 2-separation scan
    decides the rest: on n >= 4 vertices a graph with a cut vertex, or a
    disconnected one, also has a separating pair."""
    if t not in (2, 3):
        raise InvalidArgument("t must be 2 or 3")
    if g.n < t + 1:
        raise InvalidArgument(f"graph too small to ask about {t}-connectivity")
    if t == 2:
        return is_2_connected(g)
    return _contracts_to_k4(g, adj_masks(g)) or next(two_separations(g), None) is None


def find_2_separation(g):
    """The first 2-separation of two_separations(g), or None if g is
    3-connected (or has fewer than 4 vertices)."""
    if g.n < 4:
        return None
    if not is_2_connected(g):
        raise InvalidArgument("find_2_separation expects a 2-connected graph")
    return next(two_separations(g), None)


def feasible_end_blocks(c, y, without=()):
    """End blocks B (with cut vertex b) of C = c - without such that y is
    not in B - b; vertices keep their ids in c, and Disconnected is raised
    unless C is connected.

    Returns (list of (block_vertices, b), is_single_block).  When C has just
    one block there is no cut structure and the list is empty with the flag
    set.  Results sorted by smallest contained vertex id.
    """
    if not 0 <= y < c.n or y in without:
        raise InvalidArgument("y out of range")
    leaves = leaf_blocks(c, without)
    if not leaves:
        return [], True
    return [(blk, b) for blk, b in leaves if y not in blk or y == b], False
